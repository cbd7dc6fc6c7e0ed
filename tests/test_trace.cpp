// Scoped-span tracer + aggregate profiler (core/trace.hpp, core/prof.hpp):
// nesting/ordering, thread-local ring merge (incl. serve engine workers),
// ring wraparound, chrome://tracing export validity, profiler counters vs a
// hand-counted SimCLR toy run, and allocation-free steady-state recording.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/simclr.hpp"
#include "core/trace.hpp"
#include "counting_new.hpp"
#include "data/synth.hpp"
#include "models/encoder.hpp"
#include "serve/engine.hpp"
#include "serve/queue.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

constexpr std::size_t kDefaultRing = std::size_t{1} << 15;

void leaf_scope() { CQ_TRACE_SCOPE("ttrace.leaf"); }

void mid_scope() {
  CQ_TRACE_SCOPE("ttrace.mid");
  leaf_scope();
  leaf_scope();
}

void top_scope() {
  CQ_TRACE_SCOPE_N("ttrace.top", 42);
  mid_scope();
}

std::uint64_t prof_calls(const char* name) {
  for (const auto& c : prof::snapshot())
    if (c.name == name) return c.calls;
  return 0;
}

/// Fresh tracer state with a known ring size; disables tracing on scope
/// exit so no other test records by accident.
struct TraceSession {
  explicit TraceSession(std::size_t ring = kDefaultRing) {
    trace::enable(false);
    trace::set_ring_capacity(ring);
    trace::reset();
    trace::enable(true);
  }
  ~TraceSession() {
    trace::enable(false);
    trace::set_ring_capacity(kDefaultRing);
    trace::reset();
  }
};

TEST(Trace, NestedSpansDepthAndParentFirstOrdering) {
  TraceSession session;
  top_scope();
  trace::enable(false);

  const auto spans = trace::snapshot();
  ASSERT_EQ(spans.size(), 4u);

  // Sorted parent-before-child: top, mid, leaf, leaf.
  EXPECT_STREQ(spans[0].name, "ttrace.top");
  EXPECT_STREQ(spans[1].name, "ttrace.mid");
  EXPECT_STREQ(spans[2].name, "ttrace.leaf");
  EXPECT_STREQ(spans[3].name, "ttrace.leaf");

  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 2u);
  EXPECT_EQ(spans[3].depth, 2u);

  EXPECT_EQ(spans[0].arg, 42);
  EXPECT_EQ(spans[1].arg, trace::Span::kNoArg);

  // Temporal containment: parent brackets child; siblings don't overlap.
  for (int i = 1; i < 4; ++i) {
    EXPECT_LE(spans[0].start_ns, spans[i].start_ns);
    EXPECT_GE(spans[0].end_ns, spans[i].end_ns);
    EXPECT_LE(spans[i].start_ns, spans[i].end_ns);
  }
  EXPECT_LE(spans[2].end_ns, spans[3].start_ns);

  // Same recording thread throughout.
  EXPECT_EQ(spans[0].tid, spans[3].tid);
}

TEST(Trace, RuntimeGateOffRecordsNoSpansButStillProfiles) {
  TraceSession session;
  trace::enable(false);
  const auto calls_before = prof_calls("ttrace.leaf");
  for (int i = 0; i < 10; ++i) leaf_scope();
  EXPECT_EQ(trace::span_count(), 0u);
  EXPECT_EQ(prof_calls("ttrace.leaf"), calls_before + 10);
}

TEST(Trace, RingWraparoundKeepsNewestSpansAndCountsDrops) {
  TraceSession session(/*ring=*/8);
  for (int i = 0; i < 20; ++i) {
    CQ_TRACE_SCOPE_N("ttrace.wrap", i);
  }
  trace::enable(false);

  const auto spans = trace::snapshot();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(trace::span_count(), 8u);
  EXPECT_EQ(trace::dropped(), 12u);
  // The survivors are the NEWEST eight, oldest-first.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, "ttrace.wrap");
    EXPECT_EQ(spans[i].arg, static_cast<std::int64_t>(12 + i));
  }
}

TEST(Trace, ThreadLocalBuffersMergeWithDistinctTids) {
  TraceSession session;
  constexpr int kThreads = 3, kSpansEach = 5;
  {
    CQ_TRACE_SCOPE("ttrace.main");
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) {
        CQ_TRACE_SCOPE_N("ttrace.worker", i);
      }
    });
  for (auto& t : threads) t.join();
  trace::enable(false);

  // Buffers survive thread exit: all spans are in the merged snapshot.
  const auto spans = trace::snapshot();
  ASSERT_EQ(spans.size(), 1u + kThreads * kSpansEach);

  std::set<std::uint32_t> worker_tids;
  std::uint32_t main_tid = 0;
  for (const auto& s : spans) {
    if (std::string(s.name) == "ttrace.main")
      main_tid = s.tid;
    else
      worker_tids.insert(s.tid);
  }
  EXPECT_EQ(worker_tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(worker_tids.count(main_tid), 0u);

  // Merged view stays sorted by start time across threads.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
}

// ---------------------------------------------------------------------------
// chrome://tracing export. A tiny structural scan stands in for a JSON
// parser: quote-aware brace balancing plus extraction of the "ts" fields in
// document order.
// ---------------------------------------------------------------------------

bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::vector<double> extract_field(const std::string& doc, const char* key) {
  std::vector<double> out;
  const std::string needle = std::string("\"") + key + "\":";
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + 1))
    out.push_back(std::strtod(doc.c_str() + pos + needle.size(), nullptr));
  return out;
}

TEST(TraceExport, ChromeJsonIsBalancedOrderedAndNamesSpans) {
  TraceSession session;
  top_scope();
  std::thread([] { CQ_TRACE_SCOPE("ttrace.worker"); }).join();
  trace::enable(false);

  const std::string doc = trace_export::chrome_json();
  EXPECT_TRUE(json_balanced(doc));
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  for (const char* name : {"ttrace.top", "ttrace.mid", "ttrace.leaf",
                           "ttrace.worker"})
    EXPECT_NE(doc.find(std::string("\"name\": \"") + name + "\""),
              std::string::npos)
        << name;
  // The numeric span tag rides under args.
  EXPECT_NE(doc.find("\"args\": {\"n\": 42}"), std::string::npos);

  // Events are strictly ordered by timestamp, starting at zero.
  const auto ts = extract_field(doc, "ts");
  ASSERT_EQ(ts.size(), 5u);
  EXPECT_EQ(ts.front(), 0.0);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
  for (const double d : extract_field(doc, "dur")) EXPECT_GE(d, 0.0);

  // File export writes the same document.
  const std::string path = testing::TempDir() + "cq_trace_test.json";
  ASSERT_TRUE(trace_export::chrome(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<std::size_t>(std::ftell(f)), doc.size());
  std::fclose(f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serve engine: worker-thread spans land in the merged snapshot.
// ---------------------------------------------------------------------------

constexpr std::int64_t kH = 8, kW = 8;

const std::string& trace_checkpoint() {
  static const std::string path = [] {
    Rng rng(7);
    auto enc = models::make_encoder("resnet18", rng);
    enc.backbone->set_mode(nn::Mode::kTrain);
    for (int i = 0; i < 4; ++i) {
      enc.forward(Tensor::uniform(Shape{2, 3, kH, kW}, rng));
      enc.backbone->clear_cache();
    }
    enc.backbone->set_mode(nn::Mode::kEval);
    std::string p = testing::TempDir() + "cq_trace_ckpt.bin";
    models::save_module(p, *enc.backbone);
    return p;
  }();
  return path;
}

TEST(Trace, ServeWorkerSpansMergeIntoSnapshot) {
  serve::EngineConfig cfg;
  cfg.checkpoint = trace_checkpoint();
  cfg.arch = "resnet18";
  cfg.in_channels = 3;
  cfg.in_h = kH;
  cfg.in_w = kW;
  cfg.workers = 2;
  cfg.max_batch = 4;

  TraceSession session;
  serve::Engine engine(cfg);

  Rng rng(5);
  constexpr std::size_t kReqs = 8;
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < kReqs; ++i)
    inputs.push_back(Tensor::uniform(Shape{1, 3, kH, kW}, rng, -1.0f, 1.0f));
  std::vector<serve::Request> reqs(kReqs);
  std::vector<std::vector<float>> outs(
      kReqs,
      std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < kReqs; ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (auto& r : reqs) ASSERT_EQ(r.wait(), serve::Status::kOk);
  engine.stop();  // quiescent point: workers joined before snapshot
  trace::enable(false);

  const auto spans = trace::snapshot();
  std::uint32_t submit_tid = 0;
  std::set<std::uint32_t> forward_tids;
  std::uint64_t forward_spans = 0, batch_widths = 0;
  bool saw_batch_form = false, saw_complete = false;
  for (const auto& s : spans) {
    const std::string name = s.name;
    if (name == "serve.enqueue") submit_tid = s.tid;
    if (name == "serve.batch_form") saw_batch_form = true;
    if (name == "serve.complete") saw_complete = true;
    if (name == "serve.forward") {
      forward_tids.insert(s.tid);
      ++forward_spans;
      ASSERT_GT(s.arg, 0);  // tagged with the micro-batch width
      batch_widths += static_cast<std::uint64_t>(s.arg);
    }
  }
  EXPECT_TRUE(saw_batch_form);
  EXPECT_TRUE(saw_complete);
  ASSERT_GT(forward_spans, 0u);
  // Every request passed through exactly one traced forward.
  EXPECT_EQ(batch_widths, kReqs);
  // Forwards ran on worker threads, not the submitting thread.
  EXPECT_NE(submit_tid, 0u);
  EXPECT_EQ(forward_tids.count(submit_tid), 0u);
}

// ---------------------------------------------------------------------------
// Profiler vs a hand-counted SimCLR toy run: dataset size == batch size and
// epochs == 3 gives exactly one iteration per epoch, so per-phase call
// counts are knowable in advance (vanilla variant: 2 branches/iteration).
// ---------------------------------------------------------------------------

TEST(Prof, CountersMatchHandCountedSimClrToyRun) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "training run too slow under TSan; covered by the "
                  "default/sanitize presets";
#else
  const int kIters = 3;
  auto scfg = data::synth_cifar_config();
  Rng data_rng(scfg.seed);
  const auto ds = data::make_synth_dataset(scfg, 8, data_rng);

  core::PretrainConfig cfg;
  cfg.variant = core::CqVariant::kVanilla;
  cfg.epochs = kIters;
  cfg.batch_size = 8;  // == dataset size -> 1 iteration per epoch
  cfg.lr = 0.01f;
  cfg.warmup_epochs = 0;
  cfg.proj_hidden = 16;
  cfg.proj_dim = 8;

  Rng rng(3);
  auto enc = models::make_encoder("resnet18", rng);
  core::SimClrCqTrainer trainer(enc, cfg);

  TraceSession session;
  prof::reset();
  const auto stats = trainer.train(ds);
  trace::enable(false);
  ASSERT_FALSE(stats.diverged);
  ASSERT_EQ(stats.iterations, kIters);

  EXPECT_EQ(prof_calls("simclr.iteration"), 3u);
  EXPECT_EQ(prof_calls("simclr.augment"), 3u);
  EXPECT_EQ(prof_calls("augment.batch"), 6u);  // two views per iteration
  EXPECT_EQ(prof_calls("simclr.forward"), 6u);  // two branches per iteration
  EXPECT_EQ(prof_calls("simclr.loss"), 3u);
  EXPECT_EQ(prof_calls("simclr.backward"), 3u);
  EXPECT_EQ(prof_calls("simclr.step"), 3u);
  EXPECT_EQ(prof_calls("optim.sgd.step"), 3u);
  // The substrate underneath ran too.
  EXPECT_GT(prof_calls("gemm"), 0u);
  EXPECT_GT(prof_calls("nn.conv.fwd"), 0u);
  EXPECT_GT(prof_calls("kernels.sgd_update"), 0u);

  // The runner embeds the aggregate table in its stats ...
  EXPECT_NE(stats.profile_json.find("\"ops\""), std::string::npos);
  EXPECT_NE(stats.profile_json.find("simclr.iteration"), std::string::npos);
  EXPECT_TRUE(json_balanced(stats.profile_json));

  // ... and the toy run's trace names every training phase.
  const std::string doc = trace_export::chrome_json();
  EXPECT_TRUE(json_balanced(doc));
  for (const char* name :
       {"simclr.iteration", "simclr.augment", "simclr.forward", "simclr.loss",
        "simclr.backward", "simclr.step", "augment.batch", "nn.conv.fwd",
        "nn.conv.bwd", "nn.linear.fwd", "gemm", "gemm.pack_a", "gemm.kernel",
        "im2col", "optim.sgd.step", "kernels.sgd_update"})
    EXPECT_NE(doc.find(std::string("\"name\": \"") + name + "\""),
              std::string::npos)
        << name;
#endif
}

TEST(Prof, ResetZeroesCounters) {
  for (int i = 0; i < 4; ++i) leaf_scope();
  EXPECT_GT(prof_calls("ttrace.leaf"), 0u);
  prof::reset();
  EXPECT_EQ(prof_calls("ttrace.leaf"), 0u);
  EXPECT_TRUE(json_balanced(prof::json()));
}

TEST(Trace, SteadyStateSpanRecordingIsAllocationFree) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes change allocation behavior";
#else
  TraceSession session;
  // Warm: resolve the call-site counter and register this thread's ring.
  for (int i = 0; i < 16; ++i) {
    CQ_TRACE_SCOPE_BYTES("ttrace.steady", 64);
  }
  const auto before = test::heap_allocs();
  for (int i = 0; i < 1000; ++i) {
    CQ_TRACE_SCOPE_BYTES("ttrace.steady", 64);
  }
  const auto after = test::heap_allocs();
  trace::enable(false);
  EXPECT_EQ(after - before, 0u) << "span recording allocated on the heap";
  EXPECT_EQ(trace::span_count(), 1016u);
#endif
}

}  // namespace
}  // namespace cq
