// Serving engine: compiled fp32 path, dynamic batching, deadlines,
// backpressure, graceful shutdown, zero-allocation steady state.
//
// The batched-equals-serial assertions are BITWISE (EXPECT_EQ on floats):
// the blocked GEMM accumulates each output element in a k-order independent
// of batch position, per-sample int8 quantization sees only its own image,
// and every other op is per-element or per-plane — so sharing a dynamic
// batch must not perturb anyone's result by even an ulp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graph/executor.hpp"
#include "models/encoder.hpp"
#include "serve/engine.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

constexpr std::int64_t kH = 12, kW = 12;

/// Train-warm a tiny resnet18 (populated BN running stats), checkpoint it
/// once, and share the path across tests.
const std::string& checkpoint_path() {
  static const std::string path = [] {
    Rng rng(7);
    auto enc = models::make_encoder("resnet18", rng);
    enc.backbone->set_mode(nn::Mode::kTrain);
    for (int i = 0; i < 8; ++i) {
      enc.forward(Tensor::uniform(Shape{4, 3, kH, kW}, rng));
      enc.backbone->clear_cache();
    }
    enc.backbone->set_mode(nn::Mode::kEval);
    std::string p = testing::TempDir() + "cq_serve_ckpt.bin";
    models::save_module(p, *enc.backbone);
    return p;
  }();
  return path;
}

/// Fresh encoder loaded from the shared checkpoint (full precision, eval).
models::Encoder load_reference() {
  Rng rng(1);
  auto enc = models::make_encoder("resnet18", rng);
  models::load_module(checkpoint_path(), *enc.backbone);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  return enc;
}

/// The serial reference: the reference encoder compiled into a batch-1 plan,
/// forwarded one request at a time.
graph::CompiledModel serial_plan(models::Encoder& enc,
                                 graph::Precision precision) {
  return graph::compile(*enc.backbone, Shape{3, kH, kW},
                        graph::CompileOptions{1, precision, true});
}

serve::EngineConfig base_config() {
  serve::EngineConfig cfg;
  cfg.checkpoint = checkpoint_path();
  cfg.arch = "resnet18";
  cfg.in_channels = 3;
  cfg.in_h = kH;
  cfg.in_w = kW;
  return cfg;
}

std::vector<Tensor> make_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < n; ++i)
    inputs.push_back(Tensor::uniform(Shape{1, 3, kH, kW}, rng, -1.0f, 1.0f));
  return inputs;
}

TEST(Fp32Compile, MatchesEvalForwardWithinTolerance) {
  auto enc = load_reference();
  Rng rng(11);
  Tensor x = Tensor::uniform(Shape{3, 3, kH, kW}, rng, -1.0f, 1.0f);
  const Tensor want = enc.forward(x);
  auto net = graph::compile(
      *enc.backbone, Shape{3, kH, kW},
      graph::CompileOptions{3, graph::Precision::kF32, true});
  const Tensor& got = net.forward(x);
  ASSERT_TRUE(want.same_shape(got));
  float scale = 1e-6f;
  for (std::int64_t i = 0; i < want.numel(); ++i)
    scale = std::max(scale, std::fabs(want[i]));
  for (std::int64_t i = 0; i < want.numel(); ++i)
    EXPECT_NEAR(want[i], got[i], 1e-3f * scale) << "element " << i;
}

TEST(RequestQueue, FailsFastWhenFull) {
  serve::RequestQueue q(2);
  serve::Request a, b, c;
  EXPECT_TRUE(q.try_push(&a));
  EXPECT_TRUE(q.try_push(&b));
  EXPECT_FALSE(q.try_push(&c));  // full: immediate rejection, no block
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.peak_depth(), 2u);
}

TEST(RequestQueue, PopBatchDrainsThenSignalsClose) {
  serve::RequestQueue q(8);
  serve::Request a, b;
  ASSERT_TRUE(q.try_push(&a));
  ASSERT_TRUE(q.try_push(&b));
  q.close();
  EXPECT_FALSE(q.try_push(&a));  // closed: no new admissions
  std::vector<serve::Request*> out;
  // Already-queued requests still drain after close.
  EXPECT_EQ(q.pop_batch(out, 8, std::chrono::microseconds(0)), 2u);
  EXPECT_EQ(q.pop_batch(out, 8, std::chrono::microseconds(0)), 0u);
}

TEST(RequestQueue, LoneRequestDoesNotLinger) {
  // Nothing is queued behind the only request, so the window cannot fill:
  // pop_batch must hand it back at once instead of waiting out max_wait.
  serve::RequestQueue q(8);
  serve::Request a;
  ASSERT_TRUE(q.try_push(&a));
  std::vector<serve::Request*> out;
  serve::Clock::time_point window_start;
  const auto t0 = serve::Clock::now();
  EXPECT_EQ(q.pop_batch(out, 8, std::chrono::seconds(10), &window_start),
            1u);
  const auto t1 = serve::Clock::now();
  EXPECT_LT(t1 - t0, std::chrono::seconds(1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &a);
  EXPECT_GE(window_start, t0);
  EXPECT_LE(window_start, t1);
  // Without a window_start out-parameter the same rule holds.
  ASSERT_TRUE(q.try_push(&a));
  EXPECT_EQ(q.pop_batch(out, 8, std::chrono::seconds(10)), 1u);
  EXPECT_LT(serve::Clock::now() - t1, std::chrono::seconds(1));
}

TEST(RequestQueue, WindowStillFillsWhenRequestsQueued) {
  // Two requests already queued: the batch has company, so the window
  // stays open and a third request pushed later from another thread joins
  // the same batch.
  serve::RequestQueue q(8);
  serve::Request a, b, c;
  ASSERT_TRUE(q.try_push(&a));
  ASSERT_TRUE(q.try_push(&b));
  std::thread pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(q.try_push(&c));
  });
  std::vector<serve::Request*> out;
  EXPECT_EQ(q.pop_batch(out, 3, std::chrono::seconds(1)), 3u);
  pusher.join();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], &a);
  EXPECT_EQ(out[1], &b);
  EXPECT_EQ(out[2], &c);
}

// Lock-free MPMC RequestQueue: concurrency properties beyond the functional
// cases above — ring laps at a non-power-of-two capacity, many producers and
// consumers, and close() waking a blocked consumer.

TEST(MpmcQueue, FifoOrderAcrossManyLapsOfANonPowerOfTwoRing) {
  // capacity 3 forces the sequence-number lap arithmetic through the
  // pos % capacity (non-power-of-two) path thousands of times.
  serve::RequestQueue q(3);
  std::vector<serve::Request> reqs(3);
  std::vector<serve::Request*> out;
  int next_in = 0, next_out = 0;
  for (int lap = 0; lap < 2000; ++lap) {
    ASSERT_TRUE(q.try_push(&reqs[static_cast<std::size_t>(next_in % 3)]));
    ++next_in;
    if (lap % 3 == 2) {  // drain in bursts so the ring wraps at every phase
      q.drain(out);
      for (serve::Request* r : out) {
        ASSERT_EQ(r, &reqs[static_cast<std::size_t>(next_out % 3)]);
        ++next_out;
      }
    }
  }
  EXPECT_EQ(q.depth(), static_cast<std::size_t>(next_in - next_out));
  EXPECT_EQ(q.peak_depth(), 3u);
}

TEST(MpmcQueue, ConcurrentProducersAndConsumersDeliverEveryRequestOnce) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 2000;
  constexpr int kTotal = kProducers * kPerProducer;
  serve::RequestQueue q(8);  // small ring: constant full/empty contention
  std::vector<serve::Request> reqs(kTotal);
  std::vector<std::atomic<int>> delivered(kTotal);
  for (auto& d : delivered) d.store(0, std::memory_order_relaxed);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        serve::Request* r =
            &reqs[static_cast<std::size_t>(p * kPerProducer + i)];
        while (!q.try_push(r)) std::this_thread::yield();  // ring full
      }
    });
  }
  std::vector<std::thread> consumers;
  std::atomic<int> popped{0};
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<serve::Request*> batch;
      for (;;) {
        const std::size_t n =
            q.pop_batch(batch, 8, std::chrono::microseconds{50});
        if (n == 0) return;  // closed and drained
        for (serve::Request* r : batch) {
          const auto idx = static_cast<std::size_t>(r - reqs.data());
          delivered[idx].fetch_add(1, std::memory_order_relaxed);
        }
        popped.fetch_add(static_cast<int>(n), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load(), kTotal);
  for (int i = 0; i < kTotal; ++i)
    ASSERT_EQ(delivered[static_cast<std::size_t>(i)].load(), 1) << "@" << i;
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_LE(q.peak_depth(), 8u);
  EXPECT_GE(q.peak_depth(), 1u);
}

TEST(MpmcQueue, CloseWakesBlockedConsumerPromptly) {
  serve::RequestQueue q(4);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    std::vector<serve::Request*> batch;
    EXPECT_EQ(q.pop_batch(batch, 8, std::chrono::microseconds{1000}), 0u);
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  q.close();
  consumer.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
}

TEST(LatencyHistogram, PercentilesAndMerge) {
  serve::LatencyHistogram h;
  for (std::uint64_t us = 1; us <= 1000; ++us) h.record(us);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max_micros(), 1000u);
  const double p50 = h.percentile(50.0), p99 = h.percentile(99.0);
  EXPECT_GT(p50, 300.0);   // log buckets: ~19% relative error allowed
  EXPECT_LT(p50, 700.0);
  EXPECT_GT(p99, 800.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_GE(p99, p50);
  serve::LatencyHistogram other;
  other.record(5000);
  h.merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_EQ(h.max_micros(), 5000u);
}

TEST(Engine, ServesCorrectFeaturesBitwise) {
  auto cfg = base_config();
  cfg.workers = 1;
  cfg.max_batch = 4;
  serve::Engine engine(cfg);
  ASSERT_EQ(engine.feature_dim(), 64);

  const auto inputs = make_inputs(6, 13);
  std::vector<serve::Request> reqs(6);
  std::vector<std::vector<float>> outs(
      6, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (auto& r : reqs) EXPECT_EQ(r.wait(), serve::Status::kOk);
  engine.stop();

  // Ground truth: the same compiled fp32 path, one sample at a time.
  auto enc = load_reference();
  auto net = serial_plan(enc, graph::Precision::kF32);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Tensor& want = net.forward(inputs[i]);
    for (std::int64_t c = 0; c < engine.feature_dim(); ++c)
      EXPECT_EQ(outs[i][static_cast<std::size_t>(c)], want.at(0, c))
          << "request " << i << " feature " << c;
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.served, 6u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(Engine, DynamicBatchingCoalescesBursts) {
  auto cfg = base_config();
  cfg.workers = 1;
  cfg.max_batch = 8;
  // Generous window: the whole burst must land in few batches.
  cfg.max_wait = std::chrono::microseconds(200000);
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(8, 14);
  std::vector<serve::Request> reqs(8);
  std::vector<std::vector<float>> outs(
      8, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (auto& r : reqs) EXPECT_EQ(r.wait(), serve::Status::kOk);
  const auto stats = engine.stats();
  engine.stop();

  // The burst was submitted well inside the batching window, so at least
  // one multi-request batch must have formed...
  EXPECT_GE(stats.max_batch_seen, 2u);
  EXPECT_LE(stats.batches, 7u);
  // ...and batching must not have changed a single bit of any result.
  auto enc = load_reference();
  auto net = serial_plan(enc, graph::Precision::kF32);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Tensor& want = net.forward(inputs[i]);
    for (std::int64_t c = 0; c < engine.feature_dim(); ++c)
      EXPECT_EQ(outs[i][static_cast<std::size_t>(c)], want.at(0, c));
  }
}

TEST(Engine, SerialClientDoesNotPayWindow) {
  // One client, one request in flight at a time: every request arrives
  // alone, so none may wait out the (deliberately huge) window. Lingering
  // would cost 10 x 200 ms = 2 s.
  auto cfg = base_config();
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.max_wait = std::chrono::microseconds(200000);
  serve::Engine engine(cfg);

  constexpr std::size_t kRequests = 10;
  const auto inputs = make_inputs(kRequests, 24);
  std::vector<std::vector<float>> outs(
      kRequests,
      std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  const auto t0 = serve::Clock::now();
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::Request r;
    r.input = inputs[i].data();
    r.output = outs[i].data();
    ASSERT_TRUE(engine.submit(&r));
    ASSERT_EQ(r.wait(), serve::Status::kOk);
  }
  const auto elapsed = serve::Clock::now() - t0;
  const auto stats = engine.stats();
  engine.stop();

  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(stats.served, kRequests);
  EXPECT_EQ(stats.max_batch_seen, 1u);
  EXPECT_EQ(stats.window_latency.count(), stats.batches);
  EXPECT_LT(stats.window_latency.max_micros(), 100000u);
  auto enc = load_reference();
  auto net = serial_plan(enc, graph::Precision::kF32);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Tensor& want = net.forward(inputs[i]);
    for (std::int64_t c = 0; c < engine.feature_dim(); ++c)
      EXPECT_EQ(outs[i][static_cast<std::size_t>(c)], want.at(0, c))
          << "request " << i << " feature " << c;
  }
}

TEST(Engine, ExpiredDeadlineTimesOutWithoutForwarding) {
  auto cfg = base_config();
  cfg.workers = 1;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(1, 15);
  std::vector<float> out(static_cast<std::size_t>(engine.feature_dim()),
                         -42.0f);
  serve::Request r;
  r.input = inputs[0].data();
  r.output = out.data();
  r.deadline = serve::Clock::now() - std::chrono::milliseconds(1);
  ASSERT_TRUE(engine.submit(&r));
  EXPECT_EQ(r.wait(), serve::Status::kTimeout);
  engine.stop();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.batches, 0u);  // never reached a model
  for (float v : out) EXPECT_EQ(v, -42.0f);  // output untouched
}

TEST(Engine, BackpressureFailsFastAndShutdownDrains) {
  auto cfg = base_config();
  cfg.workers = 0;  // nothing consumes: the queue saturates deterministically
  cfg.queue_capacity = 4;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(5, 16);
  std::vector<serve::Request> reqs(5);
  std::vector<std::vector<float>> outs(
      5, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < 4; ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    EXPECT_TRUE(engine.submit(&reqs[i]));
  }
  reqs[4].input = inputs[4].data();
  reqs[4].output = outs[4].data();
  EXPECT_FALSE(engine.submit(&reqs[4]));  // full: fail fast, completed
  EXPECT_EQ(reqs[4].status(), serve::Status::kRejectedFull);

  engine.stop();  // accepted-but-unrunnable requests fail with kShutdown
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(reqs[i].wait(), serve::Status::kShutdown);
  reqs[4].reset();
  EXPECT_FALSE(engine.submit(&reqs[4]));  // stopped: no new admissions
  EXPECT_EQ(reqs[4].status(), serve::Status::kShutdown);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected_full, 2u);  // the overflow + the post-stop submit
  EXPECT_EQ(stats.shutdown_failed, 4u);
  EXPECT_EQ(stats.queue_peak_depth, 4u);
}

// Steady-state serving never touches the heap, at either precision, from
// one client or from a burst of several client threads. Each client thread
// submits `windows` windows of `window` requests, reaping each window
// before the next; the 4-thread case is 32 requests in flight at once
// against max_batch 4.
TEST(Engine, ZeroAllocSteadyState) {
  struct Load {
    std::size_t clients, window, windows;
  };
  for (auto kind : {serve::InstanceKind::kFp32, serve::InstanceKind::kInt8})
    for (const Load load : {Load{1, 4, 5}, Load{4, 8, 1}}) {
      SCOPED_TRACE(std::string(serve::instance_kind_name(kind)) + ", " +
                   std::to_string(load.clients) + " client thread(s)");
      auto cfg = base_config();
      cfg.workers = 1;
      cfg.instance = kind;
      cfg.max_batch = 4;
      serve::Engine engine(cfg);

      const auto inputs = make_inputs(load.clients * load.window, 17);
      const auto dim = static_cast<std::size_t>(engine.feature_dim());
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < load.clients; ++c)
        threads.emplace_back([&, c] {
          std::vector<float> outs(load.window * dim);
          for (std::size_t w = 0; w < load.windows; ++w) {
            std::vector<serve::Request> reqs(load.window);
            for (std::size_t i = 0; i < reqs.size(); ++i) {
              reqs[i].input = inputs[c * load.window + i].data();
              reqs[i].output = outs.data() + i * dim;
              EXPECT_TRUE(engine.submit(&reqs[i]));
            }
            for (auto& r : reqs) EXPECT_EQ(r.wait(), serve::Status::kOk);
          }
        });
      for (auto& t : threads) t.join();
      engine.stop();

      const auto stats = engine.stats();
      EXPECT_EQ(stats.served, load.clients * load.window * load.windows);
      // Prewarm paid for every buffer; serving itself must never hit the
      // heap.
      EXPECT_GT(stats.warmup_heap_allocs, 0u);
      EXPECT_EQ(stats.steady_heap_allocs, 0u);
    }
}

// Regression for the prewarm rework: the compiled plan's arena is sized at
// max_batch, so warming ONLY at max_batch must leave every narrower width
// allocation-free too — bursts of widths 1..max_batch all run inside the
// same arena, with the output and collate tensors shrinking in place.
TEST(Engine, ZeroAllocSteadyStateAcrossWidths) {
  auto cfg = base_config();
  cfg.workers = 1;
  cfg.max_batch = 4;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(4, 19);
  std::vector<std::vector<float>> outs(
      4, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  std::uint64_t expected = 0;
  for (int burst = 0; burst < 3; ++burst)
    for (std::size_t width = 1; width <= 4; ++width) {
      std::vector<serve::Request> reqs(width);
      for (std::size_t i = 0; i < width; ++i) {
        reqs[i].input = inputs[i].data();
        reqs[i].output = outs[i].data();
        ASSERT_TRUE(engine.submit(&reqs[i]));
      }
      for (auto& r : reqs) ASSERT_EQ(r.wait(), serve::Status::kOk);
      expected += width;
    }
  engine.stop();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.served, expected);
  EXPECT_GT(stats.warmup_heap_allocs, 0u);
  EXPECT_EQ(stats.steady_heap_allocs, 0u)
      << "a narrower-than-max batch re-grew scratch after prewarm";
}

TEST(Engine, Int8InstanceServesBitwiseEqualToSingleSample) {
  auto cfg = base_config();
  cfg.workers = 1;
  cfg.instance = serve::InstanceKind::kInt8;
  cfg.max_batch = 4;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(4, 18);
  std::vector<serve::Request> reqs(4);
  std::vector<std::vector<float>> outs(
      4, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (auto& r : reqs) EXPECT_EQ(r.wait(), serve::Status::kOk);
  engine.stop();

  auto enc = load_reference();
  auto net = serial_plan(enc, graph::Precision::kInt8);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Tensor& want = net.forward(inputs[i]);
    for (std::int64_t c = 0; c < engine.feature_dim(); ++c)
      EXPECT_EQ(outs[i][static_cast<std::size_t>(c)], want.at(0, c))
          << "request " << i << " feature " << c;
  }
}

TEST(Engine, Int8BatchedBitwiseEqualsSerialAcrossWidths) {
  // The int8 GEMM path accumulates each output element in int32 over the
  // full k independently of batch position, and activation scales are
  // per-sample — so every batch width from 1 to max_batch must reproduce
  // the serial results exactly, bit for bit.
  constexpr std::int64_t kMaxBatch = 8;
  auto enc = load_reference();
  auto serial_net = serial_plan(enc, graph::Precision::kInt8);
  auto net = graph::compile(
      *enc.backbone, Shape{3, kH, kW},
      graph::CompileOptions{kMaxBatch, graph::Precision::kInt8, true});
  const auto inputs = make_inputs(kMaxBatch, 21);
  std::vector<Tensor> serial;
  for (const auto& in : inputs) serial.push_back(serial_net.forward(in));
  const auto per = inputs[0].numel();
  for (std::int64_t width = 1; width <= kMaxBatch; ++width) {
    Tensor batch(Shape{width, 3, kH, kW});
    for (std::int64_t i = 0; i < width; ++i)
      std::memcpy(batch.data() + i * per,
                  inputs[static_cast<std::size_t>(i)].data(),
                  static_cast<std::size_t>(per) * sizeof(float));
    const Tensor& got = net.forward(batch);
    ASSERT_EQ(got.dim(0), width);
    for (std::int64_t i = 0; i < width; ++i)
      for (std::int64_t c = 0; c < got.dim(1); ++c)
        EXPECT_EQ(got.at(i, c), serial[static_cast<std::size_t>(i)].at(0, c))
            << "width " << width << " sample " << i << " feature " << c;
  }
}

TEST(Engine, Int8DeadlineUnderLoad) {
  // A request whose deadline has already expired must time out without ever
  // reaching the int8 model — its output untouched — while the live
  // requests sharing the queue are served bitwise-correctly.
  auto cfg = base_config();
  cfg.workers = 1;
  cfg.instance = serve::InstanceKind::kInt8;
  cfg.max_batch = 4;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(7, 22);
  std::vector<serve::Request> reqs(7);
  std::vector<std::vector<float>> outs(
      7, std::vector<float>(static_cast<std::size_t>(engine.feature_dim()),
                            -42.0f));
  const std::size_t kExpired = 3;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    if (i == kExpired)
      reqs[i].deadline = serve::Clock::now() - std::chrono::milliseconds(1);
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i)
    EXPECT_EQ(reqs[i].wait(), i == kExpired ? serve::Status::kTimeout
                                            : serve::Status::kOk);
  engine.stop();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.served, 6u);
  for (float v : outs[kExpired]) EXPECT_EQ(v, -42.0f);  // never forwarded

  auto enc = load_reference();
  auto net = serial_plan(enc, graph::Precision::kInt8);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i == kExpired) continue;
    const Tensor& want = net.forward(inputs[i]);
    for (std::int64_t c = 0; c < engine.feature_dim(); ++c)
      EXPECT_EQ(outs[i][static_cast<std::size_t>(c)], want.at(0, c))
          << "request " << i << " feature " << c;
  }
}

TEST(Engine, MultiWorkerServesEveryRequestCorrectly) {
  auto cfg = base_config();
  cfg.workers = 2;
  cfg.max_batch = 4;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(12, 19);
  std::vector<serve::Request> reqs(12);
  std::vector<std::vector<float>> outs(
      12, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (auto& r : reqs) EXPECT_EQ(r.wait(), serve::Status::kOk);
  engine.stop();

  auto enc = load_reference();
  auto net = serial_plan(enc, graph::Precision::kF32);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Tensor& want = net.forward(inputs[i]);
    for (std::int64_t c = 0; c < engine.feature_dim(); ++c)
      EXPECT_EQ(outs[i][static_cast<std::size_t>(c)], want.at(0, c))
          << "request " << i;
  }
  EXPECT_EQ(engine.stats().served, 12u);
}

TEST(Engine, PerWorkerStatsAccountForEveryRequestAndBatch) {
  auto cfg = base_config();
  cfg.workers = 2;
  cfg.max_batch = 4;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(16, 23);
  std::vector<serve::Request> reqs(16);
  std::vector<std::vector<float>> outs(
      16, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (auto& r : reqs) ASSERT_EQ(r.wait(), serve::Status::kOk);
  engine.stop();

  const auto stats = engine.stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  std::uint64_t served = 0, batches = 0;
  for (const serve::WorkerSnapshot& w : stats.workers) {
    served += w.served;
    batches += w.batches;
    // The batch-size histogram is the per-worker batch ledger: bucket
    // counts sum to the worker's batches, and size-weighted they sum to
    // its served requests.
    std::uint64_t hist_batches = 0, hist_served = 0;
    for (std::size_t b = 0; b < serve::kBatchHistBuckets; ++b) {
      hist_batches += w.batch_hist[b];
      hist_served += w.batch_hist[b] * (b + 1);
      if (b + 1 > cfg.max_batch) {
        EXPECT_EQ(w.batch_hist[b], 0u);
      }
    }
    EXPECT_EQ(hist_batches, w.batches);
    EXPECT_EQ(hist_served, w.served);
    if (w.batches > 0) {
      EXPECT_GT(w.mean_batch_size, 0.0);
    }
  }
  EXPECT_EQ(served, 16u);
  EXPECT_EQ(served, stats.served);
  EXPECT_EQ(batches, stats.batches);
  // Engine-level histogram is the merge of the per-worker ones.
  std::uint64_t merged = 0;
  for (std::size_t b = 0; b < serve::kBatchHistBuckets; ++b)
    merged += stats.batch_hist[b];
  EXPECT_EQ(merged, stats.batches);
  // One window sample per dispatched batch.
  EXPECT_EQ(stats.window_latency.count(), stats.batches);
  // Both workers drained the one shared queue.
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.queue_peak_depth, 1u);
}

// stop() lands while four client threads are still submitting into the
// queue that two workers share. Every request must reach exactly one
// terminal status: served (bitwise equal to the serial plan), rejected at
// admission (queue full, or engine stopping), or accepted and then failed
// kShutdown. Each client keeps a window of requests in flight and ends
// only when a submit is refused with kShutdown, so the stop is always
// mid-traffic.
TEST(Engine, StopMidTrafficCompletesEveryRequestOnce) {
  constexpr std::size_t kClients = 4, kWindow = 4;
  auto cfg = base_config();
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.queue_capacity = 8;  // 16 in flight against 8 cells: some shed
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(kClients * kWindow, 25);
  const auto dim = static_cast<std::size_t>(engine.feature_dim());
  std::vector<std::vector<float>> want;
  auto enc = load_reference();
  auto net = serial_plan(enc, graph::Precision::kF32);
  for (const Tensor& in : inputs) {
    const Tensor& f = net.forward(in);
    want.emplace_back(f.data(), f.data() + dim);
  }

  // Terminal statuses seen by the clients, indexed by serve::Status.
  std::array<std::atomic<std::uint64_t>, 5> seen{};
  std::atomic<std::uint64_t> wrong_rows{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      std::vector<serve::Request> slots(kWindow);
      std::vector<float> outs(kWindow * dim);
      const auto reap = [&](std::size_t j) {
        const serve::Status s = slots[j].wait();
        ++seen[static_cast<std::size_t>(s)];
        if (s == serve::Status::kOk &&
            std::memcmp(outs.data() + j * dim, want[c * kWindow + j].data(),
                        dim * sizeof(float)) != 0)
          ++wrong_rows;
      };
      std::size_t submits = 0;
      for (bool refused = false; !refused; ++submits) {
        const std::size_t j = submits % kWindow;
        if (submits >= kWindow) reap(j);
        slots[j].reset();
        slots[j].input = inputs[c * kWindow + j].data();
        slots[j].output = outs.data() + j * dim;
        std::fill_n(slots[j].output, dim, std::nanf(""));
        refused = !engine.submit(&slots[j]) &&
                  slots[j].status() == serve::Status::kShutdown;
      }
      // The refused slot is already complete; reap every submitted slot.
      for (std::size_t j = 0; j < std::min(submits, kWindow); ++j) reap(j);
    });

  while (engine.stats().served < 16)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.stop();
  for (auto& t : clients) t.join();

  const auto count = [&](serve::Status s) {
    return seen[static_cast<std::size_t>(s)].load();
  };
  EXPECT_EQ(count(serve::Status::kTimeout), 0u);
  EXPECT_EQ(wrong_rows.load(), 0u);
  const auto stats = engine.stats();
  EXPECT_GE(stats.served, 16u);
  EXPECT_EQ(stats.served, count(serve::Status::kOk));
  EXPECT_EQ(stats.submitted,
            stats.served + stats.timed_out + stats.shutdown_failed);
  // rejected_full counts every refused submit, the stopping ones included.
  EXPECT_EQ(stats.rejected_full + stats.shutdown_failed,
            count(serve::Status::kRejectedFull) +
                count(serve::Status::kShutdown));
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Engine, StatsJsonIsWellFormed) {
  auto cfg = base_config();
  cfg.workers = 1;
  serve::Engine engine(cfg);

  const auto inputs = make_inputs(2, 20);
  std::vector<serve::Request> reqs(2);
  std::vector<std::vector<float>> outs(
      2, std::vector<float>(static_cast<std::size_t>(engine.feature_dim())));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].input = inputs[i].data();
    reqs[i].output = outs[i].data();
    ASSERT_TRUE(engine.submit(&reqs[i]));
  }
  for (auto& r : reqs) EXPECT_EQ(r.wait(), serve::Status::kOk);
  engine.stop();

  const std::string json = engine.stats_json();
  std::int64_t depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  for (const char* key :
       {"\"submitted\"", "\"served\"", "\"throughput_rps\"",
        "\"queue_latency\"", "\"total_latency\"", "\"p50_us\"", "\"p99_us\"",
        "\"steady_heap_allocs\"", "\"mean_batch_size\"", "\"batch_hist\"",
        "\"workers\"", "\"window_latency\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  const auto stats = engine.stats();
  EXPECT_EQ(stats.window_latency.count(), stats.batches);
  EXPECT_NE(json.find("\"window_latency\": {\"count\": " +
                      std::to_string(stats.batches)),
            std::string::npos);
}

TEST(Engine, RejectsCorruptCheckpoint) {
  auto cfg = base_config();
  cfg.checkpoint = testing::TempDir() + "cq_serve_missing.bin";
  EXPECT_THROW(serve::Engine engine(cfg), CheckError);
}

}  // namespace
}  // namespace cq
