// encode_r18: the serving engine with an int8 ResNet-18, driven by one
// client thread that both generates the load and reaps completions.
//
// Phases (after a short warm-up): closed loop with a fixed window of
// in-flight requests (capacity -> throughput_per_s), open-loop Poisson
// arrivals at a fixed rate (p50_us, timed from each request's scheduled
// send), and a light phase with one request in flight (light_p50_us). Every
// served row is compared bitwise against the same plan's batch-1 forward of
// its input.
#include <cstring>
#include <deque>
#include <memory>
#include <random>

#include "core/prof.hpp"
#include "core/trace.hpp"
#include "data/synth.hpp"
#include "eval/separability.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cq;

namespace {

// Offered rate of the open-loop phase, in requests per second. Fixed (it is
// part of the workload's definition in BENCHMARK.json), at about an eighth
// of the closed-loop capacity on the reference host: nearer capacity, the
// host's slow spells build queues and the median stops repeating
// (README.md, steadiness report).
constexpr double kOpenRate = 1000.0;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kWindow = kWorkers * kMaxBatch;
constexpr auto kMaxWait = std::chrono::microseconds(200);
constexpr std::int64_t kImg = 16;

struct Slot {
  serve::Request req;
  std::vector<float> out;
  std::int64_t input = -1;
  std::uint64_t id = 0;
  Clock::time_point sched;
};

struct PhaseStats {
  PhaseCount count;
  std::vector<double> latency_us;
  std::vector<double> late_us;  // open loop: actual - scheduled send
  double wall_s = 0.0;
  std::uint64_t mismatches = 0;
};

struct Client {
  serve::Engine& engine;
  const std::vector<float>& inputs;  // [pool, 3*16*16]
  const std::vector<float>& refs;    // [pool, feature_dim]
  std::int64_t pool = 0;
  std::int64_t dim = 0;
  std::int64_t sample = 0;
  double inject_delay_us = 0.0;
  bool corrupt = false;  // flip a bit of the next served row before its gate
  bool traced = false;
  std::deque<Slot> slots;
  std::vector<Slot*> free_slots;
  std::uint64_t next_id = 0;

  Client(serve::Engine& e, const std::vector<float>& in,
         const std::vector<float>& rf, std::int64_t pool_size)
      : engine(e), inputs(in), refs(rf), pool(pool_size) {
    dim = engine.feature_dim();
    sample = engine.sample_numel();
  }

  Slot* take() {
    if (free_slots.empty()) {
      slots.emplace_back();
      slots.back().out.resize(static_cast<std::size_t>(dim));
      return &slots.back();
    }
    Slot* s = free_slots.back();
    free_slots.pop_back();
    return s;
  }

  /// The benchmark's call wrapper around Engine::submit. The optional delay
  /// sits inside the wrapper, after the scheduled send time was taken.
  bool submit(Slot* s) {
    if (inject_delay_us > 0.0) spin_for_us(inject_delay_us);
    if (!traced) return engine.submit(&s->req);
    static prof::Counter& c = prof::Counter::get("bench.submit");
    trace::Scope span(c, "bench.submit", static_cast<std::int64_t>(s->id));
    return engine.submit(&s->req);
  }

  /// One phase. rate > 0: open loop (Poisson at `rate`); otherwise closed
  /// loop keeping `window` requests in flight.
  PhaseStats run(const std::string& name, double seconds, double rate,
                 std::size_t window, Rng& rng) {
    PhaseStats ps;
    ps.count.name = name;
    std::mt19937_64 gen(rng.next_u64());
    std::exponential_distribution<double> gap(rate > 0.0 ? rate : 1.0);
    std::uniform_int_distribution<std::int64_t> pick(0, pool - 1);
    if (rate > 0.0)
      ps.latency_us.reserve(static_cast<std::size_t>(rate * seconds * 1.2) + 16);
    std::vector<Slot*> inflight;
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::nanoseconds(
                              static_cast<std::int64_t>(seconds * 1e9));
    auto next = t0 + std::chrono::nanoseconds(
                         static_cast<std::int64_t>(gap(gen) * 1e9));
    auto last_done = t0;
    for (;;) {
      auto now = Clock::now();
      const bool sending = now < end;
      if (!sending && inflight.empty()) break;
      while (sending && (rate > 0.0 ? next <= now : inflight.size() < window)) {
        Slot* s = take();
        s->input = pick(gen);
        s->id = next_id++;
        s->sched = rate > 0.0 ? next : now;
        s->req.reset();
        s->req.input = inputs.data() + s->input * sample;
        s->req.output = s->out.data();
        ++ps.count.attempted;
        const auto before = Clock::now();
        if (rate > 0.0) {
          ps.late_us.push_back(
              std::chrono::duration<double, std::micro>(before - s->sched)
                  .count());
          next += std::chrono::nanoseconds(
              static_cast<std::int64_t>(gap(gen) * 1e9));
        }
        if (submit(s)) {
          inflight.push_back(s);
        } else {
          ++ps.count.failed;
          ps.latency_us.push_back(1e9);  // a refused request misses any limit
          free_slots.push_back(s);
        }
        now = Clock::now();
        if (rate <= 0.0 && now >= end) break;
      }
      for (std::size_t i = 0; i < inflight.size();) {
        Slot* s = inflight[i];
        const serve::Status st = s->req.status();
        if (st == serve::Status::kPending) {
          ++i;
          continue;
        }
        const auto done = Clock::now();
        last_done = done;
        ps.latency_us.push_back(
            std::chrono::duration<double, std::micro>(done - s->sched).count());
        if (traced)
          trace::detail::record(
              "bench.request",
              static_cast<std::uint64_t>(s->sched.time_since_epoch().count()),
              static_cast<std::uint64_t>(done.time_since_epoch().count()),
              static_cast<std::int64_t>(s->id));
        if (st == serve::Status::kOk) {
          ++ps.count.ok;
          if (corrupt) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, s->out.data(), sizeof(bits));
            bits ^= 1u;
            std::memcpy(s->out.data(), &bits, sizeof(bits));
            corrupt = false;
          }
          if (std::memcmp(s->out.data(), refs.data() + s->input * dim,
                          static_cast<std::size_t>(dim) * sizeof(float)) != 0)
            ++ps.mismatches;
        } else {
          ++ps.count.failed;
        }
        inflight[i] = inflight.back();
        inflight.pop_back();
        free_slots.push_back(s);
      }
    }
    ps.wall_s = std::chrono::duration<double>(last_done - t0).count();
    return ps;
  }
};

void gate(const PhaseStats& ps) {
  if (ps.mismatches > 0)
    fail_gate("encode_r18 " + ps.count.name + ": " +
              std::to_string(ps.mismatches) +
              " served rows differ from the batch-1 plan forward");
}

/// Gate one phase and add its ops to the running total.
void tally(PhaseCount& total, const PhaseStats& ps) {
  gate(ps);
  total.attempted += ps.count.attempted;
  total.ok += ps.count.ok;
  total.failed += ps.count.failed;
}

serve::EngineConfig engine_config(const std::string& ckpt) {
  serve::EngineConfig cfg;
  cfg.checkpoint = ckpt;
  cfg.arch = "resnet18";
  cfg.in_h = kImg;
  cfg.in_w = kImg;
  cfg.instance = serve::InstanceKind::kInt8;
  cfg.workers = kWorkers;
  cfg.max_batch = kMaxBatch;
  cfg.max_wait = kMaxWait;
  cfg.queue_capacity = 4096;
  return cfg;
}

}  // namespace

Result run_encode_r18(const Args& args) {
  Result res;
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 11);
  const std::string ckpt = checkpoint(args, "resnet18");

  // Inputs: synthetic images with class labels. The class definitions stay
  // fixed; the seed draws the instances.
  const data::SynthConfig scfg = data::synth_cifar_config();
  const std::int64_t pool = args.tiny ? 64 : 1024;
  Rng data_rng(args.seed * 1000003 + 5);
  const auto ds = data::make_synth_dataset(scfg, pool, data_rng);
  const std::int64_t sample = 3 * kImg * kImg;
  std::vector<float> inputs(static_cast<std::size_t>(pool * sample));
  for (std::int64_t i = 0; i < pool; ++i)
    std::memcpy(inputs.data() + i * sample, ds.images[i].data(),
                static_cast<std::size_t>(sample) * sizeof(float));

  // Oracles: the same plan's batch-1 forward (bitwise gate) and the eager
  // fp32 module forward (recall oracle; shares no code with graph/). The
  // encoder and plan that compute them are freed before the rounds.
  auto enc = load_encoder("resnet18", ckpt);
  const std::int64_t dim = enc.feature_dim;
  std::vector<float> refs(static_cast<std::size_t>(pool * dim));
  std::vector<float> eager(static_cast<std::size_t>(pool * dim));
  auto plan = serve::make_instance(serve::InstanceKind::kInt8, *enc.backbone,
                                   Shape{3, kImg, kImg}, kMaxBatch);
  for (std::int64_t i = 0; i < pool; ++i) {
    Tensor x(Shape{1, 3, kImg, kImg});
    std::memcpy(x.data(), inputs.data() + i * sample,
                static_cast<std::size_t>(sample) * sizeof(float));
    const Tensor& y = plan->forward(x);
    std::memcpy(refs.data() + i * dim, y.data(),
                static_cast<std::size_t>(dim) * sizeof(float));
  }
  plan.reset();
  for (std::int64_t b = 0; b < pool; b += 64) {
    const std::int64_t n = std::min<std::int64_t>(64, pool - b);
    Tensor x(Shape{n, 3, kImg, kImg});
    std::memcpy(x.data(), inputs.data() + b * sample,
                static_cast<std::size_t>(n * sample) * sizeof(float));
    const Tensor y = enc.backbone->forward(x);
    enc.backbone->clear_cache();
    std::memcpy(eager.data() + b * dim, y.data(),
                static_cast<std::size_t>(n * dim) * sizeof(float));
  }
  enc = models::Encoder{};

  const double s = args.seconds;
  const double rate = args.rate > 0.0 ? args.rate : kOpenRate;
  if (!args.trace) {
    // Rounds: each builds a fresh engine (one set-up sample: load, compile
    // per worker, prewarm), then runs closed, open and light phases, so a
    // slow spell of the host lands on every metric alike.
    const int rounds = args.tiny ? 2 : 16;
    const double round_s = s / rounds;
    const double warmup_s = std::min(0.3, 0.02 * s);
    PhaseCount closed{"closed"}, open{"open"}, light{"light"};
    std::vector<double> setup_s, tput, p50, p99, light_p50;
    // The peak resident set covers the rounds alone, one engine at a time.
    reset_peak_rss();
    res.note("rss_before_rounds_mb", rss_mb());
    for (int r = 0; r < rounds; ++r) {
      const auto t0 = Clock::now();
      serve::Engine engine(engine_config(ckpt));
      setup_s.push_back(seconds_since(t0));
      Client client(engine, inputs, refs, pool);
      client.inject_delay_us = args.inject_delay_us;
      client.corrupt = args.corrupt && r == 0;
      gate(client.run("warmup", warmup_s, 0.0, kWindow, rng));
      const PhaseStats c = client.run("closed", 0.3 * round_s, 0.0, kWindow, rng);
      const PhaseStats o = client.run("open", 0.5 * round_s, rate, 0, rng);
      const PhaseStats l = client.run("light", 0.2 * round_s, 0.0, 1, rng);
      engine.stop();
      tally(closed, c);
      tally(open, o);
      tally(light, l);
      tput.push_back(static_cast<double>(c.count.ok) / c.wall_s);
      p50.push_back(percentile(o.latency_us, 50));
      p99.push_back(percentile(o.latency_us, 99));
      light_p50.push_back(percentile(l.latency_us, 50));
    }
    for (const auto& p : {closed, open, light}) res.add_phase(p);
    res.set("peak_rss_mb", peak_rss_mb(), "MB");

    // Quality: top-10 neighbours of the served int8 rows (bitwise equal to
    // `refs`, checked above) against the eager fp32 forward.
    const auto a = cosine_topk(refs.data(), pool, dim, 10);
    const auto b = cosine_topk(eager.data(), pool, dim, 10);
    Tensor feats(Shape{pool, dim});
    std::memcpy(feats.data(), refs.data(), refs.size() * sizeof(float));

    res.set("setup_s", median(setup_s), "s");
    res.set("throughput_per_s", median(tput), "1/s");
    res.set("p50_us", median(p50), "us");
    res.set("light_p50_us", median(light_p50), "us");
    res.note("open_p99_us", median(p99));
    res.set("recall_at_10", set_recall(a, b, 10), "ratio");
    res.set("knn_top1", eval::knn_accuracy(feats, ds.labels, 1) / 100.0,
            "ratio");
    return res;
  }

  // Traced run: on a fresh engine, the open-loop phase untraced (the
  // engine's queue and batch counters then cover it alone), then the closed
  // loop untraced (baseline) and traced (spans, self times, overhead).
  auto engine = std::make_unique<serve::Engine>(engine_config(ckpt));
  Client fresh(*engine, inputs, refs, pool);
  const PhaseStats open = fresh.run("open", 0.35 * s, rate, 0, rng);
  gate(open);
  res.add_phase(open.count);
  const auto st = engine->stats();
  prof::reset();
  const PhaseStats closed = fresh.run("closed", 0.2 * s, 0.0, kWindow, rng);
  gate(closed);
  res.add_phase(closed.count);
  const auto st2 = engine->stats();
  const auto snap = prof::snapshot();
  auto prof_ns = [&](const char* name) {
    for (const auto& c : snap)
      if (c.name == name) return static_cast<double>(c.total_ns);
    return 0.0;
  };
  const double closed_batches = static_cast<double>(st2.batches - st.batches);

  trace::set_ring_capacity(std::size_t{1} << 20);
  trace::reset();
  trace::enable(true);
  fresh.traced = true;
  prof::reset();
  const PhaseStats traced = fresh.run("closed_traced", 0.15 * s, 0.0, kWindow, rng);
  fresh.traced = false;
  trace::enable(false);
  gate(traced);
  res.add_phase(traced.count);
  engine->stop();

  res.set("serve.queue_wait_p50_us", st.queue_latency.percentile(50), "us");
  res.set("serve.queue_wait_p99_us", st.queue_latency.percentile(99), "us");
  res.set("serve.mean_batch", st.mean_batch_size, "count");
  res.set("serve.overhead_us_per_batch",
          (prof_ns("serve.batch_form") + prof_ns("serve.collate") +
           prof_ns("serve.scatter") + prof_ns("serve.complete")) /
              1e3 / std::max(1.0, closed_batches),
          "us");
  res.set("serve.rejected", static_cast<double>(st2.rejected_full), "count");
  res.set("serve.steals", static_cast<double>(st2.stolen), "count");
  res.set("bench.gen_late_p99_us", percentile(open.late_us, 99), "us");
  const double untraced_us =
      kWorkers * closed.wall_s * 1e6 / static_cast<double>(closed.count.ok);
  const double traced_us =
      kWorkers * traced.wall_s * 1e6 / static_cast<double>(traced.count.ok);
  report_self_times(self_times(), {}, untraced_us, traced_us, traced.count.ok,
                    res);
  write_chrome_trace(args);
  return res;
}

}  // namespace perfbench
