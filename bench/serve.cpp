// Closed-loop load generator for the serving engine: dynamic micro-batching
// vs a batch-1 serial baseline, fp32 and int8 instances.
//
// Protocol per instance kind:
//  1. Equivalence gate (before any timing): a batched compiled forward must
//     be BITWISE equal to per-sample forwards. A single mismatched bit
//     aborts the bench — a throughput number for a wrong answer is noise.
//  2. Serial baseline: Engine with max_batch=1 under N closed-loop clients
//     (each submits, waits, repeats).
//  3. Batched: same engine configuration except max_batch/max_wait let the
//     worker coalesce the concurrent clients into micro-batches.
//
// The headline is batched/serial throughput; the engine must hold
// equal-or-better p99 while doing it (on one core the win comes from
// amortizing GEMM weight packing and per-call overhead across the batch,
// not from parallelism). After the per-kind headline, a scale-out section
// sweeps worker counts (sharded queues + work stealing) into a load matrix
// (clients x workers x batch caps), a gated scaling curve with
// scaling_efficiency normalized by min(workers, cores), and a burst-spike
// p99. `--json=PATH` writes BENCH_serve.json;
// `--smoke` runs the equivalence gates plus a short burst (CI, TSan);
// `--trace=PATH` enables the scoped-span tracer and writes a
// chrome://tracing document covering the whole load (worker threads show as
// separate tids; forward/collate spans carry the batch width under args.n).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "models/encoder.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

using namespace cq;

namespace {

// Thumbnail-sized inputs: the deep stages then run one or two output pixels
// per image, which is exactly where batch-1 serving is dominated by
// per-GEMM-call weight packing — the cost dynamic batching amortizes.
constexpr std::int64_t kH = 8, kW = 8;

// Load shape: kClients windowed closed-loop clients, and kRounds alternating
// serial/batched measurement rounds per instance kind. The host is a shared
// box, so interference is strictly additive noise; the best round per mode is
// the closest estimate of the uncontended machine, and alternating rounds
// keeps slow drift from biasing one mode.
constexpr std::size_t kClients = 8;
constexpr int kRounds = 3;

std::string make_checkpoint() {
  Rng rng(7);
  auto enc = models::make_encoder("resnet18", rng);
  enc.backbone->set_mode(nn::Mode::kTrain);
  for (int i = 0; i < 10; ++i) {
    enc.forward(Tensor::uniform(Shape{4, 3, kH, kW}, rng));
    enc.backbone->clear_cache();
  }
  enc.backbone->set_mode(nn::Mode::kEval);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cq_bench_serve_ckpt.bin")
          .string();
  models::save_module(path, *enc.backbone);
  return path;
}

models::Encoder load_encoder(const std::string& checkpoint) {
  Rng rng(1);
  auto enc = models::make_encoder("resnet18", rng);
  models::load_module(checkpoint, *enc.backbone);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  return enc;
}

std::vector<Tensor> make_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(Tensor::uniform(Shape{1, 3, kH, kW}, rng, -1.0f, 1.0f));
  return v;
}

Tensor collate(const std::vector<Tensor>& inputs) {
  const auto n = static_cast<std::int64_t>(inputs.size());
  const auto per = inputs[0].numel();
  Tensor batch(Shape{n, 3, kH, kW});
  for (std::int64_t i = 0; i < n; ++i)
    std::memcpy(batch.data() + i * per, inputs[static_cast<std::size_t>(i)].data(),
                static_cast<std::size_t>(per) * sizeof(float));
  return batch;
}

/// Bitwise batched-vs-serial gate for one instance kind. Returns true when
/// every feature of every sample matches exactly.
bool equivalence_gate(const std::string& checkpoint, serve::InstanceKind kind) {
  auto enc = load_encoder(checkpoint);
  auto instance =
      serve::make_instance(kind, *enc.backbone, Shape{3, kH, kW}, 8);
  const auto inputs = make_inputs(8, 21);
  const Tensor batch = collate(inputs);
  Tensor batched = instance->forward(batch);  // copy: scratch is reused below
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor& single = instance->forward(inputs[i]);
    for (std::int64_t c = 0; c < single.dim(1); ++c)
      if (batched.at(static_cast<std::int64_t>(i), c) != single.at(0, c))
        ++mismatches;
  }
  if (mismatches > 0)
    std::fprintf(stderr, "EQUIVALENCE FAILURE (%s): %llu mismatched values\n",
                 serve::instance_kind_name(kind),
                 static_cast<unsigned long long>(mismatches));
  return mismatches == 0;
}

struct LoadResult {
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  std::uint64_t served = 0;
  std::uint64_t stolen = 0;
  std::uint64_t steady_heap_allocs = 0;
};

/// Closed-loop load with windowed clients: each of `clients` threads keeps
/// `kWindow` requests outstanding (submit the window, then reap it),
/// `per_client` windows each. Both the serial and batched engines face the
/// identical client program. Throughput is measured over the load window
/// only (engine construction/prewarm excluded).
constexpr int kWindow = 8;

LoadResult run_load(const serve::EngineConfig& cfg, std::size_t clients,
                    int per_client) {
  serve::Engine engine(cfg);
  const auto inputs = make_inputs(clients, 33);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto dim = static_cast<std::size_t>(engine.feature_dim());
      std::vector<float> out(dim * kWindow);
      std::vector<serve::Request> window(kWindow);
      for (int i = 0; i < per_client; ++i) {
        for (int s = 0; s < kWindow; ++s) {
          serve::Request& r = window[static_cast<std::size_t>(s)];
          r.reset();
          r.input = inputs[c].data();
          r.output = out.data() + static_cast<std::size_t>(s) * dim;
          while (!engine.submit(&r))  // backpressure: retry after yielding
            std::this_thread::yield();
        }
        for (auto& r : window) r.wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto stats = engine.stats();
  engine.stop();

  LoadResult r;
  r.served = stats.served;
  r.rps = seconds > 0.0 ? static_cast<double>(stats.served) / seconds : 0.0;
  r.p50_us = stats.total_latency.percentile(50.0);
  r.p99_us = stats.total_latency.percentile(99.0);
  r.mean_batch = stats.mean_batch_size;
  r.stolen = stats.stolen;
  r.steady_heap_allocs = stats.steady_heap_allocs;
  return r;
}

// Best-per-METRIC selection across rounds, not best-round: on a shared
// host, the round with the best throughput is not necessarily the round
// with the clean tail — p99 under closed-loop saturation is the noisiest
// number here, and taking its own minimum keeps the checked-in baseline
// (and the CI gate comparing against it) near the uncontended machine.
void merge_best(LoadResult& best, const LoadResult& r, bool first) {
  if (first || r.rps > best.rps) {
    const double p50 = best.p50_us, p99 = best.p99_us;
    best = r;
    if (!first) {
      best.p50_us = std::min(p50, r.p50_us);
      best.p99_us = std::min(p99, r.p99_us);
    }
  } else {
    best.p50_us = std::min(best.p50_us, r.p50_us);
    best.p99_us = std::min(best.p99_us, r.p99_us);
  }
}

struct KindResult {
  const char* kind;
  bool equivalent = false;
  LoadResult serial, batched;
  double speedup = 0.0;
};

KindResult bench_kind(const std::string& checkpoint, serve::InstanceKind kind,
                      std::size_t clients, int per_client) {
  KindResult res;
  res.kind = serve::instance_kind_name(kind);
  res.equivalent = equivalence_gate(checkpoint, kind);
  if (!res.equivalent) return res;

  serve::EngineConfig cfg;
  cfg.checkpoint = checkpoint;
  cfg.in_h = kH;
  cfg.in_w = kW;
  cfg.instance = kind;
  cfg.workers = 1;  // single-core box: batching, not parallelism
  cfg.queue_capacity = 256;

  serve::EngineConfig serial_cfg = cfg;
  serial_cfg.max_batch = 1;  // serial baseline: every request its own forward
  serial_cfg.max_wait = std::chrono::microseconds(0);
  serve::EngineConfig batched_cfg = cfg;
  batched_cfg.max_batch = 32;
  batched_cfg.max_wait = std::chrono::microseconds(2000);

  for (int round = 0; round < kRounds; ++round) {
    merge_best(res.serial, run_load(serial_cfg, clients, per_client),
               round == 0);
    merge_best(res.batched, run_load(batched_cfg, clients, per_client),
               round == 0);
  }

  res.speedup = res.serial.rps > 0.0 ? res.batched.rps / res.serial.rps : 0.0;
  std::printf(
      "%-5s serial %7.0f rps (p99 %7.0f us) | batched %7.0f rps "
      "(p99 %7.0f us, mean batch %.1f) | speedup %.2fx | steady allocs %llu\n",
      res.kind, res.serial.rps, res.serial.p99_us, res.batched.rps,
      res.batched.p99_us, res.batched.mean_batch, res.speedup,
      static_cast<unsigned long long>(res.batched.steady_heap_allocs));
  return res;
}

// ---------------------------------------------------------------------------
// Scale-out: load matrix + scaling curve over worker counts. The serving
// layer shards its lock-free queue per worker and steals across shards;
// these runs measure what that buys as workers grow.
// ---------------------------------------------------------------------------

// Worker counts swept; the largest is the "max workers" headline. On a
// single-core host extra workers cannot add throughput, so the gated
// summary normalizes: scaling_efficiency = (rps_max_w / rps_1w) /
// min(workers_max, cores). Healthy scale-out sits near 1.0 on a multi-core
// host; on one core it lands below 1.0 because splitting a single core's
// request stream across N shards fragments the micro-batches (mean batch
// 32 -> 32/N) and gives back some amortization — the gate pins that cost
// so sharding overhead cannot silently grow.
constexpr std::size_t kWorkerSweep[] = {1, 2, 4};

serve::EngineConfig scale_config(const std::string& checkpoint,
                                 std::size_t workers, std::size_t max_batch) {
  serve::EngineConfig cfg;
  cfg.checkpoint = checkpoint;
  cfg.in_h = kH;
  cfg.in_w = kW;
  cfg.instance = serve::InstanceKind::kInt8;  // the compute path's headline
  cfg.workers = workers;
  cfg.queue_capacity = 256;
  cfg.max_batch = max_batch;
  cfg.max_wait = std::chrono::microseconds(max_batch > 1 ? 2000 : 0);
  return cfg;
}

struct MatrixCell {
  std::size_t workers = 0;
  std::size_t clients = 0;
  std::size_t max_batch = 0;
  LoadResult load;
};

/// Load matrix: clients x workers x batch caps, one round per cell. The
/// cells chart the response surface (and exercise the steal path: few
/// clients + many workers leaves shards empty); the CI-gated numbers come
/// from the best-of-rounds scaling sweep below, not from here.
std::vector<MatrixCell> run_matrix(const std::string& checkpoint) {
  std::vector<MatrixCell> cells;
  for (std::size_t workers : kWorkerSweep)
    for (std::size_t clients : {std::size_t{2}, std::size_t{8}})
      for (std::size_t mb : {std::size_t{1}, std::size_t{32}}) {
        MatrixCell cell;
        cell.workers = workers;
        cell.clients = clients;
        cell.max_batch = mb;
        cell.load = run_load(scale_config(checkpoint, workers, mb), clients,
                             /*per_client=*/4);
        std::printf(
            "matrix w=%zu c=%zu mb=%-2zu | %7.0f rps  p99 %7.0f us  "
            "mean batch %4.1f  stolen %llu\n",
            workers, clients, mb, cell.load.rps, cell.load.p99_us,
            cell.load.mean_batch,
            static_cast<unsigned long long>(cell.load.stolen));
        cells.push_back(cell);
      }
  return cells;
}

struct ScalePoint {
  std::size_t workers = 0;
  LoadResult load;
};

struct ScalingResult {
  std::vector<ScalePoint> curve;
  std::size_t workers_max = 0;
  double rps_1w = 0.0;
  double rps_max_w = 0.0;
  double efficiency = 0.0;    // (rps_max_w / rps_1w) / min(workers_max, cores)
  double spike_p99_us = 0.0;  // p99 under a one-shot burst at max workers
};

/// One-shot burst: submit `burst` requests back-to-back from a single
/// thread (yield-retry on backpressure), then wait for all of them. The
/// returned p99 of total request latency is the tail of a queue-depth
/// spike — the number the sharded queues + stealing must keep bounded.
double run_spike(const serve::EngineConfig& cfg, std::size_t burst) {
  serve::Engine engine(cfg);
  const auto inputs = make_inputs(8, 55);
  const auto dim = static_cast<std::size_t>(engine.feature_dim());
  std::vector<float> out(dim * burst);
  std::vector<serve::Request> reqs(burst);
  for (std::size_t i = 0; i < burst; ++i) {
    serve::Request& r = reqs[i];
    r.input = inputs[i % inputs.size()].data();
    r.output = out.data() + i * dim;
    while (!engine.submit(&r)) std::this_thread::yield();
  }
  for (auto& r : reqs) r.wait();
  const auto stats = engine.stats();
  engine.stop();
  return stats.total_latency.percentile(99.0);
}

ScalingResult run_scaling(const std::string& checkpoint) {
  ScalingResult res;
  for (std::size_t workers : kWorkerSweep) {
    ScalePoint pt;
    pt.workers = workers;
    const auto cfg = scale_config(checkpoint, workers, 32);
    for (int round = 0; round < kRounds; ++round)
      merge_best(pt.load, run_load(cfg, kClients, /*per_client=*/12),
                 round == 0);
    std::printf("scale  w=%zu | %7.0f rps  p99 %7.0f us  stolen %llu\n",
                workers, pt.load.rps, pt.load.p99_us,
                static_cast<unsigned long long>(pt.load.stolen));
    res.curve.push_back(pt);
  }
  res.workers_max = res.curve.back().workers;
  res.rps_1w = res.curve.front().load.rps;
  res.rps_max_w = res.curve.back().load.rps;
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  const auto ideal = static_cast<double>(
      std::min<std::size_t>(res.workers_max, cores));
  res.efficiency =
      res.rps_1w > 0.0 ? (res.rps_max_w / res.rps_1w) / ideal : 0.0;

  const auto spike_cfg = scale_config(checkpoint, res.workers_max, 32);
  for (int round = 0; round < kRounds; ++round) {
    const double p99 = run_spike(spike_cfg, /*burst=*/192);
    res.spike_p99_us = round == 0 ? p99 : std::min(res.spike_p99_us, p99);
  }
  std::printf("scale  efficiency %.2f (x%.2f over %zu workers, %zu cores) | "
              "spike p99 %7.0f us\n",
              res.efficiency,
              res.rps_1w > 0.0 ? res.rps_max_w / res.rps_1w : 0.0,
              res.workers_max, cores, res.spike_p99_us);
  return res;
}

void write_json(const std::string& path, const KindResult& fp32,
                const KindResult& int8, const ScalingResult& scaling,
                const std::vector<MatrixCell>& matrix) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  auto emit = [f](const KindResult& r, const char* trailing) {
    std::fprintf(
        f,
        "  \"%s\": {\"bitwise_equivalent\": %s, "
        "\"serial\": {\"rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"served\": %llu}, "
        "\"batched\": {\"rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"served\": %llu, \"mean_batch\": %.2f, \"steady_heap_allocs\": "
        "%llu}, \"speedup\": %.2f}%s\n",
        r.kind, r.equivalent ? "true" : "false", r.serial.rps, r.serial.p50_us,
        r.serial.p99_us, static_cast<unsigned long long>(r.serial.served),
        r.batched.rps, r.batched.p50_us, r.batched.p99_us,
        static_cast<unsigned long long>(r.batched.served), r.batched.mean_batch,
        static_cast<unsigned long long>(r.batched.steady_heap_allocs),
        r.speedup, trailing);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve\",\n");
  std::fprintf(f,
               "  \"regenerate\": \"build/bench/serve "
               "--json=BENCH_serve.json\",\n");
  std::fprintf(f,
               "  \"setup\": {\"arch\": \"resnet18\", \"input\": "
               "\"3x%lldx%lld\", \"workers\": 1, \"clients\": %llu, "
               "\"client_window\": %d, \"max_batch\": 32, "
               "\"max_wait_us\": 2000, \"rounds\": %d, \"selection\": "
               "\"best value per metric across rounds (throughput round for "
               "rps, min latency), rounds alternated — shared-host "
               "interference is additive\", \"note\": "
               "\"single-core host: speedup comes from batched GEMM "
               "amortization, not thread parallelism\"},\n",
               static_cast<long long>(kH), static_cast<long long>(kW),
               static_cast<unsigned long long>(kClients), kWindow, kRounds);
  // The host this baseline was generated on: the scaling numbers only mean
  // anything next to the core count, and CI compares like against like.
  std::fprintf(f,
               "  \"hardware\": {\"cores\": %u, \"cq_threads\": %llu},\n",
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(core::configured_threads()));
  emit(fp32, ",");
  emit(int8, ",");
  std::fprintf(f, "  \"load_matrix\": [\n");
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const MatrixCell& c = matrix[i];
    std::fprintf(
        f,
        "    {\"workers\": %llu, \"clients\": %llu, \"max_batch\": %llu, "
        "\"rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"mean_batch\": %.2f, \"served\": %llu, \"stolen\": %llu}%s\n",
        static_cast<unsigned long long>(c.workers),
        static_cast<unsigned long long>(c.clients),
        static_cast<unsigned long long>(c.max_batch), c.load.rps,
        c.load.p50_us, c.load.p99_us, c.load.mean_batch,
        static_cast<unsigned long long>(c.load.served),
        static_cast<unsigned long long>(c.load.stolen),
        i + 1 < matrix.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scaling\": {\"curve\": [\n");
  for (std::size_t i = 0; i < scaling.curve.size(); ++i) {
    const ScalePoint& pt = scaling.curve[i];
    std::fprintf(f,
                 "    {\"workers\": %llu, \"rps\": %.1f, \"p99_us\": %.1f, "
                 "\"mean_batch\": %.2f, \"stolen\": %llu}%s\n",
                 static_cast<unsigned long long>(pt.workers), pt.load.rps,
                 pt.load.p99_us, pt.load.mean_batch,
                 static_cast<unsigned long long>(pt.load.stolen),
                 i + 1 < scaling.curve.size() ? "," : "");
  }
  std::fprintf(f,
               "  ], \"workers_max\": %llu, \"rps_1w\": %.1f, "
               "\"rps_max_w\": %.1f, \"scaling_efficiency\": %.3f, "
               "\"spike_p99_us\": %.1f},\n",
               static_cast<unsigned long long>(scaling.workers_max),
               scaling.rps_1w, scaling.rps_max_w, scaling.efficiency,
               scaling.spike_p99_us);
  // Aggregate profiler table, cumulative over both kinds and all rounds:
  // per-phase serve-pipeline and kernel wall time.
  std::fprintf(f, "  \"profile\": %s\n", prof::json().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int smoke(const std::string& checkpoint) {
  if (!equivalence_gate(checkpoint, serve::InstanceKind::kFp32)) return 1;
  if (!equivalence_gate(checkpoint, serve::InstanceKind::kInt8)) return 1;
  serve::EngineConfig cfg;
  cfg.checkpoint = checkpoint;
  cfg.in_h = kH;
  cfg.in_w = kW;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.max_wait = std::chrono::microseconds(1000);
  const auto r = run_load(cfg, 4, 1);
  if (r.served != 32 || r.steady_heap_allocs != 0) {
    std::fprintf(stderr, "smoke burst failed: served=%llu steady_allocs=%llu\n",
                 static_cast<unsigned long long>(r.served),
                 static_cast<unsigned long long>(r.steady_heap_allocs));
    return 1;
  }
  std::printf("SERVE_SMOKE_OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, trace_path;
  bool smoke_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke_only = true;
  }
  if (!trace_path.empty()) trace::enable(true);

  const std::string checkpoint = make_checkpoint();
  int rc;
  if (smoke_only) {
    rc = smoke(checkpoint);
  } else {
    // Same load for both kinds: the int8 GEMM path serves at fp32-or-better
    // throughput, so it no longer needs a shorter run to finish on time.
    const auto fp32 =
        bench_kind(checkpoint, serve::InstanceKind::kFp32, kClients, 38);
    const auto int8 =
        bench_kind(checkpoint, serve::InstanceKind::kInt8, kClients, 38);
    rc = fp32.equivalent && int8.equivalent ? 0 : 1;
    if (rc == 0) {
      const auto scaling = run_scaling(checkpoint);
      const auto matrix = run_matrix(checkpoint);
      if (!json_path.empty())
        write_json(json_path, fp32, int8, scaling, matrix);
    }
  }

  if (!trace_path.empty()) {
    // Export at a quiescent point: every Engine above has been stopped (its
    // destructor joins the workers), so all rings are complete.
    trace::enable(false);
    if (trace_export::chrome(trace_path))
      std::printf("wrote %s (%zu spans, %llu dropped)\n", trace_path.c_str(),
                  trace::span_count(),
                  static_cast<unsigned long long>(trace::dropped()));
    else
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  return rc;
}
