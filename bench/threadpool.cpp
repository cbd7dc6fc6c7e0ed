// Microbench for core::ThreadPool, the dispatcher behind every multi-core
// path (GEMM macro loops, batched im2col, graph executor batch splits).
// Three claims, each reported as a machine-portable metric in the JSON
// report:
//
//  1. Size-1 parity: a pool of size 1 runs parallel_for inline — the same
//     code the repo ran before the pool existed. inline.speedup (raw loop
//     time / size-1 pool time) must stay ~1.0.
//  2. Zero-allocation dispatch: a steady-state dispatch makes no tensor-pool
//     heap allocations on the calling thread (the job and its latch live
//     on the caller's stack, linked into an intrusive list).
//     dispatch.steady_heap_allocs must stay 0.
//  3. Scaling: on a multi-core host a memory-light kernel speeds up with the
//     pool engaged; on a single-core host saxpy.speedup sits at ~1.0.
//
// `--json=PATH` writes the JSON report; `--smoke` runs coverage +
// parity checks only (CI).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/cq.hpp"
#include "core/threadpool.hpp"

using namespace cq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Restore the process-wide pool size on scope exit: the bench resizes the
/// pool per section and must not leak a size into later sections.
struct PoolSizeGuard {
  std::size_t saved = core::ThreadPool::instance().size();
  ~PoolSizeGuard() { core::ThreadPool::instance().set_size(saved); }
};

// The measured kernel: y += a*x over a disjoint index range. Memory-light
// enough (2 flops per 8 bytes streamed) that dispatch overhead shows, heavy
// enough that timing is stable. noinline so the raw-loop baseline cannot
// constant-propagate its trip count and vectorize differently than the
// pool path — parity must compare dispatch cost, not codegen luck.
__attribute__((noinline)) void saxpy_range(float* __restrict y,
                                           const float* __restrict x, float a,
                                           std::int64_t b, std::int64_t e) {
  for (std::int64_t i = b; i < e; ++i) y[i] = a * x[i] + y[i];
}

constexpr std::int64_t kInlineN = 1 << 16;
constexpr std::int64_t kSaxpyN = 1 << 20;
constexpr std::int64_t kSaxpyGrain = 1 << 14;
constexpr int kRounds = 3;

/// Wall seconds for `reps` passes of saxpy over n elements, dispatched
/// through the pool at its current size (size 1 == inline).
double time_pool_saxpy(std::int64_t n, std::int64_t grain, int reps) {
  std::vector<float> x(static_cast<std::size_t>(n), 1.5f);
  std::vector<float> y(static_cast<std::size_t>(n), 0.25f);
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r)
    core::parallel_for(n, grain, [&](std::int64_t b, std::int64_t e) {
      saxpy_range(y.data(), x.data(), 0.5f, b, e);
    });
  return seconds_since(t0);
}

/// Wall seconds for `reps` passes of the same kernel as a raw loop — the
/// pre-threadpool baseline the size-1 pool must match.
double time_raw_saxpy(std::int64_t n, int reps) {
  std::vector<float> x(static_cast<std::size_t>(n), 1.5f);
  std::vector<float> y(static_cast<std::size_t>(n), 0.25f);
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) saxpy_range(y.data(), x.data(), 0.5f, 0, n);
  return seconds_since(t0);
}

/// Mean microseconds per parallel_for dispatch of near-empty chunks at the
/// current pool size, plus the calling thread's tensor-pool heap
/// allocations across all of them (claim: zero).
struct DispatchCost {
  double mean_us = 0.0;
  std::uint64_t heap_allocs = 0;
};

DispatchCost time_dispatch(int dispatches) {
  auto& pool = core::ThreadPool::instance();
  const auto total =
      static_cast<std::int64_t>(pool.size()) * core::ThreadPool::kChunksPerThread;
  std::atomic<std::int64_t> sink{0};
  // Warm the sleep/wake path before measuring.
  for (int r = 0; r < 16; ++r)
    pool.parallel_for(total, 1, [&](std::int64_t b, std::int64_t e) {
      sink.fetch_add(e - b, std::memory_order_relaxed);
    });
  const std::uint64_t allocs0 = core::AllocTracker::thread_allocs();
  const auto t0 = Clock::now();
  for (int r = 0; r < dispatches; ++r)
    pool.parallel_for(total, 1, [&](std::int64_t b, std::int64_t e) {
      sink.fetch_add(e - b, std::memory_order_relaxed);
    });
  DispatchCost c;
  c.mean_us = seconds_since(t0) * 1e6 / dispatches;
  c.heap_allocs = core::AllocTracker::thread_allocs() - allocs0;
  if (sink.load() < 0) std::printf("unreachable\n");  // keep sink live
  return c;
}

/// Every index covered exactly once at several pool sizes — the bench-side
/// smoke twin of the exhaustive fuzz in tests/test_threadpool.cpp.
bool coverage_ok() {
  PoolSizeGuard guard;
  auto& pool = core::ThreadPool::instance();
  for (std::size_t size : {1u, 2u, 3u}) {
    pool.set_size(size);
    constexpr std::int64_t kTotal = 10000;
    std::vector<int> hits(kTotal, 0);
    pool.parallel_for(kTotal, 7, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (std::int64_t i = 0; i < kTotal; ++i)
      if (hits[static_cast<std::size_t>(i)] != 1) {
        std::fprintf(stderr, "coverage FAILURE at size %zu index %lld\n",
                     size, static_cast<long long>(i));
        return false;
      }
  }
  return true;
}

struct BenchResult {
  double inline_speedup = 0.0;   // raw / size-1 pool, ~1.0
  double serial_ms = 0.0;        // raw loop
  double pool1_ms = 0.0;         // size-1 pool
  DispatchCost dispatch;
  std::size_t dispatch_threads = 0;
  double serial_gflops = 0.0;
  double pool_gflops = 0.0;
  double pool_speedup = 0.0;     // pool at configured size / serial
  std::size_t pool_threads = 0;
};

BenchResult run_bench() {
  PoolSizeGuard guard;
  auto& pool = core::ThreadPool::instance();
  BenchResult r;

  // 1. Size-1 parity, best of kRounds per side.
  pool.set_size(1);
  constexpr int kInlineReps = 200;
  for (int round = 0; round < kRounds; ++round) {
    const double raw = time_raw_saxpy(kInlineN, kInlineReps);
    const double inl = time_pool_saxpy(kInlineN, kInlineN, kInlineReps);
    r.serial_ms = round == 0 ? raw * 1e3 : std::min(r.serial_ms, raw * 1e3);
    r.pool1_ms = round == 0 ? inl * 1e3 : std::min(r.pool1_ms, inl * 1e3);
  }
  r.inline_speedup = r.pool1_ms > 0.0 ? r.serial_ms / r.pool1_ms : 0.0;

  // 2. Dispatch overhead + allocation accounting at a real multi-thread
  // size even on a single-core host (the wakeup path must still be cheap
  // and allocation-free there).
  r.dispatch_threads = std::max<std::size_t>(2, core::configured_threads());
  pool.set_size(r.dispatch_threads);
  for (int round = 0; round < kRounds; ++round) {
    const DispatchCost c = time_dispatch(/*dispatches=*/2000);
    if (round == 0 || c.mean_us < r.dispatch.mean_us) r.dispatch.mean_us = c.mean_us;
    r.dispatch.heap_allocs += c.heap_allocs;
  }

  // 3. Scaling at the configured size.
  constexpr int kSaxpyReps = 50;
  const double flops =
      2.0 * static_cast<double>(kSaxpyN) * kSaxpyReps;
  r.pool_threads = core::configured_threads();
  double serial_s = 0.0, pool_s = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    pool.set_size(1);
    const double s = time_pool_saxpy(kSaxpyN, kSaxpyGrain, kSaxpyReps);
    pool.set_size(r.pool_threads);
    const double p = time_pool_saxpy(kSaxpyN, kSaxpyGrain, kSaxpyReps);
    serial_s = round == 0 ? s : std::min(serial_s, s);
    pool_s = round == 0 ? p : std::min(pool_s, p);
  }
  r.serial_gflops = serial_s > 0.0 ? flops / serial_s * 1e-9 : 0.0;
  r.pool_gflops = pool_s > 0.0 ? flops / pool_s * 1e-9 : 0.0;
  r.pool_speedup = serial_s > 0.0 ? serial_s / pool_s : 0.0;

  std::printf(
      "inline  raw %7.2f ms vs size-1 pool %7.2f ms  (speedup %.2f)\n"
      "dispatch %zu threads  %7.2f us/dispatch  heap allocs %llu\n"
      "saxpy   serial %.2f GFLOP/s vs pool(%zu) %.2f GFLOP/s  "
      "(speedup %.2f)\n",
      r.serial_ms, r.pool1_ms, r.inline_speedup, r.dispatch_threads,
      r.dispatch.mean_us,
      static_cast<unsigned long long>(r.dispatch.heap_allocs),
      r.serial_gflops, r.pool_threads, r.pool_gflops, r.pool_speedup);
  return r;
}

void write_json(const std::string& path, const BenchResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"threadpool\",\n");
  std::fprintf(f,
               "  \"regenerate\": \"build/bench/threadpool "
               "--json=bench_out/threadpool.json\",\n");
  std::fprintf(f,
               "  \"hardware\": {\"cores\": %u, \"cq_threads\": %llu},\n",
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(core::configured_threads()));
  std::fprintf(f,
               "  \"inline\": {\"serial_ms\": %.3f, \"pool1_ms\": %.3f, "
               "\"speedup\": %.3f},\n",
               r.serial_ms, r.pool1_ms, r.inline_speedup);
  std::fprintf(f,
               "  \"dispatch\": {\"threads\": %llu, \"mean_us\": %.2f, "
               "\"steady_heap_allocs\": %llu},\n",
               static_cast<unsigned long long>(r.dispatch_threads),
               r.dispatch.mean_us,
               static_cast<unsigned long long>(r.dispatch.heap_allocs));
  std::fprintf(f,
               "  \"saxpy\": {\"n\": %lld, \"grain\": %lld, "
               "\"serial_gflops\": %.3f, \"pool_gflops\": %.3f, "
               "\"threads\": %llu, \"speedup\": %.3f}\n",
               static_cast<long long>(kSaxpyN),
               static_cast<long long>(kSaxpyGrain), r.serial_gflops,
               r.pool_gflops,
               static_cast<unsigned long long>(r.pool_threads),
               r.pool_speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int smoke() {
  if (!coverage_ok()) return 1;
  PoolSizeGuard guard;
  core::ThreadPool::instance().set_size(2);
  const DispatchCost c = time_dispatch(/*dispatches=*/50);
  if (c.heap_allocs != 0) {
    std::fprintf(stderr, "smoke: dispatch made %llu heap allocations\n",
                 static_cast<unsigned long long>(c.heap_allocs));
    return 1;
  }
  std::printf("THREADPOOL_SMOKE_OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke_only = true;
  }
  if (smoke_only) return smoke();
  if (!coverage_ok()) return 1;
  const BenchResult r = run_bench();
  if (!json_path.empty()) write_json(json_path, r);
  return 0;
}
