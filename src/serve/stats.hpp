// Serving metrics: latency histograms, throughput, queue depth — exported as
// JSON for dashboards (examples/serve_demo.cpp prints it).
//
// LatencyHistogram uses fixed logarithmic buckets (quarter-octave, i.e. four
// buckets per power of two) spanning 1µs..~70s. Recording is O(1) with no
// allocation, percentile queries interpolate within a bucket, and the
// relative error of any quantile is bounded by the bucket ratio 2^(1/4)
// (~19%) — the same design point as HdrHistogram-style serving metrics.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cq::serve {

class LatencyHistogram {
 public:
  /// Four buckets per octave over 1µs .. 2^42µs (~52 days, effectively +inf).
  static constexpr std::size_t kBucketsPerOctave = 4;
  static constexpr std::size_t kOctaves = 42;
  static constexpr std::size_t kBuckets = kBucketsPerOctave * kOctaves + 1;

  void record(std::uint64_t micros);

  std::uint64_t count() const { return count_; }
  std::uint64_t max_micros() const { return max_; }
  double mean_micros() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  }
  /// p in [0, 100]. Returns the interpolated bucket value in microseconds.
  double percentile(double p) const;

  /// Merge another histogram into this one (per-worker -> engine rollup).
  void merge(const LatencyHistogram& other);

 private:
  static std::size_t bucket_index(std::uint64_t micros);
  static double bucket_lower(std::size_t index);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Exact batch-size histogram: bucket i counts batches of size i+1, with the
/// last bucket absorbing anything >= kBatchHistBuckets. Sized past any
/// realistic max_batch so the common case is one-bucket-per-size.
inline constexpr std::size_t kBatchHistBuckets = 64;
using BatchHist = std::array<std::uint64_t, kBatchHistBuckets>;

/// Counters owned by one worker thread; the engine snapshots them under the
/// worker's stats mutex.
struct WorkerStats {
  std::uint64_t batches = 0;
  std::uint64_t served = 0;       // requests completed kOk
  std::uint64_t timed_out = 0;    // expired while queued
  std::uint64_t stolen = 0;       // requests taken from sibling queues
  std::uint64_t batch_size_sum = 0;
  std::uint64_t max_batch_seen = 0;
  BatchHist batch_hist{};         // batch-size distribution, bucket i = size i+1
  /// Heap allocations (pool misses) on this worker's thread during warmup
  /// (first batch at full width) vs steady state afterwards. Steady state
  /// must be zero for the engine's zero-allocation claim to hold.
  std::uint64_t warmup_heap_allocs = 0;
  std::uint64_t steady_heap_allocs = 0;
  // Dispatch is stamped after the batching window closes, so queue_latency
  // includes the window.
  LatencyHistogram queue_latency;   // submit -> dispatch, per request
  LatencyHistogram total_latency;   // submit -> completion, per request
  LatencyHistogram window_latency;  // first taken -> dispatch, per batch
};

/// Per-worker slice of an EngineStats snapshot: each worker owns one request
/// queue (the sharded design, DESIGN.md §14), so queue depth/peak are
/// per-worker observables alongside its serving counters.
struct WorkerSnapshot {
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t stolen = 0;
  double mean_batch_size = 0.0;
  std::size_t queue_depth = 0;       // this worker's own queue, right now
  std::size_t queue_peak_depth = 0;  // its high-water mark
  BatchHist batch_hist{};
};

/// Engine-level snapshot, aggregated across workers on demand.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t served = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shutdown_failed = 0;  // completed kShutdown during stop()
  std::uint64_t batches = 0;
  std::uint64_t stolen = 0;  // cross-queue steals, total
  double mean_batch_size = 0.0;
  std::uint64_t max_batch_seen = 0;
  std::size_t queue_depth = 0;       // summed over all shard queues
  std::size_t queue_peak_depth = 0;  // sum of per-shard high-water marks
  std::uint64_t warmup_heap_allocs = 0;
  std::uint64_t steady_heap_allocs = 0;
  double uptime_seconds = 0.0;
  double throughput_rps = 0.0;  // served / uptime
  LatencyHistogram queue_latency;
  LatencyHistogram total_latency;
  LatencyHistogram window_latency;  // one sample per batch
  BatchHist batch_hist{};  // merged batch-size distribution
  std::vector<WorkerSnapshot> workers;

  /// Render as a JSON object (latencies in microseconds, p50/p90/p95/p99;
  /// batch_hist arrays trimmed at the last non-empty bucket; one "workers"
  /// entry per worker with its queue depth and histogram).
  std::string to_json() const;
};

}  // namespace cq::serve
