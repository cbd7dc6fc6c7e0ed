#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/prof.hpp"

namespace cq::serve {

std::size_t LatencyHistogram::bucket_index(std::uint64_t micros) {
  if (micros <= 1) return 0;
  // index = round(log2(micros) * kBucketsPerOctave), computed in floats —
  // the ~19% bucket width dwarfs any log2 rounding.
  const double idx = std::log2(static_cast<double>(micros)) *
                     static_cast<double>(kBucketsPerOctave);
  const auto i = static_cast<std::size_t>(idx + 0.5);
  return std::min(i, kBuckets - 1);
}

double LatencyHistogram::bucket_lower(std::size_t index) {
  return std::exp2(static_cast<double>(index) /
                   static_cast<double>(kBucketsPerOctave));
}

void LatencyHistogram::record(std::uint64_t micros) {
  ++buckets_[bucket_index(micros)];
  ++count_;
  sum_ += micros;
  if (micros > max_) max_ = micros;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const auto next = seen + buckets_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket by rank.
      const double lo = bucket_lower(i);
      const double hi = bucket_lower(i + 1);
      const double frac =
          buckets_[i] == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets_[i]);
      return std::min(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0),
                      static_cast<double>(max_));
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

namespace {

void json_latency(std::ostringstream& os, const char* key,
                  const LatencyHistogram& h) {
  os << "\"" << key << "\": {\"count\": " << h.count()
     << ", \"mean_us\": " << h.mean_micros()
     << ", \"p50_us\": " << h.percentile(50.0)
     << ", \"p90_us\": " << h.percentile(90.0)
     << ", \"p95_us\": " << h.percentile(95.0)
     << ", \"p99_us\": " << h.percentile(99.0)
     << ", \"max_us\": " << h.max_micros() << "}";
}

/// Emit [n1, n2, ...] trimmed at the last non-zero bucket (bucket i = batch
/// size i+1), so an idle worker renders as [] rather than 64 zeros.
void json_batch_hist(std::ostringstream& os, const BatchHist& h) {
  std::size_t last = 0;
  for (std::size_t i = 0; i < h.size(); ++i)
    if (h[i] != 0) last = i + 1;
  os << "[";
  for (std::size_t i = 0; i < last; ++i) {
    if (i) os << ", ";
    os << h[i];
  }
  os << "]";
}

}  // namespace

std::string EngineStats::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"submitted\": " << submitted << ",\n"
     << "  \"served\": " << served << ",\n"
     << "  \"rejected_full\": " << rejected_full << ",\n"
     << "  \"timed_out\": " << timed_out << ",\n"
     << "  \"shutdown_failed\": " << shutdown_failed << ",\n"
     << "  \"batches\": " << batches << ",\n"
     << "  \"stolen\": " << stolen << ",\n"
     << "  \"mean_batch_size\": " << mean_batch_size << ",\n"
     << "  \"max_batch_seen\": " << max_batch_seen << ",\n"
     << "  \"queue_depth\": " << queue_depth << ",\n"
     << "  \"queue_peak_depth\": " << queue_peak_depth << ",\n"
     << "  \"warmup_heap_allocs\": " << warmup_heap_allocs << ",\n"
     << "  \"steady_heap_allocs\": " << steady_heap_allocs << ",\n"
     << "  \"uptime_seconds\": " << uptime_seconds << ",\n"
     << "  \"throughput_rps\": " << throughput_rps << ",\n  ";
  os << "\"batch_hist\": ";
  json_batch_hist(os, batch_hist);
  os << ",\n  \"workers\": [";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerSnapshot& w = workers[i];
    if (i) os << ", ";
    os << "{\"served\": " << w.served << ", \"batches\": " << w.batches
       << ", \"timed_out\": " << w.timed_out << ", \"stolen\": " << w.stolen
       << ", \"mean_batch_size\": " << w.mean_batch_size
       << ", \"queue_depth\": " << w.queue_depth
       << ", \"queue_peak_depth\": " << w.queue_peak_depth
       << ", \"batch_hist\": ";
    json_batch_hist(os, w.batch_hist);
    os << "}";
  }
  os << "],\n  ";
  json_latency(os, "queue_latency", queue_latency);
  os << ",\n  ";
  json_latency(os, "total_latency", total_latency);
  os << ",\n  ";
  json_latency(os, "window_latency", window_latency);
  // Aggregate profiler table: per-op wall time over every instrumented
  // scope the process ran (serve pipeline phases, GEMM, lowering, ...).
  os << ",\n  \"profile\": " << prof::json();
  os << "\n}";
  return os.str();
}

}  // namespace cq::serve
