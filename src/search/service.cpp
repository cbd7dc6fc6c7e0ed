#include "search/service.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace cq::search {

namespace {

void json_latency(std::ostringstream& os, const char* key,
                  const serve::LatencyHistogram& h) {
  os << "\"" << key << "\": {\"count\": " << h.count()
     << ", \"mean_us\": " << h.mean_micros()
     << ", \"p50_us\": " << h.percentile(50.0)
     << ", \"p95_us\": " << h.percentile(95.0)
     << ", \"p99_us\": " << h.percentile(99.0)
     << ", \"max_us\": " << h.max_micros() << "}";
}

std::uint64_t nanos_between(serve::Clock::time_point a,
                            serve::Clock::time_point b) {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
             .count()));
}

std::uint64_t micros_between(serve::Clock::time_point a,
                             serve::Clock::time_point b) {
  return nanos_between(a, b) / 1000;
}

}  // namespace

std::string SearchStats::to_json() const {
  std::ostringstream os;
  os << "{\"queries\": " << queries << ", \"results\": " << results
     << ", \"codes_scanned\": " << codes_scanned
     << ", \"candidates\": " << candidates
     << ", \"scan_micros\": " << scan_micros
     << ", \"uptime_seconds\": " << uptime_seconds
     << ", \"scan_codes_per_s\": " << scan_codes_per_s
     << ", \"candidates_per_s\": " << candidates_per_s
     << ", \"queries_per_s\": " << queries_per_s << ", ";
  json_latency(os, "scan_latency", scan_latency);
  os << ", ";
  json_latency(os, "e2e_latency", e2e_latency);
  os << "}";
  return os.str();
}

Service::Service(const ServiceConfig& config, Index index)
    : config_(config),
      engine_(config.engine),
      index_(std::move(index)),
      start_time_(serve::Clock::now()) {
  CQ_CHECK_MSG(engine_.feature_dim() == index_.dim(),
               "encoder feature_dim " << engine_.feature_dim()
                                      << " != index dim " << index_.dim());
}

std::int64_t Service::run_scan(const float* embedding,
                               const QueryOptions& opts, QueryScratch& scratch,
                               Result* out) const {
  const auto t0 = serve::Clock::now();
  const std::int64_t n = index_.query(embedding, opts, scratch, out);
  const auto ns = nanos_between(t0, serve::Clock::now());
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.queries += 1;
  stats_.results += static_cast<std::uint64_t>(n);
  stats_.codes_scanned += static_cast<std::uint64_t>(scratch.compared());
  stats_.candidates += static_cast<std::uint64_t>(scratch.pooled());
  stats_.scan_nanos += ns;
  stats_.scan_latency.record(ns / 1000);
  return n;
}

std::int64_t Service::search_features(const float* embedding,
                                      const QueryOptions& opts,
                                      QueryScratch& scratch,
                                      Result* out) const {
  return run_scan(embedding, opts, scratch, out);
}

serve::Status Service::search(const float* image, const QueryOptions& opts,
                              Context& ctx, Result* out,
                              std::int64_t* out_count,
                              serve::Clock::time_point deadline) {
  *out_count = 0;
  const auto t0 = serve::Clock::now();
  if (static_cast<std::int64_t>(ctx.feature.size()) != engine_.feature_dim())
    ctx.feature.resize(static_cast<std::size_t>(engine_.feature_dim()));
  ctx.request.reset();
  ctx.request.input = image;
  ctx.request.output = ctx.feature.data();
  ctx.request.deadline = deadline;
  if (!engine_.submit(&ctx.request)) return serve::Status::kRejectedFull;
  const serve::Status st = ctx.request.wait();
  if (st != serve::Status::kOk) return st;
  // The deadline covers the whole search, not just the encode: a query that
  // comes back from the batcher already late must not burn a scan.
  if (deadline != serve::Clock::time_point::max() &&
      serve::Clock::now() > deadline)
    return serve::Status::kTimeout;
  *out_count = run_scan(ctx.feature.data(), opts, ctx.scratch, out);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.e2e_latency.record(micros_between(t0, serve::Clock::now()));
  return serve::Status::kOk;
}

void Service::prewarm(const QueryOptions& opts, Context& ctx) {
  ctx.feature.resize(static_cast<std::size_t>(engine_.feature_dim()));
  index_.prepare(opts, ctx.scratch);
}

SearchStats Service::search_stats() const {
  SearchStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  s.uptime_seconds =
      static_cast<double>(micros_between(start_time_, serve::Clock::now())) /
      1e6;
  s.scan_micros = s.scan_nanos / 1000;
  const double scan_s = static_cast<double>(s.scan_nanos) / 1e9;
  s.scan_codes_per_s =
      scan_s > 0.0 ? static_cast<double>(s.codes_scanned) / scan_s : 0.0;
  s.candidates_per_s = s.uptime_seconds > 0.0
                           ? static_cast<double>(s.candidates) /
                                 s.uptime_seconds
                           : 0.0;
  s.queries_per_s = s.uptime_seconds > 0.0
                        ? static_cast<double>(s.queries) / s.uptime_seconds
                        : 0.0;
  return s;
}

std::string Service::stats_json() const {
  std::ostringstream os;
  os << "{\"engine\": " << engine_.stats_json()
     << ",\n\"search\": " << search_stats().to_json() << "}";
  return os.str();
}

}  // namespace cq::search
