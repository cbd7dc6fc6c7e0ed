// search::Service — the binary-embedding retrieval endpoint (DESIGN.md §15).
//
// Wires a search::Index behind the serving engine: a query image is encoded
// through serve::Engine (compiled graph plan, dynamic micro-batching across
// concurrent callers), the feature vector is binarized, and the packed code
// drives the blocked Hamming top-k scan — optionally cosine-reranked.
//
//   Service svc(config, std::move(index));
//   Service::Context ctx;                 // one per querying thread
//   svc.prewarm(opts, ctx);               // -> 0-alloc steady state
//   Result hits[16];
//   std::int64_t n = 0;
//   auto st = svc.search(image, opts, ctx, hits, &n, deadline);
//
// The whole path inherits the repo's determinism contract: batched encode is
// bitwise-identical to batch-1 encode (graph executor) and the top-k is
// unique under the (dist, row) order (Index), so two services at different
// worker counts return identical results. Search-side stats (scan rate,
// candidates/s, e2e latency percentiles) merge with the engine's in
// stats_json().
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "search/index.hpp"
#include "serve/engine.hpp"

namespace cq::search {

struct ServiceConfig {
  /// Encoder + worker/batching setup. The checkpoint's feature_dim must
  /// equal the index dim.
  serve::EngineConfig engine;
};

/// Search-side counters (the encode leg is accounted by the engine).
struct SearchStats {
  std::uint64_t queries = 0;        // searches that reached the scan
  std::uint64_t results = 0;        // result rows emitted
  std::uint64_t codes_scanned = 0;  // index rows Hamming-scanned
  std::uint64_t candidates = 0;     // overfetched pool entries considered
  std::uint64_t scan_micros = 0;    // time inside Index::query
  double uptime_seconds = 0.0;
  double scan_codes_per_s = 0.0;    // codes_scanned / scan time
  double candidates_per_s = 0.0;    // candidates / uptime
  double queries_per_s = 0.0;       // queries / uptime
  serve::LatencyHistogram scan_latency;  // Index::query only
  serve::LatencyHistogram e2e_latency;   // submit -> results written

  std::string to_json() const;
};

class Service {
 public:
  /// Per-caller state: the engine Request, its feature buffer, and the scan
  /// scratch. Reused across searches; prewarm() sizes it so the steady-state
  /// search path allocates nothing.
  struct Context {
    std::vector<float> feature;
    QueryScratch scratch;
    serve::Request request;
  };

  /// Starts the engine (loads + compiles the checkpoint) and takes ownership
  /// of the index. Throws CheckError when feature_dim != index dim.
  Service(const ServiceConfig& config, Index index);

  /// Encode `image` (Engine::sample_numel() floats) and run top-k. Writes up
  /// to opts.k results nearest-first into `out`, sets *out_count, returns
  /// the request status: kOk on success; kRejectedFull / kTimeout /
  /// kShutdown propagate from the encode leg, and a deadline that expires
  /// before the scan starts returns kTimeout without scanning.
  serve::Status search(const float* image, const QueryOptions& opts,
                       Context& ctx, Result* out, std::int64_t* out_count,
                       serve::Clock::time_point deadline =
                           serve::Clock::time_point::max());

  /// Skip the encoder: search directly from an embedding ([dim] floats, any
  /// norm). Same stats accounting minus the encode leg.
  std::int64_t search_features(const float* embedding,
                               const QueryOptions& opts, QueryScratch& scratch,
                               Result* out) const;

  /// Incremental add (exclusive-locks the index against in-flight scans).
  void add(const float* embeddings, const std::uint64_t* ids, std::int64_t n) {
    index_.add(embeddings, ids, n);
  }

  /// Size ctx for `opts` so the next search is allocation-free.
  void prewarm(const QueryOptions& opts, Context& ctx);

  SearchStats search_stats() const;
  /// {"engine": <serve::EngineStats>, "search": <SearchStats>}.
  std::string stats_json() const;

  const Index& index() const { return index_; }
  serve::Engine& engine() { return engine_; }
  std::int64_t dim() const { return index_.dim(); }

  void stop() { engine_.stop(); }

 private:
  std::int64_t run_scan(const float* embedding, const QueryOptions& opts,
                        QueryScratch& scratch, Result* out) const;

  ServiceConfig config_;
  serve::Engine engine_;
  Index index_;
  serve::Clock::time_point start_time_;
  mutable std::mutex stats_mu_;
  // Mutable: search_features/run_scan are logically const (the index is
  // read-only) but still account their work.
  mutable SearchStats stats_;  // uptime/rates filled on read
};

}  // namespace cq::search
