// Binary-embedding vector index (DESIGN.md §15).
//
// An Index stores one packed bitplane code per embedding (1-bit or 2-bit per
// dimension, layout contract in tensor/kernels/hamming.hpp) plus a u64 id
// side array and, optionally, the fp32 embeddings for exact cosine rerank.
// Queries are EXACT bounded-heap top-k over a blocked Hamming scan:
//
//   * The row range splits into fixed kScanBlock-row blocks. hamming_scan
//     writes each block's distances into a block-sized scratch buffer that
//     feeds one TopK while it is cache-hot; once the heap is full, a SIMD
//     filter (kernels::filter_lt_u32) rejects 8 distances per compare
//     against the heap's current bound before any heap code runs.
//   * The (dist, row) total order makes the top-m set and its sorted order
//     unique, so results never depend on push order.
//   * All scan state lives in a caller-owned QueryScratch: after
//     prepare()/the first query at a given (k, overfetch), the query path
//     performs zero heap allocations until the index grows.
//
// Concurrency: queries take a shared lock, add() takes an exclusive lock —
// incremental adds are safe against concurrent queries (tsan-covered).
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <vector>

#include "search/topk.hpp"
#include "util/serialize.hpp"

namespace cq::search {

/// Bits spent per embedding dimension. k2Bit is the thermometer layout whose
/// Hamming distance is a 3-level quantized L1 (hamming.hpp).
enum class CodeLayout : std::uint32_t { k1Bit = 1, k2Bit = 2 };

inline std::int64_t bits_per_dim(CodeLayout layout) {
  return layout == CodeLayout::k1Bit ? 1 : 2;
}

/// Per-coordinate threshold binarizer. PAPERS.md ("Covariance Structure and
/// Coordinate Heterogeneity Govern Binary Quantization of Contrastive
/// Embeddings"): contrastive coordinates have heterogeneous scales, so
/// per-coordinate medians/tertiles beat a global sign split; sign() is the
/// classic choice when the embedding space is L2-normalized and centered
/// (SimCLR projection geometry).
class Binarizer {
 public:
  /// Zero thresholds (sign binarization). For k2Bit, lo = hi = 0 — codes
  /// collapse to the 1-bit levels encoded at 2 bits (useful as a baseline).
  static Binarizer sign(std::int64_t dim, CodeLayout layout);

  /// Per-coordinate order-statistic thresholds from a [rows, dim] sample:
  /// the median for k1Bit, tertiles (ranks n/3 and 2n/3) for k2Bit.
  static Binarizer fit(const float* data, std::int64_t rows, std::int64_t dim,
                       CodeLayout layout);

  /// Pack `rows` embeddings of `dim` floats into codes
  /// ([rows * words_per_row] u64s). Inputs should be L2-normalized when the
  /// thresholds were fit on normalized data (Index handles this).
  void encode(const float* x, std::int64_t rows, std::uint64_t* codes) const;

  std::int64_t dim() const { return dim_; }
  CodeLayout layout() const { return layout_; }
  /// u64 words per packed code: ceil(dim * bits_per_dim / 64).
  std::int64_t words_per_row() const { return words_; }

  void save(BinaryWriter& w) const;
  static Binarizer load(BinaryReader& r);

 private:
  Binarizer() = default;

  std::int64_t dim_ = 0;
  std::int64_t words_ = 0;
  CodeLayout layout_ = CodeLayout::k1Bit;
  std::vector<float> lo_;  // k1Bit: the only threshold; k2Bit: lower level
  std::vector<float> hi_;  // k2Bit only (lo <= hi per coordinate)
};

struct IndexConfig {
  std::int64_t dim = 0;
  CodeLayout layout = CodeLayout::k1Bit;
  /// Keep the fp32 embeddings so queries can rerank Hamming candidates by
  /// exact cosine. Costs 32 bits/dim of memory; recall@k at small code sizes
  /// usually wants overfetch + rerank (see search::recall).
  bool store_embeddings = false;
};

struct QueryOptions {
  std::int64_t k = 10;
  /// Scan keeps k * overfetch Hamming candidates; with rerank they are
  /// re-scored by exact cosine before the best k are returned. Without
  /// rerank overfetch only widens the internal pool (still k results).
  std::int64_t overfetch = 1;
  /// Exact-cosine rerank of the overfetched pool. Requires an index built
  /// with store_embeddings.
  bool rerank = false;
};

/// One search hit. `dist` is the packed-code Hamming distance; `score` is
/// the exact cosine when the query reranked, else the negated distance (both
/// orders descending-is-better, so callers can sort on score uniformly).
struct Result {
  std::uint64_t id = 0;
  std::uint32_t dist = 0;
  float score = 0.0f;
};

/// Caller-owned scan state; one per querying thread. Sized lazily by the
/// first query (or explicitly by Index::prepare) and reused allocation-free
/// afterwards while the index size and (k, overfetch) stay put.
class QueryScratch {
 private:
  friend class Index;
  std::vector<float> qnorm;          // [dim] normalized query
  std::vector<std::uint64_t> qcode;  // [words_per_row] packed query
  std::vector<std::uint32_t> dist;   // [kScanBlock] one block's distances
  std::vector<std::int32_t> hits;    // [kScanBlock] filter_lt_u32 output
  TopK heap;                         // the scan's top-m
  std::vector<float> rerank_score;   // [pool] exact cosine scores
  std::vector<std::int64_t> order;   // rerank permutation
};

class Index {
 public:
  /// An empty index over `binarizer`'s geometry (dim/layout taken from it).
  Index(const IndexConfig& config, Binarizer binarizer);

  /// Movable (fresh mutex — moving is only legal before concurrent use,
  /// i.e. load()/construction handoff), not copyable.
  Index(Index&& other) noexcept;
  Index& operator=(Index&&) = delete;
  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  /// Append `n` embeddings ([n, dim] fp32, any norm) with their ids.
  /// Normalizes a copy, packs codes, and (when configured) stores the
  /// normalized embeddings. Exclusive-locks against queries.
  void add(const float* embeddings, const std::uint64_t* ids, std::int64_t n);

  /// Exact top-k by Hamming distance (optionally cosine-reranked). Writes at
  /// most opts.k results nearest-first into `out` and returns the count
  /// (min(k, size)). `embedding` is [dim] fp32, any norm. Thread-safe
  /// against concurrent add(); scratch must be private to the caller.
  std::int64_t query(const float* embedding, const QueryOptions& opts,
                     QueryScratch& scratch, Result* out) const;

  /// Size `scratch` for this index and `opts` so the next query allocates
  /// nothing (the prewarm step of the 0-alloc steady-state contract).
  void prepare(const QueryOptions& opts, QueryScratch& scratch) const;

  std::int64_t size() const;
  std::int64_t dim() const { return binarizer_.dim(); }
  CodeLayout layout() const { return binarizer_.layout(); }
  std::int64_t words_per_row() const { return binarizer_.words_per_row(); }
  bool stores_embeddings() const { return config_.store_embeddings; }
  const Binarizer& binarizer() const { return binarizer_; }

  /// Read-only view of the packed codes / stored embeddings (benches and the
  /// recall eval scan them directly).
  const std::vector<std::uint64_t>& codes() const { return codes_; }
  const std::vector<float>& embeddings() const { return embeddings_; }

  /// Checkpoint the whole index (header + config + binarizer + codes + ids
  /// [+ embeddings]); load() validates the trailer with expect_eof.
  void save(const std::string& path) const;
  static Index load(const std::string& path);

  /// Rows per scan block: the distances of one block stay cache-hot between
  /// the scan and the heap feed.
  static constexpr std::int64_t kScanBlock = 4096;

 private:
  void ensure_scratch(const QueryOptions& opts, QueryScratch& s) const;

  IndexConfig config_;
  Binarizer binarizer_;
  mutable std::shared_mutex mu_;  // queries shared, add exclusive
  std::vector<std::uint64_t> codes_;  // [size * words_per_row]
  std::vector<std::uint64_t> ids_;    // [size]
  std::vector<float> embeddings_;     // [size * dim] iff store_embeddings
};

}  // namespace cq::search
