#include "search/index.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "tensor/kernels/hamming.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/check.hpp"

namespace cq::search {

namespace {
constexpr float kNormEps = 1e-12f;

std::int64_t words_for(std::int64_t dim, CodeLayout layout) {
  return (dim * bits_per_dim(layout) + 63) / 64;
}
}  // namespace

// ---- Binarizer -------------------------------------------------------------

Binarizer Binarizer::sign(std::int64_t dim, CodeLayout layout) {
  CQ_CHECK(dim > 0);
  Binarizer b;
  b.dim_ = dim;
  b.layout_ = layout;
  b.words_ = words_for(dim, layout);
  b.lo_.assign(static_cast<std::size_t>(dim), 0.0f);
  if (layout == CodeLayout::k2Bit)
    b.hi_.assign(static_cast<std::size_t>(dim), 0.0f);
  return b;
}

Binarizer Binarizer::fit(const float* data, std::int64_t rows,
                         std::int64_t dim, CodeLayout layout) {
  CQ_CHECK(rows > 0 && dim > 0);
  Binarizer b = sign(dim, layout);
  // Order statistics per coordinate: the VALUE at a rank is a deterministic
  // function of the sample regardless of nth_element's internal ordering.
  std::vector<float> col(static_cast<std::size_t>(rows));
  for (std::int64_t j = 0; j < dim; ++j) {
    for (std::int64_t r = 0; r < rows; ++r) col[r] = data[r * dim + j];
    if (layout == CodeLayout::k1Bit) {
      auto mid = col.begin() + rows / 2;
      std::nth_element(col.begin(), mid, col.end());
      b.lo_[j] = *mid;
    } else {
      auto t1 = col.begin() + rows / 3;
      std::nth_element(col.begin(), t1, col.end());
      b.lo_[j] = *t1;
      auto t2 = col.begin() + (2 * rows) / 3;
      std::nth_element(t1, t2, col.end());  // upper tertile of the top part
      b.hi_[j] = *t2;
    }
  }
  return b;
}

void Binarizer::encode(const float* x, std::int64_t rows,
                       std::uint64_t* codes) const {
  if (layout_ == CodeLayout::k1Bit) {
    kernels::binarize_1bit(x, rows, dim_, lo_.data(), words_, codes);
  } else {
    kernels::binarize_2bit(x, rows, dim_, lo_.data(), hi_.data(), words_,
                           codes);
  }
}

void Binarizer::save(BinaryWriter& w) const {
  w.write_u32(static_cast<std::uint32_t>(layout_));
  w.write_u64(static_cast<std::uint64_t>(dim_));
  w.write_f32_array(lo_);
  w.write_f32_array(hi_);
}

Binarizer Binarizer::load(BinaryReader& r) {
  const auto layout_raw = r.read_u32();
  CQ_CHECK_MSG(layout_raw == 1 || layout_raw == 2,
               "bad code layout " << layout_raw);
  const auto layout = static_cast<CodeLayout>(layout_raw);
  const auto dim = static_cast<std::int64_t>(r.read_u64());
  CQ_CHECK(dim > 0);
  Binarizer b;
  b.dim_ = dim;
  b.layout_ = layout;
  b.words_ = words_for(dim, layout);
  b.lo_ = r.read_f32_array();
  b.hi_ = r.read_f32_array();
  CQ_CHECK(static_cast<std::int64_t>(b.lo_.size()) == dim);
  CQ_CHECK(static_cast<std::int64_t>(b.hi_.size()) ==
           (layout == CodeLayout::k2Bit ? dim : 0));
  return b;
}

// ---- Index -----------------------------------------------------------------

Index::Index(const IndexConfig& config, Binarizer binarizer)
    : config_(config), binarizer_(std::move(binarizer)) {
  CQ_CHECK(config_.dim == binarizer_.dim());
  CQ_CHECK(config_.layout == binarizer_.layout());
}

Index::Index(Index&& other) noexcept
    : config_(other.config_),
      binarizer_(std::move(other.binarizer_)),
      codes_(std::move(other.codes_)),
      ids_(std::move(other.ids_)),
      embeddings_(std::move(other.embeddings_)) {}

void Index::add(const float* embeddings, const std::uint64_t* ids,
                std::int64_t n) {
  CQ_CHECK(n >= 0);
  if (n == 0) return;
  const std::int64_t dim = binarizer_.dim();
  const std::int64_t words = binarizer_.words_per_row();
  // Normalize + pack outside the lock; only the appends serialize against
  // queries.
  std::vector<float> norm(static_cast<std::size_t>(n * dim));
  std::memcpy(norm.data(), embeddings, norm.size() * sizeof(float));
  kernels::l2_normalize_rows(norm.data(), n, dim, nullptr, kNormEps);
  std::vector<std::uint64_t> packed(static_cast<std::size_t>(n * words));
  binarizer_.encode(norm.data(), n, packed.data());

  std::unique_lock lock(mu_);
  codes_.insert(codes_.end(), packed.begin(), packed.end());
  ids_.insert(ids_.end(), ids, ids + n);
  if (config_.store_embeddings)
    embeddings_.insert(embeddings_.end(), norm.begin(), norm.end());
}

std::int64_t Index::size() const {
  std::shared_lock lock(mu_);
  return static_cast<std::int64_t>(ids_.size());
}

void Index::ensure_scratch(const QueryOptions& opts, QueryScratch& s) const {
  const std::int64_t rows = static_cast<std::int64_t>(ids_.size());
  const std::int64_t dim = binarizer_.dim();
  const std::int64_t m = std::max<std::int64_t>(
      1, std::min(opts.k * opts.overfetch, std::max<std::int64_t>(rows, 1)));
  const std::int64_t block = std::min(rows, kScanBlock);
  if (static_cast<std::int64_t>(s.qnorm.size()) != dim) s.qnorm.resize(dim);
  if (static_cast<std::int64_t>(s.qcode.size()) !=
      binarizer_.words_per_row())
    s.qcode.resize(binarizer_.words_per_row());
  if (static_cast<std::int64_t>(s.dist.size()) < block) s.dist.resize(block);
  if (static_cast<std::int64_t>(s.hits.size()) < block) s.hits.resize(block);
  // reset() reserves; arming the heap here makes prepare() a true prewarm.
  s.heap.reset(m);
  if (static_cast<std::int64_t>(s.rerank_score.capacity()) < m) {
    s.rerank_score.reserve(m);
    s.order.reserve(m);
  }
}

void Index::prepare(const QueryOptions& opts, QueryScratch& s) const {
  std::shared_lock lock(mu_);
  ensure_scratch(opts, s);
}

std::int64_t Index::query(const float* embedding, const QueryOptions& opts,
                          QueryScratch& s, Result* out) const {
  CQ_CHECK(opts.k >= 1 && opts.overfetch >= 1);
  std::shared_lock lock(mu_);
  CQ_CHECK_MSG(!opts.rerank || config_.store_embeddings,
               "rerank requires store_embeddings");
  const std::int64_t rows = static_cast<std::int64_t>(ids_.size());
  if (rows == 0) return 0;
  ensure_scratch(opts, s);

  const std::int64_t dim = binarizer_.dim();
  const std::int64_t words = binarizer_.words_per_row();
  std::memcpy(s.qnorm.data(), embedding,
              static_cast<std::size_t>(dim) * sizeof(float));
  kernels::l2_normalize_rows(s.qnorm.data(), 1, dim, nullptr, kNormEps);
  binarizer_.encode(s.qnorm.data(), 1, s.qcode.data());

  const std::int64_t m = std::min(opts.k * opts.overfetch, rows);
  // Blocked scan: each block's distances land in the block-sized dist
  // buffer and feed the bounded heap while they are cache-hot. Rows ascend,
  // so once the heap is full its max distance is a STRICT rejection bound:
  // a later candidate tying it loses the (dist, row) order outright.
  // filter_lt_u32 applies that bound 8 rows per compare; the bound
  // refreshes per block, so stale-limit survivors just fall through to
  // push's own compare — exactness never depends on how often the limit
  // tightens.
  TopK& heap = s.heap;
  std::uint32_t limit = 0;  // 0 = heap not yet full, no pruning
  for (std::int64_t r0 = 0; r0 < rows; r0 += kScanBlock) {
    const std::int64_t len = std::min(kScanBlock, rows - r0);
    kernels::hamming_scan(s.qcode.data(), codes_.data() + r0 * words, len,
                          words, s.dist.data());
    if (heap.size() < m) {
      for (std::int64_t i = 0; i < len; ++i) heap.push({s.dist[i], r0 + i});
    } else {
      const std::int64_t nhit =
          kernels::filter_lt_u32(s.dist.data(), len, limit, s.hits.data());
      for (std::int64_t h = 0; h < nhit; ++h) {
        const std::int64_t i = s.hits[h];
        heap.push({s.dist[i], r0 + i});
      }
    }
    if (heap.size() == m) limit = heap.heap().front().dist;
  }
  const auto& pool = heap.sorted();  // nearest-first, ties to lower row
  const std::int64_t pooled = static_cast<std::int64_t>(pool.size());
  const std::int64_t emit = std::min(opts.k, pooled);

  if (!opts.rerank) {
    for (std::int64_t i = 0; i < emit; ++i) {
      out[i] = {ids_[pool[i].row], pool[i].dist,
                -static_cast<float>(pool[i].dist)};
    }
    return emit;
  }

  // Exact-cosine rerank of the overfetched pool. dot_scan keeps the fixed
  // 8-lane reduction, so reranked scores (and thus results) are identical
  // across SIMD backends too.
  s.rerank_score.resize(static_cast<std::size_t>(pooled));
  s.order.resize(static_cast<std::size_t>(pooled));
  for (std::int64_t i = 0; i < pooled; ++i) {
    kernels::dot_scan(s.qnorm.data(), embeddings_.data() + pool[i].row * dim,
                      1, dim, &s.rerank_score[i]);
    s.order[i] = i;
  }
  std::sort(s.order.begin(), s.order.end(),
            [&](std::int64_t a, std::int64_t b) {
              if (s.rerank_score[a] != s.rerank_score[b])
                return s.rerank_score[a] > s.rerank_score[b];
              return pool[a].row < pool[b].row;
            });
  for (std::int64_t i = 0; i < emit; ++i) {
    const std::int64_t p = s.order[i];
    out[i] = {ids_[pool[p].row], pool[p].dist, s.rerank_score[p]};
  }
  return emit;
}

// ---- checkpointing ---------------------------------------------------------

void Index::save(const std::string& path) const {
  std::shared_lock lock(mu_);
  BinaryWriter w(path);
  write_checkpoint_header(w);
  w.write_string("search_index");
  w.write_u32(config_.store_embeddings ? 1u : 0u);
  binarizer_.save(w);
  w.write_u64_array(codes_);
  w.write_u64_array(ids_);
  w.write_f32_array(embeddings_);
  w.close();
}

Index Index::load(const std::string& path) {
  BinaryReader r(path);
  read_checkpoint_header(r);
  const auto kind = r.read_string();
  CQ_CHECK_MSG(kind == "search_index", "not a search index: " << path);
  const bool store = r.read_u32() != 0;
  Binarizer b = Binarizer::load(r);
  IndexConfig config;
  config.dim = b.dim();
  config.layout = b.layout();
  config.store_embeddings = store;
  Index index(config, std::move(b));
  index.codes_ = r.read_u64_array();
  index.ids_ = r.read_u64_array();
  index.embeddings_ = r.read_f32_array();
  r.expect_eof();
  const auto n = static_cast<std::int64_t>(index.ids_.size());
  CQ_CHECK(static_cast<std::int64_t>(index.codes_.size()) ==
           n * index.words_per_row());
  CQ_CHECK(static_cast<std::int64_t>(index.embeddings_.size()) ==
           (store ? n * config.dim : 0));
  return index;
}

}  // namespace cq::search
