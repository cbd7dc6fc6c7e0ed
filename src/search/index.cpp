#include "search/index.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "tensor/kernels/hamming.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/check.hpp"

namespace cq::search {

namespace {
constexpr float kNormEps = 1e-12f;
// The record kind of a saved index. It names the u32 code layout, so an
// index saved with u64 code words fails to load by name.
constexpr const char* kIndexKind = "search_index_u32";

std::int64_t words_for(std::int64_t dim, CodeLayout layout) {
  return (dim * bits_per_dim(layout) + 31) / 32;
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
  // Index encodes unit rows, so the thresholds come from unit rows too:
  // medians of raw features sit at the raw scale, and against unit codes
  // nearly every bit would read the same.
  std::vector<float> unit(data, data + rows * dim);
  kernels::l2_normalize_rows(unit.data(), rows, dim, nullptr, kNormEps);
  // Order statistics per coordinate: the VALUE at a rank is a deterministic
  // function of the sample regardless of nth_element's internal ordering.
  std::vector<float> col(static_cast<std::size_t>(rows));
  for (std::int64_t j = 0; j < dim; ++j) {
    for (std::int64_t r = 0; r < rows; ++r) col[r] = unit[r * dim + j];
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
                       std::uint32_t* codes) const {
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
  b.lo_ = r.read_f32_array();
  b.hi_ = r.read_f32_array();
  CQ_CHECK(static_cast<std::int64_t>(b.lo_.size()) == dim);
  CQ_CHECK(static_cast<std::int64_t>(b.hi_.size()) ==
           (layout == CodeLayout::k2Bit ? dim : 0));
  // words_for multiplies dim, so it runs only once the checks above have
  // bounded dim by the reader's array-length cap.
  b.words_ = words_for(dim, layout);
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
  std::vector<std::uint32_t> packed(static_cast<std::size_t>(n * words));
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
  const std::int64_t words = binarizer_.words_per_row();
  const std::int64_t m = std::max<std::int64_t>(
      1, std::min(opts.k * opts.overfetch, std::max<std::int64_t>(rows, 1)));
  const std::int64_t buffer = 2 * m + kScanBlock;
  auto grow = [](auto& v, std::int64_t n) {
    if (static_cast<std::int64_t>(v.size()) < n) v.resize(n);
  };
  if (static_cast<std::int64_t>(s.qnorm.size()) != dim) s.qnorm.resize(dim);
  if (static_cast<std::int64_t>(s.qcode.size()) != words) s.qcode.resize(words);
  grow(s.dist, buffer);
  grow(s.sorted_dist, buffer);
  grow(s.row, buffer);
  grow(s.sorted_row, buffer);
  grow(s.count, 32 * words + 1);
  if (static_cast<std::int64_t>(s.rerank_score.capacity()) < m) {
    s.rerank_score.reserve(m);
    s.order.reserve(m);
  }
}

void Index::prepare(const QueryOptions& opts, QueryScratch& s) const {
  std::shared_lock lock(mu_);
  ensure_scratch(opts, s);
}

std::uint32_t QueryScratch::keep_nearest(std::int64_t n, std::int64_t m,
                                         std::uint32_t span) {
  std::fill(count.begin(), count.begin() + span, 0);
  for (std::int64_t i = 0; i < n; ++i) ++count[dist[i]];
  // Exclusive prefix sums, up to the distance t of the m-th candidate.
  std::uint32_t t = 0;
  for (std::int64_t start = 0;; ++t) {
    const std::int64_t c = count[t];
    count[t] = start;
    start += c;
    if (start >= m) break;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t d = dist[i];
    if (d > t) continue;
    const std::int64_t at = count[d]++;
    if (at < m) {  // only ties at t can run past m
      sorted_dist[at] = d;
      sorted_row[at] = row[i];
    }
  }
  dist.swap(sorted_dist);
  row.swap(sorted_row);
  return t;
}

std::int64_t Index::query(const float* embedding, const QueryOptions& opts,
                          QueryScratch& s, Result* out) const {
  CQ_CHECK(opts.k >= 1 && opts.overfetch >= 1);
  std::shared_lock lock(mu_);
  CQ_CHECK_MSG(!opts.rerank || config_.store_embeddings,
               "rerank requires store_embeddings");
  const std::int64_t rows = static_cast<std::int64_t>(ids_.size());
  s.compared_ = 0;
  s.pooled_ = 0;
  if (rows == 0) return 0;
  ensure_scratch(opts, s);

  const std::int64_t dim = binarizer_.dim();
  const std::int64_t words = binarizer_.words_per_row();
  std::memcpy(s.qnorm.data(), embedding,
              static_cast<std::size_t>(dim) * sizeof(float));
  kernels::l2_normalize_rows(s.qnorm.data(), 1, dim, nullptr, kNormEps);
  binarizer_.encode(s.qnorm.data(), 1, s.qcode.data());

  const std::int64_t m = std::min(opts.k * opts.overfetch, rows);
  const std::uint32_t* q = s.qcode.data();
  // Arm: every one of the first m rows is a candidate.
  std::int64_t n = kernels::hamming_below(
      q, codes_.data(), m, words, std::numeric_limits<std::uint32_t>::max(),
      s.row.data(), s.dist.data());
  std::uint32_t bound =
      s.keep_nearest(n, m, static_cast<std::uint32_t>(32 * words + 1));
  // Scan the rest against the strict bound; survivors append in row order.
  // A zero bound ends the scan: m rows at distance 0 are already held.
  std::int64_t r0 = m;
  for (; r0 < rows && bound > 0; r0 += kScanBlock) {
    const std::int64_t len = std::min(kScanBlock, rows - r0);
    const std::int64_t got = kernels::hamming_below(
        q, codes_.data() + r0 * words, len, words, bound, s.row.data() + n,
        s.dist.data() + n);
    for (std::int64_t i = n; i < n + got; ++i) s.row[i] += r0;
    n += got;
    if (n >= 2 * m) {
      bound = s.keep_nearest(n, m, bound + 1);
      n = m;
    }
  }
  if (n > m) s.keep_nearest(n, m, bound + 1);
  s.compared_ = std::min(r0, rows);
  s.pooled_ = m;
  const std::uint32_t* pool_dist = s.dist.data();
  const std::int64_t* pool_row = s.row.data();
  const std::int64_t emit = std::min(opts.k, m);

  if (!opts.rerank) {
    for (std::int64_t i = 0; i < emit; ++i) {
      out[i] = {ids_[pool_row[i]], pool_dist[i],
                -static_cast<float>(pool_dist[i])};
    }
    return emit;
  }

  // Exact-cosine rerank of the overfetched pool. dot_scan keeps the fixed
  // 8-lane reduction, so reranked scores (and thus results) are identical
  // across SIMD backends too.
  s.rerank_score.resize(static_cast<std::size_t>(m));
  s.order.resize(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    kernels::dot_scan(s.qnorm.data(), embeddings_.data() + pool_row[i] * dim,
                      1, dim, &s.rerank_score[i]);
    s.order[i] = i;
  }
  // (score desc, NaN scores last, row asc) is a total order over the
  // pool's distinct rows, so selecting the first `emit` gives the first
  // `emit` of a full sort. A stored embedding holding NaN scores NaN, which
  // a plain `>` leaves unordered.
  std::partial_sort(s.order.begin(), s.order.begin() + emit, s.order.end(),
                    [&](std::int64_t a, std::int64_t b) {
                      const float sa = s.rerank_score[a];
                      const float sb = s.rerank_score[b];
                      if (std::isnan(sa) != std::isnan(sb))
                        return std::isnan(sb);
                      if (sa != sb && !std::isnan(sa)) return sa > sb;
                      return pool_row[a] < pool_row[b];
                    });
  for (std::int64_t i = 0; i < emit; ++i) {
    const std::int64_t p = s.order[i];
    out[i] = {ids_[pool_row[p]], pool_dist[p], s.rerank_score[p]};
  }
  return emit;
}

// ---- checkpointing ---------------------------------------------------------

void Index::save(const std::string& path) const {
  std::shared_lock lock(mu_);
  BinaryWriter w(path);
  write_checkpoint_header(w);
  w.write_string(kIndexKind);
  w.write_u32(config_.store_embeddings ? 1u : 0u);
  binarizer_.save(w);
  w.write_u32_array(codes_);
  w.write_u64_array(ids_);
  w.write_f32_array(embeddings_);
  w.close();
}

Index Index::load(const std::string& path) {
  BinaryReader r(path);
  read_checkpoint_header(r);
  const auto kind = r.read_string();
  CQ_CHECK_MSG(kind == kIndexKind, "not a search index: " << path);
  const bool store = r.read_u32() != 0;
  Binarizer b = Binarizer::load(r);
  IndexConfig config;
  config.dim = b.dim();
  config.layout = b.layout();
  config.store_embeddings = store;
  Index index(config, std::move(b));
  index.codes_ = r.read_u32_array();
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
