// Vector search subsystem (DESIGN.md §15): Hamming/binarize kernel fuzz
// (backend vs scalar twin, odd tails, 2-bit layout), Binarizer fit and
// load, index build/query/save/load against a std::partial_sort
// brute-force oracle (one scan block and several), the 0-alloc steady-state
// contract of the query path, and the serve-engine-backed Service
// (encode -> binarize -> scan) including concurrent query + incremental add
// (the tsan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "counting_new.hpp"
#include "models/encoder.hpp"
#include "search/index.hpp"
#include "search/recall.hpp"
#include "search/service.hpp"
#include "tensor/kernels/hamming.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

using search::CodeLayout;
using search::Index;
using search::IndexConfig;
using search::QueryOptions;
using search::QueryScratch;
using search::Result;

std::vector<std::uint32_t> random_words(Rng& rng, std::int64_t n) {
  std::vector<std::uint32_t> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = static_cast<std::uint32_t>(rng.next_u64());
  return v;
}

std::vector<float> random_floats(Rng& rng, std::int64_t n, double lo = -1.0,
                                 double hi = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// ---- kernel fuzz: backend vs scalar twin -----------------------------------

TEST(HammingKernels, BelowMatchesScalarAtBoundaryLimits) {
  std::printf("hamming_below backend: %s\n",
              kernels::hamming_below_backend());
  RecordProperty("hamming_below_backend", kernels::hamming_below_backend());
  Rng rng(2020);
  // The 1-, 2- and 4-word paths, and the n-word paths below, at and past
  // one AVX2 8-word step and one AVX-512 16-word vector.
  for (std::int64_t words : {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17}) {
    const std::uint32_t full = static_cast<std::uint32_t>(32 * words);
    // Row counts with odd tails around every vector step width.
    for (std::int64_t rows :
         {0, 1, 2, 3, 5, 7, 8, 9, 15, 17, 31, 33, 100, 257, 259}) {
      const auto query = random_words(rng, words);
      auto base = random_words(rng, rows * words);
      // Mix in rows at distance 0, 1 and 32*words so that the boundary
      // limits below split real rows, not just random ~16*words ones.
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::uint64_t kind = rng.next_u64() % 4;
        for (std::int64_t w = 0; w < words; ++w) {
          std::uint32_t& x = base[r * words + w];
          if (kind == 0) x = query[w];
          if (kind == 1) x = query[w] ^ (w == 0 ? 1u : 0u);
          if (kind == 2) x = ~query[w];
        }
      }
      for (std::uint32_t limit :
           {0u, 1u, 2u, full / 2, full, full + 1, 0xFFFFFFFFu}) {
        const std::size_t cap = static_cast<std::size_t>(rows) + 1;
        std::vector<std::int64_t> got_rows(cap, -1), want_rows(cap, -1);
        std::vector<std::uint32_t> got_dist(cap, 7), want_dist(cap, 7);
        const std::int64_t ng =
            kernels::hamming_below(query.data(), base.data(), rows, words,
                                   limit, got_rows.data(), got_dist.data());
        const std::int64_t nw = kernels::scalar::hamming_below(
            query.data(), base.data(), rows, words, limit, want_rows.data(),
            want_dist.data());
        ASSERT_EQ(ng, nw) << "words=" << words << " rows=" << rows
                          << " limit=" << limit;
        EXPECT_EQ(got_rows, want_rows) << "words=" << words << " rows=" << rows
                                       << " limit=" << limit;
        EXPECT_EQ(got_dist, want_dist) << "words=" << words << " rows=" << rows
                                       << " limit=" << limit;
        // Naive oracle: ascending rows whose popcount distance is < limit.
        std::int64_t cnt = 0;
        for (std::int64_t r = 0; r < rows; ++r) {
          std::uint32_t d = 0;
          for (std::int64_t w = 0; w < words; ++w)
            d += static_cast<std::uint32_t>(
                std::popcount(base[r * words + w] ^ query[w]));
          ASSERT_EQ(kernels::scalar::hamming_distance(base.data() + r * words,
                                                      query.data(), words),
                    d);
          if (d >= limit) continue;
          ASSERT_LT(cnt, ng);
          ASSERT_EQ(got_rows[static_cast<std::size_t>(cnt)], r);
          ASSERT_EQ(got_dist[static_cast<std::size_t>(cnt)], d);
          ++cnt;
        }
        ASSERT_EQ(ng, cnt);
        if (limit > full) {
          ASSERT_EQ(ng, rows);
        }
      }
    }
  }
}

TEST(HammingKernels, NarrowRowsMatchScalarAtEveryTail) {
  // The 1-word path scans 16 rows per vector and the 2- and 4-word paths 32
  // and 16 per step; every row tail 0-63 after two full 64-row spans, at
  // limit 0, a mid limit and one above the maximum distance. Outputs past
  // the survivors keep their sentinels: only survivors are written.
  Rng rng(2121);
  for (std::int64_t words : {1, 2, 3, 4, 7}) {
    const std::uint32_t full = static_cast<std::uint32_t>(32 * words);
    for (std::int64_t tail = 0; tail < 64; ++tail) {
      const std::int64_t rows = 128 + tail;
      const auto query = random_words(rng, words);
      auto base = random_words(rng, rows * words);
      for (std::int64_t r = 0; r < rows; r += 5)
        std::copy(query.begin(), query.end(), base.begin() + r * words);
      for (std::uint32_t limit : {0u, full / 2, full + 1}) {
        const std::size_t cap = static_cast<std::size_t>(rows);
        std::vector<std::int64_t> got_rows(cap, -1), want_rows(cap, -1);
        std::vector<std::uint32_t> got_dist(cap, 7), want_dist(cap, 7);
        const std::int64_t ng =
            kernels::hamming_below(query.data(), base.data(), rows, words,
                                   limit, got_rows.data(), got_dist.data());
        const std::int64_t nw = kernels::scalar::hamming_below(
            query.data(), base.data(), rows, words, limit, want_rows.data(),
            want_dist.data());
        const std::string label = "words=" + std::to_string(words) +
                                  " rows=" + std::to_string(rows) +
                                  " limit=" + std::to_string(limit);
        ASSERT_EQ(ng, nw) << label;
        EXPECT_EQ(got_rows, want_rows) << label;
        EXPECT_EQ(got_dist, want_dist) << label;
        if (limit == 0) {
          EXPECT_EQ(ng, 0) << label;
        }
        if (limit > full) {
          EXPECT_EQ(ng, rows) << label;
        }
      }
    }
  }
}

TEST(HammingKernels, Binarize1BitMatchesScalarWithOddTails) {
  Rng rng(303);
  for (std::int64_t cols : {1, 3, 7, 8, 9, 31, 63, 64, 65, 100, 129}) {
    const std::int64_t rows = 5;
    const std::int64_t words = (cols + 31) / 32;
    auto x = random_floats(rng, rows * cols);
    auto thr = random_floats(rng, cols, -0.5, 0.5);
    // Exercise the strict-> boundary and the NaN->false convention.
    x[0] = thr[0];
    if (cols > 2) x[2] = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::uint32_t> got(static_cast<std::size_t>(rows * words),
                                   0xFFFFFFFFu);
    auto want = got;
    kernels::binarize_1bit(x.data(), rows, cols, thr.data(), words,
                           got.data());
    kernels::scalar::binarize_1bit(x.data(), rows, cols, thr.data(), words,
                                   want.data());
    EXPECT_EQ(got, want) << "cols=" << cols;
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t j = 0; j < cols; ++j) {
        const bool bit =
            (got[r * words + (j >> 5)] >> (j & 31)) & 1;
        EXPECT_EQ(bit, x[r * cols + j] > thr[j]) << r << "," << j;
      }
    // Trailing bits of the last word must be zeroed, never garbage.
    if (cols % 32 != 0) {
      for (std::int64_t r = 0; r < rows; ++r)
        EXPECT_EQ(got[r * words + words - 1] >> (cols % 32), 0u);
    }
  }
}

TEST(HammingKernels, Binarize2BitThermometerMatchesScalar) {
  Rng rng(404);
  for (std::int64_t cols : {1, 3, 5, 8, 16, 31, 32, 33, 64, 100}) {
    const std::int64_t rows = 4;
    const std::int64_t words = (2 * cols + 31) / 32;
    const auto x = random_floats(rng, rows * cols);
    auto lo = random_floats(rng, cols, -0.5, 0.0);
    auto hi = random_floats(rng, cols, 0.0, 0.5);
    std::vector<std::uint32_t> got(static_cast<std::size_t>(rows * words),
                                   0xFFFFFFFFu);
    auto want = got;
    kernels::binarize_2bit(x.data(), rows, cols, lo.data(), hi.data(), words,
                           got.data());
    kernels::scalar::binarize_2bit(x.data(), rows, cols, lo.data(),
                                   hi.data(), words, want.data());
    EXPECT_EQ(got, want) << "cols=" << cols;
    // Thermometer property: XOR-popcount == sum of per-dim level gaps.
    auto level = [&](std::int64_t r, std::int64_t j) {
      const float v = x[r * cols + j];
      return (v > lo[j] ? 1 : 0) + (v > hi[j] ? 1 : 0);
    };
    for (std::int64_t a = 0; a < rows; ++a)
      for (std::int64_t b = 0; b < rows; ++b) {
        std::uint32_t gap = 0;
        for (std::int64_t j = 0; j < cols; ++j)
          gap += static_cast<std::uint32_t>(
              std::abs(level(a, j) - level(b, j)));
        EXPECT_EQ(kernels::scalar::hamming_distance(
                      got.data() + a * words, got.data() + b * words, words),
                  gap);
      }
  }
}

TEST(HammingKernels, DotScanBitwiseAcrossBackends) {
  Rng rng(505);
  for (std::int64_t dim : {1, 7, 8, 15, 16, 17, 64, 100}) {
    for (std::int64_t rows : {1, 3, 33}) {
      const auto base = random_floats(rng, rows * dim);
      const auto query = random_floats(rng, dim);
      std::vector<float> got(static_cast<std::size_t>(rows));
      std::vector<float> want(static_cast<std::size_t>(rows));
      kernels::dot_scan(query.data(), base.data(), rows, dim, got.data());
      kernels::scalar::dot_scan(query.data(), base.data(), rows, dim,
                                want.data());
      for (std::int64_t r = 0; r < rows; ++r) {
        ASSERT_EQ(got[r], want[r]) << "dim=" << dim << " row=" << r;
        double oracle = 0;
        for (std::int64_t j = 0; j < dim; ++j)
          oracle += static_cast<double>(query[j]) *
                    static_cast<double>(base[r * dim + j]);
        ASSERT_NEAR(got[r], oracle, 1e-4) << "dim=" << dim;
      }
    }
  }
}

// ---- Binarizer fit ---------------------------------------------------------

/// A [rows, dim] sample whose row norms spread over three decades, so that
/// thresholds fit on raw values and on unit rows differ.
std::vector<float> spread_norm_sample(Rng& rng, std::int64_t rows,
                                      std::int64_t dim) {
  auto data = random_floats(rng, rows * dim);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float scale = static_cast<float>(std::pow(10.0, rng.uniform(-1, 2)));
    for (std::int64_t j = 0; j < dim; ++j) data[r * dim + j] *= scale;
  }
  return data;
}

/// The thresholds exactly as Binarizer::save writes them.
std::vector<char> threshold_bytes(const search::Binarizer& b) {
  const std::string path = testing::TempDir() + "cq_binarizer_thresholds.bin";
  BinaryWriter w(path);
  b.save(w);
  w.close();
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Binarizer, FitUsesPerCoordinateOrderStatistics) {
  // The thresholds are exact order statistics of each coordinate of the
  // L2-normalized sample (the scale Index encodes at), independently per
  // coordinate: the oracle sorts each normalized column in full.
  Rng rng(606);
  const std::int64_t rows = 31, dim = 5;
  const auto data = spread_norm_sample(rng, rows, dim);
  auto unit = data;
  kernels::l2_normalize_rows(unit.data(), rows, dim, nullptr, 1e-12f);
  std::vector<float> med(dim), lo(dim), hi(dim);
  for (std::int64_t j = 0; j < dim; ++j) {
    std::vector<float> col(rows);
    for (std::int64_t r = 0; r < rows; ++r) col[r] = unit[r * dim + j];
    std::sort(col.begin(), col.end());
    med[j] = col[rows / 2];
    lo[j] = col[rows / 3];
    hi[j] = col[(2 * rows) / 3];
  }
  const float inf = std::numeric_limits<float>::infinity();
  auto above = [&](const std::vector<float>& t) {
    std::vector<float> p(t.size());
    for (std::size_t j = 0; j < t.size(); ++j) p[j] = std::nextafter(t[j], inf);
    return p;
  };
  const std::uint32_t all = (std::uint32_t{1} << dim) - 1;

  auto b1 = search::Binarizer::fit(data.data(), rows, dim,
                                   CodeLayout::k1Bit);
  std::vector<std::uint32_t> code(1);
  b1.encode(med.data(), 1, code.data());
  EXPECT_EQ(code[0], 0u);  // strict >: at-threshold stays 0
  b1.encode(above(med).data(), 1, code.data());
  EXPECT_EQ(code[0], all);

  auto b2 = search::Binarizer::fit(data.data(), rows, dim,
                                   CodeLayout::k2Bit);
  // Level per dimension j in bits 2j, 2j+1: 00 at lo, 01 above lo and at
  // hi, 11 above hi.
  std::uint32_t level1 = 0;
  for (std::int64_t j = 0; j < dim; ++j) level1 |= std::uint32_t{1} << (2 * j);
  b2.encode(lo.data(), 1, code.data());
  EXPECT_EQ(code[0], 0u);
  b2.encode(above(lo).data(), 1, code.data());
  EXPECT_EQ(code[0], level1);
  b2.encode(hi.data(), 1, code.data());
  EXPECT_EQ(code[0], level1);
  b2.encode(above(hi).data(), 1, code.data());
  EXPECT_EQ(code[0], level1 | (level1 << 1));
}

TEST(Binarizer, FitIsScaleInvariant) {
  // Index encodes unit rows, so scaling the fit sample must not move a
  // threshold: the fit normalizes before it takes order statistics.
  // Scaling by a power of two is exact through the normalization, so those
  // thresholds are bitwise identical. Scaling by 10 rounds each value, and
  // a normalized coordinate may land one ulp away, so there the test asks
  // that thresholds encode random unit probes identically.
  Rng rng(607);
  const std::int64_t rows = 257, dim = 24, probes = 4096;
  const auto data = spread_norm_sample(rng, rows, dim);
  auto unit_probes = random_floats(rng, probes * dim);
  kernels::l2_normalize_rows(unit_probes.data(), probes, dim, nullptr, 1e-12f);
  auto scaled = [&](float f) {
    auto v = data;
    for (auto& x : v) x *= f;
    return v;
  };
  for (CodeLayout layout : {CodeLayout::k1Bit, CodeLayout::k2Bit}) {
    const auto base = search::Binarizer::fit(data.data(), rows, dim, layout);
    std::vector<std::uint32_t> want(
        static_cast<std::size_t>(probes * base.words_per_row()));
    base.encode(unit_probes.data(), probes, want.data());
    for (const float f : {0.125f, 8.0f, 10.0f}) {
      const auto v = scaled(f);
      const auto b = search::Binarizer::fit(v.data(), rows, dim, layout);
      const std::string label =
          "layout " + std::to_string(static_cast<int>(layout)) + " x" +
          std::to_string(f);
      if (f != 10.0f) {
        EXPECT_EQ(threshold_bytes(base), threshold_bytes(b)) << label;
      }
      std::vector<std::uint32_t> got(want.size());
      b.encode(unit_probes.data(), probes, got.data());
      EXPECT_EQ(got, want) << label;
    }
  }
}

TEST(Binarizer, LoadRejectsHugeDimBeforeSizingCodes) {
  // A crafted dim must fail the threshold-array check before anything sizes
  // codes from it: the 2-bit word count of dim 2^62 overflows int64.
  const std::string path = testing::TempDir() + "cq_binarizer_huge_dim.bin";
  BinaryWriter w(path);
  w.write_u32(static_cast<std::uint32_t>(CodeLayout::k2Bit));
  w.write_u64(std::uint64_t{1} << 62);
  w.write_f32_array({});
  w.write_f32_array({});
  w.close();
  BinaryReader r(path);
  EXPECT_THROW(search::Binarizer::load(r), CheckError);
}

// ---- Index -----------------------------------------------------------------

Index make_random_index(Rng& rng, std::int64_t rows, std::int64_t dim,
                        CodeLayout layout, bool store_embeddings,
                        std::vector<float>* embeddings_out = nullptr) {
  auto embeddings = random_floats(rng, rows * dim);
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    ids[r] = 1000 + static_cast<std::uint64_t>(r);
  IndexConfig cfg;
  cfg.dim = dim;
  cfg.layout = layout;
  cfg.store_embeddings = store_embeddings;
  Index index(cfg, search::Binarizer::sign(dim, layout));
  index.add(embeddings.data(), ids.data(), rows);
  if (embeddings_out) *embeddings_out = std::move(embeddings);
  return index;
}

/// One oracle candidate as (dist, row): the pair's own order is the index's
/// total order, nearer first and ties to the lower row.
using DistRow = std::pair<std::uint32_t, std::int64_t>;

/// Brute-force top-k oracle: scalar-twin distances over the index's own
/// codes + partial_sort under the (dist, row) order.
std::vector<DistRow> oracle_topk(const Index& index,
                                 const std::vector<float>& query,
                                 std::int64_t k) {
  const std::int64_t rows = index.size(), words = index.words_per_row();
  std::vector<std::uint32_t> qcode(static_cast<std::size_t>(words));
  std::vector<float> qn = query;
  kernels::l2_normalize_rows(qn.data(), 1, index.dim(), nullptr, 1e-12f);
  index.binarizer().encode(qn.data(), 1, qcode.data());
  std::vector<DistRow> all(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    all[r] = {kernels::scalar::hamming_distance(
                  index.codes().data() + r * words, qcode.data(), words),
              r};
  std::partial_sort(all.begin(), all.begin() + k, all.end());
  all.resize(static_cast<std::size_t>(k));
  return all;
}

TEST(SearchIndex, QueryMatchesBruteForceOracle) {
  Rng rng(707);
  const std::int64_t rows = 500, dim = 48;
  Index index = make_random_index(rng, rows, dim, CodeLayout::k1Bit, false);
  QueryOptions opts;
  opts.k = 7;
  QueryScratch scratch;
  std::vector<Result> hits(7);
  for (int q = 0; q < 10; ++q) {
    const auto query = random_floats(rng, dim);
    const auto n = index.query(query.data(), opts, scratch, hits.data());
    ASSERT_EQ(n, 7);
    const auto all = oracle_topk(index, query, 7);
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(hits[i].id, 1000 + static_cast<std::uint64_t>(all[i].second));
      EXPECT_EQ(hits[i].dist, all[i].first);
    }
  }
}

TEST(SearchIndex, RerankReturnsExactCosineOrder) {
  Rng rng(808);
  const std::int64_t rows = 300, dim = 32;
  std::vector<float> embeddings;
  Index index = make_random_index(rng, rows, dim, CodeLayout::k1Bit, true,
                                  &embeddings);
  QueryOptions opts;
  opts.k = 5;
  opts.overfetch = 60;  // pool = 300 = whole index -> rerank is exact
  opts.rerank = true;
  QueryScratch scratch;
  std::vector<Result> hits(5);
  const auto query = random_floats(rng, dim);
  ASSERT_EQ(index.query(query.data(), opts, scratch, hits.data()), 5);

  const auto gt = search::cosine_ground_truth(embeddings.data(), rows,
                                              query.data(), 1, dim, 5);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(hits[i].id, 1000 + static_cast<std::uint64_t>(gt[0][i])) << i;
  for (int i = 1; i < 5; ++i)
    EXPECT_GE(hits[i - 1].score, hits[i].score);
}

TEST(SearchIndex, RerankRanksNaNScoresLastAndSelectsAFullSortsPrefix) {
  // Every third stored embedding holds a NaN, so its cosine is NaN. With the
  // pool spanning the index, the full result list must be the finite scores
  // descending, then the NaN rows by row; a smaller k must return its prefix.
  Rng rng(810);
  const std::int64_t rows = 300, dim = 32;
  auto embeddings = random_floats(rng, rows * dim);
  for (std::int64_t r = 0; r < rows; r += 3)
    embeddings[static_cast<std::size_t>(r * dim + 5)] =
        std::numeric_limits<float>::quiet_NaN();
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    ids[static_cast<std::size_t>(r)] = 1000 + static_cast<std::uint64_t>(r);
  IndexConfig cfg;
  cfg.dim = dim;
  cfg.store_embeddings = true;
  Index index(cfg, search::Binarizer::sign(dim, CodeLayout::k1Bit));
  index.add(embeddings.data(), ids.data(), rows);
  const auto query = random_floats(rng, dim);
  QueryScratch scratch;
  QueryOptions opts;
  opts.k = rows;
  opts.rerank = true;
  std::vector<Result> all(static_cast<std::size_t>(rows));
  ASSERT_EQ(index.query(query.data(), opts, scratch, all.data()), rows);
  const std::int64_t finite = rows - (rows + 2) / 3;
  for (std::int64_t i = 0; i < rows; ++i) {
    const Result& hit = all[static_cast<std::size_t>(i)];
    ASSERT_EQ(std::isnan(hit.score), i >= finite) << i;
    if (i == 0) continue;
    const Result& prev = all[static_cast<std::size_t>(i - 1)];
    if (i < finite) {
      EXPECT_TRUE(prev.score > hit.score ||
                  (prev.score == hit.score && prev.id < hit.id)) << i;
    } else if (i > finite) {
      EXPECT_LT(prev.id, hit.id) << i;
    }
  }
  for (const std::int64_t k : {1, 10, 150, 250}) {
    opts.k = k;
    opts.overfetch = (rows + k - 1) / k;  // the pool still spans the index
    std::vector<Result> top(static_cast<std::size_t>(k));
    ASSERT_EQ(index.query(query.data(), opts, scratch, top.data()), k);
    for (std::int64_t i = 0; i < k; ++i)
      EXPECT_EQ(top[static_cast<std::size_t>(i)].id,
                all[static_cast<std::size_t>(i)].id)
          << "k " << k << " at " << i;
  }
}

TEST(SearchIndex, MultiBlockScanMatchesBruteForceOracle) {
  Rng rng(909);
  // Many scan blocks and a partial one. 2-bit codes of 24 dims span
  // distances 0..48, so 12.8k rows tie heavily: the row tiebreak and the
  // selection bound both carry across block boundaries.
  const std::int64_t rows = 12805, dim = 24;
  ASSERT_GT(rows, 3 * Index::kScanBlock);
  Index index = make_random_index(rng, rows, dim, CodeLayout::k2Bit, false);
  QueryOptions opts;
  opts.k = 13;
  opts.overfetch = 3;
  QueryScratch scratch;
  std::vector<Result> hits(13);
  for (int q = 0; q < 5; ++q) {
    const auto query = random_floats(rng, dim);
    ASSERT_EQ(index.query(query.data(), opts, scratch, hits.data()), 13);
    const auto all = oracle_topk(index, query, 13);
    for (int i = 0; i < 13; ++i) {
      EXPECT_EQ(hits[i].id, 1000 + static_cast<std::uint64_t>(all[i].second))
          << "query " << q << " rank " << i;
      EXPECT_EQ(hits[i].dist, all[i].first) << "query " << q << " rank " << i;
      EXPECT_EQ(hits[i].score, -static_cast<float>(all[i].first));
    }
  }
}

TEST(SearchIndex, NarrowRowMultiBlockScanMatchesBruteForceOracle) {
  // One-word codes (1-bit dims 8, 31, 32 and 2-bit dim 16) over many scan
  // blocks and a partial one: the one-word kernel path under the bound,
  // the buffer compaction and, with so few distinct distances, the row
  // tiebreak and the zero-bound stop.
  struct Case {
    std::int64_t dim;
    CodeLayout layout;
  };
  for (const Case c : {Case{8, CodeLayout::k1Bit}, Case{31, CodeLayout::k1Bit},
                       Case{32, CodeLayout::k1Bit},
                       Case{16, CodeLayout::k2Bit}}) {
    Rng rng(910 + static_cast<std::uint64_t>(c.dim));
    const std::int64_t rows = 12805;
    Index index = make_random_index(rng, rows, c.dim, c.layout, false);
    ASSERT_EQ(index.words_per_row(), 1);
    QueryOptions opts;
    opts.k = 10;
    opts.overfetch = 8;
    QueryScratch scratch;
    std::vector<Result> hits(10);
    for (int q = 0; q < 4; ++q) {
      const auto query = random_floats(rng, c.dim);
      ASSERT_EQ(index.query(query.data(), opts, scratch, hits.data()), 10);
      const auto all = oracle_topk(index, query, 10);
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(hits[i].id,
                  1000 + static_cast<std::uint64_t>(all[i].second))
            << "dim " << c.dim << " query " << q << " rank " << i;
        EXPECT_EQ(hits[i].dist, all[i].first)
            << "dim " << c.dim << " query " << q << " rank " << i;
      }
    }
  }
}

/// Checks one query against the oracles: without rerank, the brute-force
/// Hamming top-k (ids, dists, scores); with rerank, the cosine ground truth
/// over the brute-force pool of k * overfetch rows (ties to the lower row).
void expect_oracle_results(const Index& index,
                           const std::vector<float>& embeddings,
                           const std::vector<float>& query,
                           const QueryOptions& opts, QueryScratch& scratch,
                           const std::string& label) {
  const std::int64_t rows = index.size(), dim = index.dim();
  const std::int64_t m = std::min(opts.k * opts.overfetch, rows);
  const std::int64_t want = std::min(opts.k, rows);
  std::vector<Result> hits(static_cast<std::size_t>(opts.k));
  ASSERT_EQ(index.query(query.data(), opts, scratch, hits.data()), want)
      << label;
  EXPECT_EQ(scratch.pooled(), m) << label;
  const auto pool = oracle_topk(index, query, m);
  if (!opts.rerank) {
    for (std::int64_t i = 0; i < want; ++i) {
      EXPECT_EQ(hits[i].id, 1000 + static_cast<std::uint64_t>(pool[i].second))
          << label << " rank " << i;
      EXPECT_EQ(hits[i].dist, pool[i].first) << label << " rank " << i;
      EXPECT_EQ(hits[i].score, -static_cast<float>(pool[i].first)) << label;
    }
    return;
  }
  // The pool's rows in ascending row order, so ground-truth ties (to the
  // lower local index) break toward the lower row as the index does.
  std::vector<std::int64_t> pool_rows;
  for (const auto& c : pool) pool_rows.push_back(c.second);
  std::sort(pool_rows.begin(), pool_rows.end());
  std::vector<float> pool_emb;
  for (std::int64_t r : pool_rows)
    pool_emb.insert(pool_emb.end(), embeddings.begin() + r * dim,
                    embeddings.begin() + (r + 1) * dim);
  const auto gt = search::cosine_ground_truth(pool_emb.data(), m,
                                              query.data(), 1, dim, want);
  for (std::int64_t i = 0; i < want; ++i) {
    const std::int64_t row = pool_rows[gt[0][i]];
    EXPECT_EQ(hits[i].id, 1000 + static_cast<std::uint64_t>(row))
        << label << " rank " << i;
    const auto it =
        std::find_if(pool.begin(), pool.end(),
                     [&](const DistRow& c) { return c.second == row; });
    ASSERT_NE(it, pool.end()) << label;
    EXPECT_EQ(hits[i].dist, it->first) << label << " rank " << i;
    if (i > 0) {
      EXPECT_GE(hits[i - 1].score, hits[i].score) << label;
    }
  }
}

/// An index of `rows` random embeddings plus the embeddings themselves.
struct OracleIndex {
  Index index;
  std::vector<float> embeddings;
};

OracleIndex make_oracle_index(std::vector<float> embeddings,
                              std::int64_t dim, CodeLayout layout) {
  const std::int64_t rows = static_cast<std::int64_t>(embeddings.size()) / dim;
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    ids[r] = 1000 + static_cast<std::uint64_t>(r);
  IndexConfig cfg;
  cfg.dim = dim;
  cfg.layout = layout;
  cfg.store_embeddings = true;
  Index index(cfg, search::Binarizer::sign(dim, layout));
  index.add(embeddings.data(), ids.data(), rows);
  return {std::move(index), std::move(embeddings)};
}

TEST(SearchIndex, ZeroBoundStopMatchesOracles) {
  // More than m rows share the query's code (distance 0): a few in the
  // arming rows, then enough in one block for the m-th to fall mid-block or
  // on the block's last row, and more after the point where the scan may
  // stop. Every later zero-distance row loses to the m held at lower rows.
  const std::int64_t dim = 64, B = Index::kScanBlock;
  QueryOptions opts;
  opts.k = 5;
  opts.overfetch = 4;
  const std::int64_t m = opts.k * opts.overfetch;
  const std::int64_t rows = m + 5 * B + 37;
  for (const bool block_edge : {false, true}) {
    Rng rng(block_edge ? 1402 : 1401);
    const auto query = random_floats(rng, dim);
    auto emb = random_floats(rng, rows * dim);
    auto make_twin = [&](std::int64_t r) {  // same signs, other magnitudes
      for (std::int64_t j = 0; j < dim; ++j)
        emb[r * dim + j] =
            query[j] * static_cast<float>(rng.uniform(0.5, 1.5));
    };
    for (std::int64_t r : {2, 7, 11}) make_twin(r);
    // The m-th twin lands at `last`, inside the second scanned block.
    const std::int64_t last = block_edge ? m + 2 * B - 1 : m + B + B / 2;
    std::int64_t placed = 3;
    for (std::int64_t r = last; placed < m; r -= 3, ++placed) make_twin(r);
    ASSERT_GE(last - 3 * (m - 4), m + B);  // all in the second block
    for (std::int64_t r = last + 1; r < last + 40; r += 2) make_twin(r);
    for (std::int64_t r = rows - 20; r < rows; ++r) make_twin(r);
    for (CodeLayout layout : {CodeLayout::k1Bit, CodeLayout::k2Bit}) {
      const auto oi = make_oracle_index(emb, dim, layout);
      for (const bool rerank : {false, true}) {
        opts.rerank = rerank;
        QueryScratch scratch;
        const std::string label =
            std::string(block_edge ? "edge" : "mid") + " layout " +
            std::to_string(static_cast<int>(layout)) +
            (rerank ? " rerank" : "");
        expect_oracle_results(oi.index, oi.embeddings, query, opts, scratch,
                              label);
        EXPECT_LT(scratch.compared(), rows) << label << ": no zero-bound stop";
        EXPECT_GE(scratch.compared(), last + 1) << label;
      }
    }
  }
}

TEST(SearchIndex, PoolWiderThanScanBlockMatchesOracles) {
  Rng rng(1501);
  const std::int64_t dim = 20;  // 1-bit distances 0..20: heavy ties
  QueryOptions opts;
  opts.k = 9;
  opts.overfetch = 2 * Index::kScanBlock / 9 + 5;
  ASSERT_GT(opts.k * opts.overfetch, Index::kScanBlock);
  const std::int64_t rows = 6 * Index::kScanBlock + 123;
  for (CodeLayout layout : {CodeLayout::k1Bit, CodeLayout::k2Bit}) {
    const auto oi =
        make_oracle_index(random_floats(rng, rows * dim), dim, layout);
    for (const bool rerank : {false, true}) {
      opts.rerank = rerank;
      QueryScratch scratch;
      for (int q = 0; q < 3; ++q) {
        const std::string label = "layout " +
                                  std::to_string(static_cast<int>(layout)) +
                                  (rerank ? " rerank" : "") + " q" +
                                  std::to_string(q);
        expect_oracle_results(oi.index, oi.embeddings,
                              random_floats(rng, dim), opts, scratch, label);
        EXPECT_EQ(scratch.compared(), rows) << label;
      }
    }
  }
}

TEST(SearchIndex, IndexNoLargerThanPoolMatchesOracles) {
  Rng rng(1601);
  const std::int64_t dim = 40;
  QueryOptions opts;
  opts.k = 10;
  opts.overfetch = 8;
  // Fewer rows than k, between k and m, and exactly m: the arming rows are
  // the whole index.
  for (std::int64_t rows : {6, 37, 80}) {
    for (CodeLayout layout : {CodeLayout::k1Bit, CodeLayout::k2Bit}) {
      const auto oi =
          make_oracle_index(random_floats(rng, rows * dim), dim, layout);
      for (const bool rerank : {false, true}) {
        opts.rerank = rerank;
        QueryScratch scratch;
        const std::string label =
            "rows " + std::to_string(rows) + " layout " +
            std::to_string(static_cast<int>(layout)) +
            (rerank ? " rerank" : "");
        expect_oracle_results(oi.index, oi.embeddings,
                              random_floats(rng, dim), opts, scratch, label);
        EXPECT_EQ(scratch.compared(), rows) << label;
      }
    }
  }
}

TEST(SearchIndex, FitOnLargeNormSampleGivesBalancedCodes) {
  // Raw features far from unit norm (here ~280, all coordinates positive):
  // thresholds fit at that scale would sit above every unit-row coordinate
  // and set no bit at all. Fit on the sample itself, each bit splits the
  // rows near the median, and the codes are nearly all distinct.
  Rng rng(1701);
  const std::int64_t rows = 512, dim = 32;
  std::vector<float> emb(static_cast<std::size_t>(rows * dim));
  for (auto& v : emb) v = static_cast<float>(50.0 + 10.0 * rng.normal());
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    ids[r] = static_cast<std::uint64_t>(r);
  IndexConfig cfg;
  cfg.dim = dim;
  Index index(cfg, search::Binarizer::fit(emb.data(), rows, dim,
                                          CodeLayout::k1Bit));
  index.add(emb.data(), ids.data(), rows);
  const auto& codes = index.codes();
  for (std::int64_t j = 0; j < dim; ++j) {
    std::int64_t set = 0;
    for (std::int64_t r = 0; r < rows; ++r) set += (codes[r] >> j) & 1;
    EXPECT_GE(set, rows * 4 / 10) << "bit " << j;
    EXPECT_LE(set, rows * 6 / 10) << "bit " << j;
  }
  auto distinct = codes;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  EXPECT_GT(static_cast<std::int64_t>(distinct.size()), rows * 9 / 10);
}

TEST(SearchIndex, ZeroAllocQuerySteadyState) {
  Rng rng(1010);
  const std::int64_t rows = 8192, dim = 64;
  Index index = make_random_index(rng, rows, dim, CodeLayout::k1Bit, false);
  QueryOptions opts;
  opts.k = 10;
  QueryScratch scratch;
  index.prepare(opts, scratch);
  const auto query = random_floats(rng, dim);
  std::vector<Result> hits(10);
  // First query may still size lazy pieces; afterwards the path is clean.
  index.query(query.data(), opts, scratch, hits.data());
  const auto before = test::heap_allocs();
  for (int i = 0; i < 20; ++i)
    index.query(query.data(), opts, scratch, hits.data());
  EXPECT_EQ(test::heap_allocs() - before, 0u)
      << "steady-state query path must not touch the heap";
}

TEST(SearchIndex, SaveLoadRoundTripAndTruncationRegression) {
  Rng rng(1111);
  const std::int64_t rows = 200, dim = 40;
  Index index = make_random_index(rng, rows, dim, CodeLayout::k2Bit, true);
  ASSERT_EQ(index.words_per_row(), 3);  // an odd word count
  const std::string path = testing::TempDir() + "cq_search_index.bin";
  index.save(path);

  Index loaded = Index::load(path);
  EXPECT_EQ(loaded.size(), rows);
  EXPECT_EQ(loaded.dim(), dim);
  EXPECT_EQ(loaded.layout(), CodeLayout::k2Bit);
  EXPECT_EQ(loaded.codes(), index.codes());
  EXPECT_EQ(loaded.embeddings(), index.embeddings());

  QueryOptions opts;
  opts.k = 9;
  opts.overfetch = 4;
  opts.rerank = true;
  QueryScratch s1, s2;
  std::vector<Result> a(9), b(9);
  const auto query = random_floats(rng, dim);
  ASSERT_EQ(index.query(query.data(), opts, s1, a.data()),
            loaded.query(query.data(), opts, s2, b.data()));
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].dist, b[i].dist);
    EXPECT_EQ(a[i].score, b[i].score);
  }

  // Truncation must fail loudly, at any cut point.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{10}}) {
    const std::string cut = testing::TempDir() + "cq_search_truncated.bin";
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_THROW(Index::load(cut), CheckError) << "keep=" << keep;
  }
  // expect_eof regression: trailing garbage is corruption, not slack.
  const std::string padded = testing::TempDir() + "cq_search_padded.bin";
  std::ofstream out(padded, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.put('\x7f');
  out.close();
  EXPECT_THROW(Index::load(padded), CheckError);
}

TEST(SearchIndex, IncrementalAddIsQueriedImmediately) {
  Rng rng(1212);
  const std::int64_t dim = 16;
  Index index = make_random_index(rng, 50, dim, CodeLayout::k1Bit, false);
  const auto query = random_floats(rng, dim);
  // Adding the query itself (new id 9999) must make it the top hit.
  const std::uint64_t id = 9999;
  index.add(query.data(), &id, 1);
  EXPECT_EQ(index.size(), 51);
  QueryOptions opts;
  opts.k = 1;
  QueryScratch scratch;
  Result hit;
  ASSERT_EQ(index.query(query.data(), opts, scratch, &hit), 1);
  EXPECT_EQ(hit.id, id);
  EXPECT_EQ(hit.dist, 0u);
}

// ---- recall eval -----------------------------------------------------------

TEST(Recall, RerankAndMoreBitsImproveOrMatchRecall) {
  Rng rng(1313);
  const std::int64_t rows = 400, nq = 30, dim = 32;
  // Clustered data (not uniform noise) so Hamming codes carry real signal.
  std::vector<float> base(rows * dim), queries(nq * dim);
  auto fill = [&](std::vector<float>& m, std::int64_t n) {
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int64_t c = r % 8;
      for (std::int64_t j = 0; j < dim; ++j)
        m[r * dim + j] = static_cast<float>(
            ((j % 8 == c) ? 1.0 : 0.0) + 0.3 * rng.normal());
    }
  };
  fill(base, rows);
  fill(queries, nq);
  search::RecallConfig cfg;
  cfg.k = 10;
  cfg.overfetch = 8;
  const auto report =
      search::recall_vs_bits(base.data(), rows, queries.data(), nq, dim, cfg);
  ASSERT_EQ(report.points.size(), 4u);
  for (const auto& p : report.points) {
    EXPECT_GT(p.recall_at_k, 0.1) << p.variant;
    EXPECT_LE(p.recall_at_k, 1.0) << p.variant;
  }
  // Reranking an overfetched pool can only improve the expected overlap.
  EXPECT_GE(report.recall("1bit_rerank") + 1e-9, report.recall("1bit"));
  EXPECT_GE(report.recall("2bit_rerank") + 1e-9, report.recall("2bit"));
}

// ---- Service (engine-backed end-to-end) ------------------------------------

constexpr std::int64_t kH = 12, kW = 12;

/// Train-warmed tiny resnet18 checkpoint shared across service tests (same
/// fixture recipe as test_serve.cpp).
const std::string& checkpoint_path() {
  static const std::string path = [] {
    Rng rng(7);
    auto enc = models::make_encoder("resnet18", rng);
    enc.backbone->set_mode(nn::Mode::kTrain);
    for (int i = 0; i < 8; ++i) {
      enc.forward(Tensor::uniform(Shape{4, 3, kH, kW}, rng));
      enc.backbone->clear_cache();
    }
    enc.backbone->set_mode(nn::Mode::kEval);
    std::string p = testing::TempDir() + "cq_search_ckpt.bin";
    models::save_module(p, *enc.backbone);
    return p;
  }();
  return path;
}

search::ServiceConfig service_config(std::size_t workers) {
  search::ServiceConfig cfg;
  cfg.engine.checkpoint = checkpoint_path();
  cfg.engine.arch = "resnet18";
  cfg.engine.in_h = kH;
  cfg.engine.in_w = kW;
  cfg.engine.workers = workers;
  cfg.engine.max_batch = 4;
  return cfg;
}

Index make_service_index(std::int64_t rows, std::int64_t dim,
                         std::uint64_t seed) {
  Rng rng(seed);
  return make_random_index(rng, rows, dim, CodeLayout::k1Bit, false);
}

TEST(SearchService, EndToEndDeterministicAcrossWorkerCounts) {
  const std::int64_t dim = 64;  // resnet18 feature_dim
  std::vector<Result> a(5), b(5);
  std::int64_t na = 0, nb = 0;
  Rng rng(42);
  const Tensor image = Tensor::uniform(Shape{1, 3, kH, kW}, rng, -1.f, 1.f);
  QueryOptions opts;
  opts.k = 5;
  for (int pass = 0; pass < 2; ++pass) {
    search::Service svc(service_config(pass == 0 ? 1 : 2),
                        make_service_index(3000, dim, 99));
    search::Service::Context ctx;
    svc.prewarm(opts, ctx);
    auto* hits = pass == 0 ? a.data() : b.data();
    auto* n = pass == 0 ? &na : &nb;
    ASSERT_EQ(svc.search(image.data(), opts, ctx, hits, n),
              serve::Status::kOk);
    svc.stop();
  }
  ASSERT_EQ(na, nb);
  ASSERT_EQ(na, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].dist, b[i].dist) << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].score),
              std::bit_cast<std::uint32_t>(b[i].score));
  }
}

TEST(SearchService, ExpiredDeadlineNeverScans) {
  search::Service svc(service_config(1), make_service_index(100, 64, 5));
  search::Service::Context ctx;
  Rng rng(43);
  const Tensor image = Tensor::uniform(Shape{1, 3, kH, kW}, rng, -1.f, 1.f);
  QueryOptions opts;
  std::vector<Result> hits(10);
  std::int64_t n = 0;
  const auto already_past = serve::Clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(svc.search(image.data(), opts, ctx, hits.data(), &n,
                       already_past),
            serve::Status::kTimeout);
  EXPECT_EQ(n, 0);
  EXPECT_EQ(svc.search_stats().queries, 0u);  // the scan never ran
  svc.stop();
}

TEST(SearchService, StatsJsonReportsEngineAndSearchSections) {
  search::Service svc(service_config(1), make_service_index(2000, 64, 6));
  search::Service::Context ctx;
  Rng rng(44);
  const Tensor image = Tensor::uniform(Shape{1, 3, kH, kW}, rng, -1.f, 1.f);
  QueryOptions opts;
  opts.k = 3;
  svc.prewarm(opts, ctx);
  std::vector<Result> hits(3);
  std::int64_t n = 0;
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(svc.search(image.data(), opts, ctx, hits.data(), &n),
              serve::Status::kOk);
  const auto stats = svc.search_stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.results, 12u);
  EXPECT_EQ(stats.codes_scanned, 4u * 2000u);
  EXPECT_EQ(stats.e2e_latency.count(), 4u);
  // Scan time accumulates in nanoseconds; the microsecond field and the
  // rate derive from the sum, not from per-query truncated microseconds.
  EXPECT_GT(stats.scan_nanos, 0u);
  EXPECT_EQ(stats.scan_micros, stats.scan_nanos / 1000);
  EXPECT_DOUBLE_EQ(stats.scan_codes_per_s,
                   4.0 * 2000.0 / (static_cast<double>(stats.scan_nanos) /
                                   1e9));
  const std::string json = svc.stats_json();
  for (const char* key :
       {"\"engine\"", "\"search\"", "\"codes_scanned\"",
        "\"scan_codes_per_s\"", "\"candidates_per_s\"", "\"e2e_latency\"",
        "\"p99_us\"", "\"steady_heap_allocs\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  svc.stop();
}

TEST(SearchService, CodesScannedCountsComparedRows) {
  // The first rows share the query's code, so the bound is 0 once the
  // arming rows are in and the scan stops there: the counter must report
  // the rows compared, not the index size.
  const std::int64_t rows = 3000, dim = 64;
  Rng rng(45);
  const auto query = random_floats(rng, dim);
  auto emb = random_floats(rng, rows * dim);
  for (std::int64_t r = 0; r < 40; ++r)
    for (std::int64_t j = 0; j < dim; ++j)
      emb[r * dim + j] = query[j] * static_cast<float>(rng.uniform(0.5, 1.5));
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    ids[r] = static_cast<std::uint64_t>(r);
  IndexConfig cfg;
  cfg.dim = dim;
  Index index(cfg, search::Binarizer::sign(dim, CodeLayout::k1Bit));
  index.add(emb.data(), ids.data(), rows);
  search::Service svc(service_config(1), std::move(index));
  QueryOptions opts;
  opts.k = 3;
  opts.overfetch = 2;
  QueryScratch scratch;
  std::vector<Result> hits(3);
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(svc.search_features(query.data(), opts, scratch, hits.data()), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[i].id, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(scratch.compared(), 6);  // the arming rows alone
  const auto stats = svc.search_stats();
  EXPECT_EQ(stats.codes_scanned, 2u * 6u);
  EXPECT_EQ(stats.candidates, 2u * 6u);
  svc.stop();
}

// The tsan target: concurrent queries against concurrent incremental adds
// must be race-free (shared vs exclusive lock on the index) while every
// query still sees a consistent snapshot (count == min(k, some valid size)).
TEST(SearchService, ConcurrentQueryAndIncrementalAdd) {
  search::Service svc(service_config(1), make_service_index(1500, 64, 8));
  const std::int64_t dim = 64;
  std::atomic<bool> go{false}, stop{false};
  std::atomic<std::uint64_t> searches{0};

  std::thread adder([&] {
    Rng rng(77);
    while (!go.load()) std::this_thread::yield();
    for (int batch = 0; batch < 40; ++batch) {
      // Pace against query progress so adds genuinely interleave with
      // scans (otherwise a single core can drain all 40 batches before the
      // queriers ever run).
      while (searches.load() < static_cast<std::uint64_t>(batch))
        std::this_thread::yield();
      std::vector<float> rows(16 * dim);
      for (auto& v : rows) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      std::vector<std::uint64_t> ids(16);
      for (int i = 0; i < 16; ++i)
        ids[i] = 100000 + static_cast<std::uint64_t>(batch * 16 + i);
      svc.add(rows.data(), ids.data(), 16);
    }
    stop.store(true);
  });

  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t)
    queriers.emplace_back([&, t] {
      Rng rng(500 + static_cast<std::uint64_t>(t));
      QueryOptions opts;
      opts.k = 10;
      QueryScratch scratch;
      std::vector<Result> hits(10);
      std::vector<float> q(dim);
      while (!go.load()) std::this_thread::yield();
      while (!stop.load()) {
        for (auto& v : q) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const auto n =
            svc.search_features(q.data(), opts, scratch, hits.data());
        ASSERT_EQ(n, 10);
        searches.fetch_add(1);
      }
    });

  go.store(true);
  adder.join();
  for (auto& th : queriers) th.join();
  EXPECT_EQ(svc.index().size(), 1500 + 40 * 16);
  EXPECT_GT(searches.load(), 0u);
  svc.stop();
}

}  // namespace
}  // namespace cq
