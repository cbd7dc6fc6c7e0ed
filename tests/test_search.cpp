// Vector search subsystem (DESIGN.md §15): Hamming/binarize kernel fuzz
// (backend vs scalar twin, odd tails, 2-bit layout), bounded top-k vs a
// std::partial_sort oracle, index build/query/save/load against a
// brute-force oracle (one scan block and several), the 0-alloc steady-state
// contract of the query path, and the serve-engine-backed Service
// (encode -> binarize -> scan) including concurrent query + incremental add
// (the tsan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "counting_new.hpp"
#include "models/encoder.hpp"
#include "search/index.hpp"
#include "search/recall.hpp"
#include "search/service.hpp"
#include "search/topk.hpp"
#include "tensor/kernels/hamming.hpp"
#include "tensor/kernels/kernels.hpp"
#include "testutil.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

using search::Candidate;
using search::CodeLayout;
using search::Index;
using search::IndexConfig;
using search::QueryOptions;
using search::QueryScratch;
using search::Result;
using search::TopK;

std::vector<std::uint64_t> random_words(Rng& rng, std::int64_t n) {
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = rng.next_u64();
  return v;
}

std::vector<float> random_floats(Rng& rng, std::int64_t n, double lo = -1.0,
                                 double hi = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// ---- kernel fuzz: backend vs scalar twin -----------------------------------

TEST(HammingKernels, PopcountMatchesScalarAndOracle) {
  Rng rng(101);
  for (std::int64_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 100, 1023}) {
    const auto words = random_words(rng, n);
    std::uint64_t oracle = 0;
    for (auto w : words)
      oracle += static_cast<std::uint64_t>(std::popcount(w));
    EXPECT_EQ(kernels::popcount_u64(words.data(), n), oracle) << "n=" << n;
    EXPECT_EQ(kernels::scalar::popcount_u64(words.data(), n), oracle);
  }
}

TEST(HammingKernels, DistanceAndScanMatchScalarFuzz) {
  Rng rng(202);
  for (std::int64_t words : {1, 2, 3, 4, 5, 7, 8, 13}) {
    for (std::int64_t rows : {1, 2, 3, 5, 17, 100, 259}) {
      const auto base = random_words(rng, rows * words);
      const auto query = random_words(rng, words);
      std::vector<std::uint32_t> got(static_cast<std::size_t>(rows));
      std::vector<std::uint32_t> want(static_cast<std::size_t>(rows));
      kernels::hamming_scan(query.data(), base.data(), rows, words,
                            got.data());
      kernels::scalar::hamming_scan(query.data(), base.data(), rows, words,
                                    want.data());
      for (std::int64_t r = 0; r < rows; ++r) {
        ASSERT_EQ(got[r], want[r]) << "words=" << words << " row=" << r;
        // The scan must agree with the pairwise twin and a naive oracle.
        std::uint32_t oracle = 0;
        for (std::int64_t w = 0; w < words; ++w)
          oracle += static_cast<std::uint32_t>(
              std::popcount(base[r * words + w] ^ query[w]));
        ASSERT_EQ(got[r], oracle);
        ASSERT_EQ(kernels::scalar::hamming_distance(base.data() + r * words,
                                                    query.data(), words),
                  oracle);
      }
    }
  }
}

TEST(HammingKernels, FilterLtMatchesScalarAtBoundaryLimits) {
  Rng rng(2020);
  for (std::int64_t n : {0, 1, 7, 8, 9, 63, 64, 100, 4097}) {
    std::vector<std::uint32_t> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = static_cast<std::uint32_t>(rng.next_u64() % 97);
    // Limits straddle the value range: 0 (reject all), 1, a mid value, the
    // max value, past-the-end, and the extreme. Index lists must be
    // identical (both ascending) and match a naive oracle.
    for (std::uint32_t limit : {0u, 1u, 48u, 96u, 97u, 0xFFFFFFFFu}) {
      std::vector<std::int32_t> got(static_cast<std::size_t>(n) + 1, -1);
      std::vector<std::int32_t> want(static_cast<std::size_t>(n) + 1, -1);
      const std::int64_t ng =
          kernels::filter_lt_u32(x.data(), n, limit, got.data());
      const std::int64_t nw =
          kernels::scalar::filter_lt_u32(x.data(), n, limit, want.data());
      ASSERT_EQ(ng, nw) << "n=" << n << " limit=" << limit;
      std::int64_t cnt = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        if (x[static_cast<std::size_t>(i)] >= limit) continue;
        ASSERT_EQ(got[static_cast<std::size_t>(cnt)], i) << "limit=" << limit;
        ++cnt;
      }
      ASSERT_EQ(ng, cnt);
      for (std::int64_t i = 0; i < ng; ++i)
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  want[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(HammingKernels, Binarize1BitMatchesScalarWithOddTails) {
  Rng rng(303);
  for (std::int64_t cols : {1, 3, 7, 8, 9, 31, 63, 64, 65, 100, 129}) {
    const std::int64_t rows = 5;
    const std::int64_t words = (cols + 63) / 64;
    auto x = random_floats(rng, rows * cols);
    auto thr = random_floats(rng, cols, -0.5, 0.5);
    // Exercise the strict-> boundary and the NaN->false convention.
    x[0] = thr[0];
    if (cols > 2) x[2] = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::uint64_t> got(static_cast<std::size_t>(rows * words),
                                   0xFFFFFFFFFFFFFFFFull);
    auto want = got;
    kernels::binarize_1bit(x.data(), rows, cols, thr.data(), words,
                           got.data());
    kernels::scalar::binarize_1bit(x.data(), rows, cols, thr.data(), words,
                                   want.data());
    EXPECT_EQ(got, want) << "cols=" << cols;
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t j = 0; j < cols; ++j) {
        const bool bit =
            (got[r * words + (j >> 6)] >> (j & 63)) & 1;
        EXPECT_EQ(bit, x[r * cols + j] > thr[j]) << r << "," << j;
      }
    // Trailing bits of the last word must be zeroed, never garbage.
    if (cols % 64 != 0) {
      for (std::int64_t r = 0; r < rows; ++r)
        EXPECT_EQ(got[r * words + words - 1] >> (cols % 64), 0u);
    }
  }
}

TEST(HammingKernels, Binarize2BitThermometerMatchesScalar) {
  Rng rng(404);
  for (std::int64_t cols : {1, 3, 5, 8, 16, 31, 32, 33, 64, 100}) {
    const std::int64_t rows = 4;
    const std::int64_t words = (2 * cols + 63) / 64;
    const auto x = random_floats(rng, rows * cols);
    auto lo = random_floats(rng, cols, -0.5, 0.0);
    auto hi = random_floats(rng, cols, 0.0, 0.5);
    std::vector<std::uint64_t> got(static_cast<std::size_t>(rows * words),
                                   0xFFFFFFFFFFFFFFFFull);
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

// ---- bounded top-k vs oracle -----------------------------------------------

TEST(TopKHeap, MatchesPartialSortOracle) {
  Rng rng(606);
  TopK topk;
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(
                                   rng.uniform_index(400));
    const std::int64_t k = 1 + static_cast<std::int64_t>(
                                   rng.uniform_index(40));
    std::vector<Candidate> stream(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
      // Small distance range forces heavy ties -> exercises the row
      // tiebreak of the total order.
      stream[i] = {static_cast<std::uint32_t>(rng.uniform_index(8)), i};
    topk.reset(k);
    for (const auto& c : stream) topk.push(c);
    auto got = topk.sorted();

    auto oracle = stream;
    const auto kk = std::min<std::int64_t>(k, n);
    std::partial_sort(oracle.begin(), oracle.begin() + kk, oracle.end(),
                      search::candidate_less);
    ASSERT_EQ(static_cast<std::int64_t>(got.size()), kk);
    for (std::int64_t i = 0; i < kk; ++i) {
      EXPECT_EQ(got[i].dist, oracle[i].dist) << trial << ":" << i;
      EXPECT_EQ(got[i].row, oracle[i].row) << trial << ":" << i;
    }
  }
}

// ---- Binarizer fit ---------------------------------------------------------

TEST(Binarizer, FitUsesPerCoordinateOrderStatistics) {
  // Column 0 constant, column 1 a known ramp: the median/tertiles are
  // exact order statistics of each coordinate independently.
  const std::int64_t rows = 9, dim = 2;
  std::vector<float> data(rows * dim);
  for (std::int64_t r = 0; r < rows; ++r) {
    data[r * dim + 0] = 5.0f;
    data[r * dim + 1] = static_cast<float>(r);  // 0..8
  }
  auto b1 = search::Binarizer::fit(data.data(), rows, dim,
                                   CodeLayout::k1Bit);
  std::vector<std::uint64_t> code(1);
  std::vector<float> probe = {5.0f, 4.0f};  // exactly at both medians
  b1.encode(probe.data(), 1, code.data());
  EXPECT_EQ(code[0] & 3u, 0u);  // strict >: at-threshold stays 0
  probe = {5.5f, 4.5f};
  b1.encode(probe.data(), 1, code.data());
  EXPECT_EQ(code[0] & 3u, 3u);

  auto b2 = search::Binarizer::fit(data.data(), rows, dim,
                                   CodeLayout::k2Bit);
  // Ramp column: lo = value at rank 3 (=3), hi = value at rank 6 (=6).
  probe = {5.0f, 3.5f};
  b2.encode(probe.data(), 1, code.data());
  EXPECT_EQ((code[0] >> 2) & 3u, 1u);  // above lo, below hi
  probe = {5.0f, 6.5f};
  b2.encode(probe.data(), 1, code.data());
  EXPECT_EQ((code[0] >> 2) & 3u, 3u);  // above both
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

/// Brute-force top-k oracle: scalar-twin scan over the index's own codes +
/// partial_sort under the (dist, row) order.
std::vector<Candidate> oracle_topk(const Index& index,
                                   const std::vector<float>& query,
                                   std::int64_t k) {
  const std::int64_t rows = index.size(), words = index.words_per_row();
  std::vector<std::uint64_t> qcode(static_cast<std::size_t>(words));
  std::vector<float> qn = query;
  kernels::l2_normalize_rows(qn.data(), 1, index.dim(), nullptr, 1e-12f);
  index.binarizer().encode(qn.data(), 1, qcode.data());
  std::vector<Candidate> all(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    all[r] = {kernels::scalar::hamming_distance(
                  index.codes().data() + r * words, qcode.data(), words),
              r};
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    search::candidate_less);
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
      EXPECT_EQ(hits[i].id, 1000 + static_cast<std::uint64_t>(all[i].row));
      EXPECT_EQ(hits[i].dist, all[i].dist);
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

TEST(SearchIndex, MultiBlockScanMatchesBruteForceOracle) {
  Rng rng(909);
  // > 2 full scan blocks and a partial one. 2-bit codes of 24 dims span
  // distances 0..48, so 12.8k rows tie heavily: the row tiebreak and the
  // heap's pruning bound both carry across block boundaries.
  const std::int64_t rows = 3 * Index::kScanBlock + 517, dim = 24;
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
      EXPECT_EQ(hits[i].id, 1000 + static_cast<std::uint64_t>(all[i].row))
          << "query " << q << " rank " << i;
      EXPECT_EQ(hits[i].dist, all[i].dist) << "query " << q << " rank " << i;
      EXPECT_EQ(hits[i].score, -static_cast<float>(all[i].dist));
    }
  }
}

TEST(SearchIndex, ZeroAllocQuerySteadyState) {
  Rng rng(1010);
  const std::int64_t rows = 2 * Index::kScanBlock, dim = 64;
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
    test::publish_file(p, [&](const std::string& tmp) {
      models::save_module(tmp, *enc.backbone);
    });
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
  EXPECT_GT(stats.scan_codes_per_s, 0.0);
  const std::string json = svc.stats_json();
  for (const char* key :
       {"\"engine\"", "\"search\"", "\"codes_scanned\"",
        "\"scan_codes_per_s\"", "\"candidates_per_s\"", "\"e2e_latency\"",
        "\"p99_us\"", "\"steady_heap_allocs\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
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
