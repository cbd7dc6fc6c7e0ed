// Equivalence and numerics tests for the blocked GEMM kernels against the
// golden naive loops in gemm::reference.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace cq {
namespace {

constexpr float kRelTol = 1e-4f;

const char* trans_name(gemm::Trans t) {
  switch (t) {
    case gemm::Trans::kNN: return "NN";
    case gemm::Trans::kTN: return "TN";
    case gemm::Trans::kNT: return "NT";
  }
  return "?";
}

// Operand element counts as stored for each variant.
std::pair<std::int64_t, std::int64_t> operand_sizes(gemm::Trans t,
                                                    std::int64_t m,
                                                    std::int64_t n,
                                                    std::int64_t k) {
  switch (t) {
    case gemm::Trans::kNN: return {m * k, k * n};
    case gemm::Trans::kTN: return {k * m, k * n};
    case gemm::Trans::kNT: return {m * k, n * k};
  }
  return {0, 0};
}

void expect_gemm_matches(gemm::Trans t, std::int64_t m, std::int64_t n,
                         std::int64_t k, Rng& rng, bool accumulate) {
  const auto [asize, bsize] = operand_sizes(t, m, n, k);
  Tensor a = Tensor::randn(Shape{asize}, rng);
  Tensor b = Tensor::randn(Shape{bsize}, rng);
  Tensor c0 = Tensor::randn(Shape{m * n}, rng);  // pre-existing C contents
  Tensor c_blocked = c0;
  Tensor c_ref = c0;
  gemm::gemm(t, m, n, k, a.data(), b.data(), c_blocked.data(), accumulate);
  gemm::reference::gemm(t, m, n, k, a.data(), b.data(), c_ref.data(),
                        accumulate);
  for (std::int64_t i = 0; i < m * n; ++i) {
    // Relative tolerance with a unit floor: inner products of randn entries
    // can cancel to near zero, where a pure relative bound is meaningless.
    const float tol = kRelTol * (1.0f + std::abs(c_ref[i]));
    ASSERT_NEAR(c_blocked[i], c_ref[i], tol)
        << trans_name(t) << " m=" << m << " n=" << n << " k=" << k
        << " accumulate=" << accumulate << " @" << i;
  }
}

TEST(GemmFuzz, BlockedMatchesReferenceAcrossShapes) {
  Rng rng(0xC0FFEE);
  // Deliberate shape triples: degenerate dims, primes, odd remainders, and
  // exact/off-by-one register-tile (8x16) and cache-block (128/256) edges.
  const std::vector<std::array<std::int64_t, 3>> targeted = {
      {1, 1, 1},    {1, 16, 1},   {8, 16, 4},   {7, 15, 3},   {9, 17, 5},
      {8, 16, 16},  {16, 32, 8},  {13, 29, 31}, {23, 24, 25}, {5, 1, 7},
      {1, 5, 257},  {3, 17, 256}, {2, 16, 255}, {127, 16, 9}, {128, 17, 8},
      {129, 31, 6}, {8, 127, 7},  {8, 128, 7},  {8, 129, 7},  {31, 33, 64},
      {3, 1024, 5}, {2, 1030, 3}, {4, 1033, 9},  // NC-boundary column blocks
  };
  const std::vector<std::int64_t> pool = {1,  2,  3,  5,  7,  8,  9,
                                          13, 15, 16, 17, 24, 31, 32,
                                          33, 47, 63, 64, 65, 96};
  const gemm::Trans variants[] = {gemm::Trans::kNN, gemm::Trans::kTN,
                                  gemm::Trans::kNT};
  std::int64_t triples = 0;
  for (const auto& [m, n, k] : targeted) {
    for (auto t : variants)
      expect_gemm_matches(t, m, n, k, rng, /*accumulate=*/triples % 2 == 0);
    ++triples;
  }
  // Many panels on every axis with odd tails: several MR/NR panels and NC
  // blocks, MC blocks with k > kKC, and KC panels accumulating into C.
  for (const auto& [m, n, k] : std::vector<std::array<std::int64_t, 3>>{
           {129, 257, 65}, {8, 2100, 80}, {300, 16, 640}, {17, 33, 2048}}) {
    for (auto t : variants)
      expect_gemm_matches(t, m, n, k, rng, /*accumulate=*/true);
  }
  // Randomized sweep to ~200 triples total, each hitting all three variants.
  while (triples < 200) {
    const auto m = pool[rng.uniform_index(pool.size())];
    const auto n = pool[rng.uniform_index(pool.size())];
    const auto k = pool[rng.uniform_index(pool.size())];
    for (auto t : variants)
      expect_gemm_matches(t, m, n, k, rng, /*accumulate=*/rng.bernoulli(0.5));
    ++triples;
  }
}

// Re-pack a row-major [k, n] matrix into the packed-B sliver layout
// documented on gemm_prepacked_b: value (p, j) at
// packed[(j / kNR) * (k * kNR) + p * kNR + j % kNR], ragged tail zeroed.
// Built from the layout contract, NOT from pack_block_b, so the test pins
// the documented format itself.
std::vector<float> sliver_pack(const float* b, std::int64_t k,
                               std::int64_t n) {
  const auto NR = gemm::kNR;
  const auto slivers = (n + NR - 1) / NR;
  std::vector<float> packed(static_cast<std::size_t>(slivers * k * NR), 0.0f);
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j)
      packed[static_cast<std::size_t>((j / NR) * (k * NR) + p * NR + j % NR)] =
          b[p * n + j];
  return packed;
}

TEST(GemmPrepackedB, BitwiseMatchesGemmKnn) {
  // gemm_prepacked_b must be bit-identical to gemm(kNN) on the unpacked
  // operand — callers that pre-lay-out B (the compiled plan's prepacked
  // Linear weights) rely on this to keep compiled == eager bitwise. Shapes
  // cover ragged n (zero-padded final sliver), n > kNC (several column
  // blocks), k == kKC (the single-panel cap), m > kMC (several A blocks),
  // and both at once.
  Rng rng(0xBEEF);
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {8, 64, 72},   {5, 48, 27},  {7, 33, 100},  {1, 1, 1},
      {3, 1040, 9},  {16, 2048, 72}, {130, 16, 256}, {64, 100, 13},
      {130, 1040, 72},  // several A blocks AND several column blocks
  };
  int idx = 0;
  for (const auto& [m, n, k] : shapes) {
    ASSERT_LE(k, gemm::kKC);
    Tensor a = Tensor::randn(Shape{m * k}, rng);
    Tensor b = Tensor::randn(Shape{k * n}, rng);
    Tensor c0 = Tensor::randn(Shape{m * n}, rng);
    Tensor bias = Tensor::randn(Shape{m}, rng);
    const bool accumulate = idx % 2 == 0;
    gemm::Epilogue ep;  // exercised on every other shape
    if (idx % 3 != 0) {
      ep.bias = bias.data();
      ep.bias_kind = gemm::Epilogue::Bias::kPerRow;
      ep.act = gemm::Epilogue::Act::kRelu;
    }
    Tensor c_plain = c0;
    gemm::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(), c_plain.data(),
               accumulate, ep);
    const auto packed = sliver_pack(b.data(), k, n);
    Tensor c_pre = c0;
    gemm::gemm_prepacked_b(m, n, k, a.data(), packed.data(), c_pre.data(),
                           accumulate, ep);
    for (std::int64_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c_pre[i], c_plain[i])
          << "m=" << m << " n=" << n << " k=" << k
          << " accumulate=" << accumulate << " @" << i;
    ++idx;
  }
}

TEST(GemmPrepackedB, PackBlockBEmitsTheDocumentedLayout) {
  // pack_block_b and the documented sliver formula must agree — this ties
  // the internal packing routine to the public gemm_prepacked_b contract
  // (one layout, two producers).
  Rng rng(0xFACE);
  for (const auto& [k, n] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {72, 64}, {27, 48}, {100, 33}, {256, 16}, {13, 1024}}) {
    Tensor b = Tensor::randn(Shape{k * n}, rng);
    const auto expected = sliver_pack(b.data(), k, n);
    std::vector<float> bp(expected.size(), -1.0f);
    gemm::detail::pack_block_b(gemm::Trans::kNN, k, n, b.data(), bp.data(),
                               nullptr);
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(bp[i], expected[i]) << "k=" << k << " n=" << n << " @" << i;
  }
}

TEST(GemmTest, KZeroZeroesOrPreservesC) {
  Rng rng(7);
  Tensor c = Tensor::randn(Shape{12}, rng);
  Tensor keep = c;
  gemm::gemm(gemm::Trans::kNN, 3, 4, 0, nullptr, nullptr, c.data(),
             /*accumulate=*/true);
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(c[i], keep[i]);
  gemm::gemm(gemm::Trans::kNN, 3, 4, 0, nullptr, nullptr, c.data());
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(c[i], 0.0f);
}

// The old naive kernels skipped zero A entries, so a zero row times a NaN
// column produced 0 instead of NaN — and matmul_nt disagreed with the other
// two variants. All variants must now propagate NaN identically.
TEST(GemmTest, NanPropagatesThroughZeroOperandsInAllVariants) {
  const std::int64_t m = 9, n = 17, k = 5;  // partial tiles on purpose
  Tensor a = Tensor::zeros(Shape{m, k});
  Tensor b(Shape{k, n});
  b.fill(std::numeric_limits<float>::quiet_NaN());
  Tensor c_nn = ops::matmul(a, b);
  Tensor c_tn = ops::matmul_tn(ops::transpose(a), b);
  Tensor c_nt = ops::matmul_nt(a, ops::transpose(b));
  for (std::int64_t i = 0; i < m * n; ++i) {
    EXPECT_TRUE(std::isnan(c_nn[i])) << "NN @" << i;
    EXPECT_TRUE(std::isnan(c_tn[i])) << "TN @" << i;
    EXPECT_TRUE(std::isnan(c_nt[i])) << "NT @" << i;
  }
}

TEST(GemmTest, SingleNanInAStaysConfinedToItsRow) {
  Rng rng(11);
  const std::int64_t m = 10, n = 20, k = 33;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  a.at(3, 7) = std::numeric_limits<float>::quiet_NaN();
  Tensor c = ops::matmul(a, b);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      EXPECT_EQ(std::isnan(c.at(i, j)), i == 3) << i << "," << j;
}

// matmul_nt historically accumulated each dot product in double. The blocked
// kernel consciously relaxes this to float32 register tiles over KC-sized
// k-panels (documented in gemm.hpp); this regression test pins how far the
// result may drift from the double-precision reference so a future change
// that degrades accumulation further (e.g. destroying the panel partial
// sums) trips loudly. BYOL MSE losses sit on top of exactly this path.
TEST(GemmTest, NtAccumulationStaysNearDoubleReference) {
  Rng rng(13);
  const std::int64_t m = 4, n = 6, k = 4096;  // long-k stress
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{n, k}, rng);
  Tensor c(Shape{m, n});
  gemm::gemm(gemm::Trans::kNT, m, n, k, a.data(), b.data(), c.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        s += static_cast<double>(a.at(i, kk)) * b.at(j, kk);
      // sqrt(k)-scaled bound: fp32 panel accumulation over 4096 randn terms
      // stays orders of magnitude inside this; naive unblocked fp32 with a
      // pathological ordering would not.
      const double tol = 1e-4 * std::sqrt(static_cast<double>(k));
      EXPECT_NEAR(c.at(i, j), s, tol) << i << "," << j;
    }
  }
}

// ops::matmul* are thin wrappers over the blocked kernels; spot-check the
// wiring (shape checks still throw, values match reference).
TEST(GemmTest, OpsWrappersDispatchToBlockedKernels) {
  Rng rng(17);
  Tensor a = Tensor::randn(Shape{21, 37}, rng);
  Tensor b = Tensor::randn(Shape{37, 19}, rng);
  Tensor c = ops::matmul(a, b);
  Tensor c_ref(Shape{21, 19});
  gemm::reference::gemm(gemm::Trans::kNN, 21, 19, 37, a.data(), b.data(),
                        c_ref.data());
  for (std::int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c[i], c_ref[i], kRelTol * (1.0f + std::abs(c_ref[i])));
  EXPECT_THROW(ops::matmul(b, b), CheckError);
}

}  // namespace
}  // namespace cq
