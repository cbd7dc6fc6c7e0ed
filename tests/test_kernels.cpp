// The SIMD kernel layer's three contracts (DESIGN.md Sec. 9), fuzzed:
//
//  1. Backend determinism — kernels::foo and kernels::scalar::foo are
//     BIT-identical for every kernel, including odd tail lengths. On an AVX2
//     build this pins the vector path to the portable 8-lane emulation; on a
//     scalar build (CQ_SCALAR_KERNELS) it is trivially true, so the same
//     binary asserts the contract on whichever backend it got.
//  2. Fused epilogues — gemm with a bias/activation epilogue is BIT-identical
//     to gemm, then a bias pass, then an activation pass.
//  3. Quantize-on-pack — gemm with a QuantSpec on either operand is
//     BIT-identical to kernels::quantize into a temp, then plain gemm.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/tensor.hpp"

namespace cq {
namespace {

// Lengths that exercise full vector chunks, partial tails, and empties.
const std::vector<std::int64_t> kLens = {0, 1, 3, 7, 8, 9, 15, 16,
                                         17, 31, 33, 64, 100, 1011};

void expect_bits_equal(const float* a, const float* b, std::int64_t n,
                       const char* what) {
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " differs at " << i << ": " << a[i] << " vs " << b[i];
}

Tensor fuzz_values(std::int64_t n, Rng& rng) {
  Tensor x = Tensor::randn(Shape{std::max<std::int64_t>(n, 1)}, rng);
  float* p = x.data();
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.05)) p[i] = 0.0f;        // exact zeros
    if (rng.bernoulli(0.05)) p[i] *= 100.0f;     // large magnitudes
    if (rng.bernoulli(0.05)) p[i] *= 1e-6f;      // denormal-adjacent
  }
  return x;
}

// ---- 1. backend-vs-portable bitwise equality -------------------------------

TEST(KernelBackend, ReportsWidthAndName) {
  EXPECT_EQ(kernels::simd_width(), 8);
  const std::string b = kernels::backend();
  EXPECT_TRUE(b == "avx2" || b == "scalar") << b;
}

TEST(KernelBackendFuzz, ElementwiseBitIdentical) {
  Rng rng(0xABC1);
  for (auto n : kLens) {
    Tensor x = fuzz_values(n, rng), g = fuzz_values(n, rng);
    Tensor a(Shape{std::max<std::int64_t>(n, 1)}), b = a;
    kernels::vexp(x.data(), a.data(), n);
    kernels::scalar::vexp(x.data(), b.data(), n);
    expect_bits_equal(a.data(), b.data(), n, "vexp");
    kernels::relu(x.data(), a.data(), n);
    kernels::scalar::relu(x.data(), b.data(), n);
    expect_bits_equal(a.data(), b.data(), n, "relu");
    kernels::relu_cap(x.data(), a.data(), n, 6.0f);
    kernels::scalar::relu_cap(x.data(), b.data(), n, 6.0f);
    expect_bits_equal(a.data(), b.data(), n, "relu_cap");
    kernels::relu_grad(x.data(), g.data(), a.data(), n);
    kernels::scalar::relu_grad(x.data(), g.data(), b.data(), n);
    expect_bits_equal(a.data(), b.data(), n, "relu_grad");
    kernels::relu_cap_grad(x.data(), g.data(), a.data(), n, 6.0f);
    kernels::scalar::relu_cap_grad(x.data(), g.data(), b.data(), n, 6.0f);
    expect_bits_equal(a.data(), b.data(), n, "relu_cap_grad");
  }
}

TEST(KernelBackendFuzz, AddKeepsFirstNaNBitIdentical) {
  // Quiet and signalling NaN payloads in both operands, alone and together:
  // both backends must return add_first's bits, the first operand's NaN
  // quieted, in vector bodies and scalar tails.
  const float nan_a = std::bit_cast<float>(0x7fc0000au);
  const float snan_a = std::bit_cast<float>(0xff80000cu);
  const float nan_b = std::bit_cast<float>(0xffc0000bu);
  const float snan_b = std::bit_cast<float>(0x7f80000du);
  Rng rng(0xABC5);
  for (auto n : kLens) {
    Tensor x = fuzz_values(n, rng), g = fuzz_values(n, rng);
    for (std::int64_t i = 0; i < n; ++i) {
      if (i % 3 == 0) x.data()[i] = i % 2 ? nan_a : snan_a;
      if (i % 4 == 0) g.data()[i] = i % 8 ? nan_b : snan_b;
    }
    Tensor want(Shape{std::max<std::int64_t>(n, 1)}), a = want, b = want;
    for (std::int64_t i = 0; i < n; ++i)
      want.data()[i] = kernels::add_first(x.data()[i], g.data()[i]);
    kernels::add(x.data(), g.data(), a.data(), n);
    kernels::scalar::add(x.data(), g.data(), b.data(), n);
    expect_bits_equal(a.data(), want.data(), n, "add");
    expect_bits_equal(b.data(), want.data(), n, "scalar::add");
    for (std::int64_t i = 0; i < n; i += 12)  // both NaN: the first one wins
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a.data()[i]),
                std::bit_cast<std::uint32_t>(x.data()[i]) | 0x400000u);
    kernels::add(x.data(), g.data(), x.data(), n);  // y aliases a
    expect_bits_equal(x.data(), want.data(), n, "add in place");
  }
}

TEST(KernelBackendFuzz, ReductionsBitIdentical) {
  Rng rng(0xABC2);
  for (auto n : kLens) {
    Tensor x = fuzz_values(n, rng);
    float lo1, hi1, lo2, hi2;
    kernels::minmax(x.data(), n, &lo1, &hi1);
    kernels::scalar::minmax(x.data(), n, &lo2, &hi2);
    expect_bits_equal(&lo1, &lo2, 1, "minmax.lo");
    expect_bits_equal(&hi1, &hi2, 1, "minmax.hi");
  }
}

TEST(KernelBackendFuzz, RowKernelsBitIdentical) {
  Rng rng(0xABC3);
  for (std::int64_t rows : {1, 2, 5}) {
    for (std::int64_t cols : {1, 7, 8, 17, 64, 100}) {
      Tensor x0 = fuzz_values(rows * cols, rng);
      Tensor a = x0, b = x0;  // COW copies, detached by data()
      Tensor ra(Shape{rows}), rb(Shape{rows});
      kernels::softmax_rows(a.data(), rows, cols);
      kernels::scalar::softmax_rows(b.data(), rows, cols);
      expect_bits_equal(a.data(), b.data(), rows * cols, "softmax_rows");
      a = x0;
      b = x0;
      kernels::log_softmax_rows(a.data(), rows, cols);
      kernels::scalar::log_softmax_rows(b.data(), rows, cols);
      expect_bits_equal(a.data(), b.data(), rows * cols, "log_softmax_rows");
      a = x0;
      b = x0;
      kernels::l2_normalize_rows(a.data(), rows, cols, ra.data(), 1e-12f);
      kernels::scalar::l2_normalize_rows(b.data(), rows, cols, rb.data(),
                                         1e-12f);
      expect_bits_equal(a.data(), b.data(), rows * cols, "l2_normalize_rows");
      expect_bits_equal(ra.data(), rb.data(), rows, "l2 norms");
      Tensor ga(Shape{rows * cols}), gb(Shape{rows * cols});
      ga.fill(0.5f);
      gb.fill(0.5f);
      kernels::add_rows(x0.data(), rows, cols, ga.data());
      kernels::scalar::add_rows(x0.data(), rows, cols, gb.data());
      expect_bits_equal(ga.data(), gb.data(), cols, "add_rows");
    }
  }
}

TEST(KernelBackendFuzz, QuantizeAndUpdatesBitIdentical) {
  Rng rng(0xABC4);
  const quant::LinearQuantizer quantizer;
  for (auto n : kLens) {
    Tensor x = fuzz_values(n, rng), g = fuzz_values(n, rng);
    const gemm::QuantSpec q = quantizer.make_spec(x, 4);
    Tensor a(Shape{std::max<std::int64_t>(n, 1)}), b = a;
    kernels::quantize(x.data(), a.data(), n, q);
    kernels::scalar::quantize(x.data(), b.data(), n, q);
    expect_bits_equal(a.data(), b.data(), n, "quantize");
    std::vector<std::uint8_t> ma(n + 1, 7), mb(n + 1, 7);
    gemm::QuantSpec qc = q;
    qc.clip = true;  // force the clip-mask path
    qc.lo = -0.5f;
    qc.hi = 0.75f;
    kernels::quantize_masked(x.data(), a.data(), n, qc, ma.data());
    kernels::scalar::quantize_masked(x.data(), b.data(), n, qc, mb.data());
    expect_bits_equal(a.data(), b.data(), n, "quantize_masked");
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(ma[i], mb[i]) << "clip mask differs at " << i;

    Tensor p1 = fuzz_values(n, rng), p2 = p1;
    Tensor v1 = fuzz_values(n, rng), v2 = v1;
    kernels::sgd_update(p1.data(), g.data(), v1.data(), n, 0.1f, 0.9f, 1e-4f,
                        0.5f);
    kernels::scalar::sgd_update(p2.data(), g.data(), v2.data(), n, 0.1f, 0.9f,
                                1e-4f, 0.5f);
    expect_bits_equal(p1.data(), p2.data(), n, "sgd p");
    expect_bits_equal(v1.data(), v2.data(), n, "sgd v");

    Tensor m1 = fuzz_values(n, rng), m2 = m1;
    Tensor w1 = fuzz_values(n, rng), w2 = w1;
    Tensor s1 = p1, s2 = p1;
    // Second-moment buffers must be non-negative for sqrt.
    for (std::int64_t i = 0; i < n; ++i) w1.data()[i] = std::abs(w1[i]);
    w2 = w1;
    kernels::adam_update(s1.data(), g.data(), m1.data(), w1.data(), n, 1e-3f,
                         0.9f, 0.999f, 1e-8f, 1e-2f, 0.271f, 0.00995f);
    kernels::scalar::adam_update(s2.data(), g.data(), m2.data(), w2.data(), n,
                                 1e-3f, 0.9f, 0.999f, 1e-8f, 1e-2f, 0.271f,
                                 0.00995f);
    expect_bits_equal(s1.data(), s2.data(), n, "adam p");
    expect_bits_equal(m1.data(), m2.data(), n, "adam m");
    expect_bits_equal(w1.data(), w2.data(), n, "adam v");
  }
}

// ---- kernel semantics against simple references ----------------------------

TEST(KernelSemantics, VexpTracksStdExpWithinTwoUlp) {
  Rng rng(0xE);
  const std::int64_t n = 10000;
  Tensor x(Shape{n}), y(Shape{n});
  // Sweep the full finite-exp input range plus a margin past the clamps.
  for (std::int64_t i = 0; i < n; ++i)
    x.data()[i] = -95.0f + 190.0f * float(i) / float(n - 1);
  kernels::vexp(x.data(), y.data(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    const double want = std::exp(static_cast<double>(x[i]));
    if (x[i] >= -87.0f && x[i] <= 87.0f) {
      EXPECT_NEAR(y[i], want, 5e-7 * want) << "x=" << x[i];
    } else {
      EXPECT_TRUE(std::isfinite(y[i])) << "x=" << x[i];  // clamped, no inf
      EXPECT_GE(y[i], 0.0f);
    }
  }
  // The substrate's own exactness pin: exp(0) == 1 bitwise.
  const float zero = 0.0f;
  float one;
  kernels::vexp(&zero, &one, 1);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(one),
            std::bit_cast<std::uint32_t>(1.0f));
}

TEST(KernelSemantics, ReluFamilyMatchesScalarDefinitions) {
  Rng rng(0xF);
  const std::int64_t n = 257;
  Tensor x = fuzz_values(n, rng), g = fuzz_values(n, rng);
  Tensor y(Shape{n});
  kernels::relu(x.data(), y.data(), n);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(y[i], x[i] > 0.0f ? x[i] : 0.0f);
  kernels::relu_cap(x.data(), y.data(), n, 0.8f);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(y[i], x[i] < 0.0f ? 0.0f : (x[i] > 0.8f ? 0.8f : x[i]));
  kernels::relu_grad(x.data(), g.data(), y.data(), n);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(y[i], x[i] > 0.0f ? g[i] : 0.0f);
  kernels::relu_cap_grad(x.data(), g.data(), y.data(), n, 0.8f);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(y[i], x[i] > 0.0f && x[i] < 0.8f ? g[i] : 0.0f);
}

TEST(KernelSemantics, ReductionsMatchSequentialReferences) {
  Rng rng(0x10);
  for (auto n : kLens) {
    Tensor x = fuzz_values(n, rng);
    float lo, hi;
    kernels::minmax(x.data(), n, &lo, &hi);
    if (n == 0) {
      EXPECT_FLOAT_EQ(lo, 0.0f);
      EXPECT_FLOAT_EQ(hi, 0.0f);
      continue;
    }
    float slo = x[0], shi = x[0];
    for (std::int64_t i = 0; i < n; ++i) {
      slo = std::min(slo, x[i]);
      shi = std::max(shi, x[i]);
    }
    // min/max are order-independent: exact.
    EXPECT_FLOAT_EQ(lo, slo);
    EXPECT_FLOAT_EQ(hi, shi);
  }
}

TEST(KernelSemantics, SoftmaxRowsNormalizesAndLogSoftmaxAgrees) {
  Rng rng(0x11);
  const std::int64_t rows = 5, cols = 37;
  Tensor x0 = fuzz_values(rows * cols, rng);
  Tensor sm = x0, lsm = x0;
  kernels::softmax_rows(sm.data(), rows, cols);
  kernels::log_softmax_rows(lsm.data(), rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float p = sm[r * cols + c];
      EXPECT_GE(p, 0.0f);
      s += p;
      // log(softmax) only agrees with log_softmax where exp didn't hit its
      // underflow clamp (x - max < -87 saturates p but not the log form).
      if (lsm[r * cols + c] > -80.0f) {
        EXPECT_NEAR(std::log(p), lsm[r * cols + c], 1e-4);
      }
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(KernelSemantics, L2NormalizeSkipsTinyRowsAndReportsNorms) {
  const std::int64_t rows = 2, cols = 5;
  Tensor x(Shape{rows, cols});
  x.fill(0.0f);
  for (std::int64_t c = 0; c < cols; ++c) x.at(0, c) = 3.0f;
  Tensor norms(Shape{rows});
  kernels::l2_normalize_rows(x.data(), rows, cols, norms.data(), 1e-12f);
  EXPECT_NEAR(norms[0], 3.0f * std::sqrt(5.0f), 1e-4);
  EXPECT_FLOAT_EQ(norms[1], 0.0f);
  for (std::int64_t c = 0; c < cols; ++c) {
    EXPECT_NEAR(x.at(0, c), 1.0f / std::sqrt(5.0f), 1e-6);
    EXPECT_FLOAT_EQ(x.at(1, c), 0.0f);  // norm <= eps row left unchanged
  }
}

TEST(KernelSemantics, QuantizeAliasingInPlaceMatchesOutOfPlace) {
  Rng rng(0x12);
  const std::int64_t n = 101;
  Tensor x = fuzz_values(n, rng);
  gemm::QuantSpec q = quant::LinearQuantizer().make_spec(x, 3);
  q.clip = true;
  q.lo = -1.0f;
  q.hi = 1.0f;
  Tensor out(Shape{n});
  std::vector<std::uint8_t> m1(n), m2(n);
  kernels::quantize_masked(x.data(), out.data(), n, q, m1.data());
  Tensor inplace = x;
  kernels::quantize_masked(inplace.data(), inplace.data(), n, q, m2.data());
  expect_bits_equal(out.data(), inplace.data(), n, "aliased quantize_masked");
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(m1[i], m2[i]);
    EXPECT_EQ(m1[i], x[i] >= q.lo && x[i] <= q.hi ? 1 : 0) << "mask @" << i;
  }
}

// ---- 2. fused epilogue == unfused passes, bitwise --------------------------

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

void apply_unfused(float* c, std::int64_t m, std::int64_t n,
                   const gemm::Epilogue& ep) {
  if (ep.bias_kind == gemm::Epilogue::Bias::kPerRow)
    for (std::int64_t r = 0; r < m; ++r)
      for (std::int64_t j = 0; j < n; ++j) c[r * n + j] += ep.bias[r];
  else if (ep.bias_kind == gemm::Epilogue::Bias::kPerCol)
    for (std::int64_t r = 0; r < m; ++r)
      for (std::int64_t j = 0; j < n; ++j) c[r * n + j] += ep.bias[j];
  if (ep.act == gemm::Epilogue::Act::kRelu)
    for (std::int64_t i = 0; i < m * n; ++i)
      c[i] = c[i] > 0.0f ? c[i] : 0.0f;
  else if (ep.act == gemm::Epilogue::Act::kReluCap)
    for (std::int64_t i = 0; i < m * n; ++i)
      c[i] = c[i] < 0.0f ? 0.0f : (c[i] > ep.cap ? ep.cap : c[i]);
}

TEST(FusedEpilogueFuzz, BitIdenticalToSeparatePasses) {
  Rng rng(0xEA1);
  const gemm::Trans variants[] = {gemm::Trans::kNN, gemm::Trans::kTN,
                                  gemm::Trans::kNT};
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {1, 1, 1},  {7, 15, 3},  {8, 16, 16},  {9, 17, 5},
      {13, 29, 31}, {128, 17, 8}, {8, 129, 7}, {3, 1024, 300},
      {130, 40, 257},  // multiple MC and KC panels
  };
  for (const auto& [m, n, k] : shapes) {
    for (auto t : variants) {
      const auto [asize, bsize] = operand_sizes(t, m, n, k);
      Tensor a = Tensor::randn(Shape{asize}, rng);
      Tensor b = Tensor::randn(Shape{bsize}, rng);
      Tensor rbias = Tensor::randn(Shape{m}, rng);
      Tensor cbias = Tensor::randn(Shape{n}, rng);
      for (int bias = 0; bias < 3; ++bias) {
        for (int act = 0; act < 3; ++act) {
          for (bool accumulate : {false, true}) {
            gemm::Epilogue ep;
            ep.bias_kind = static_cast<gemm::Epilogue::Bias>(bias);
            if (ep.bias_kind == gemm::Epilogue::Bias::kPerRow)
              ep.bias = rbias.data();
            else if (ep.bias_kind == gemm::Epilogue::Bias::kPerCol)
              ep.bias = cbias.data();
            ep.act = static_cast<gemm::Epilogue::Act>(act);
            ep.cap = 0.9f;
            Tensor c0 = Tensor::randn(Shape{m * n}, rng);
            Tensor fused = c0, unfused = c0;
            gemm::gemm(t, m, n, k, a.data(), b.data(), fused.data(),
                       accumulate, ep);
            gemm::gemm(t, m, n, k, a.data(), b.data(), unfused.data(),
                       accumulate);
            apply_unfused(unfused.data(), m, n, ep);
            ASSERT_EQ(std::memcmp(std::as_const(fused).data(),
                                  std::as_const(unfused).data(),
                                  std::size_t(m * n) * sizeof(float)),
                      0)
                << "trans=" << int(t) << " m=" << m << " n=" << n
                << " k=" << k << " bias=" << bias << " act=" << act
                << " accumulate=" << accumulate;
          }
        }
      }
    }
  }
}

TEST(FusedEpilogue, AppliedToEmptySumWhenKZero) {
  Tensor c(Shape{6});
  c.fill(-2.0f);
  Tensor bias(Shape{3});
  bias.fill(0.25f);
  gemm::Epilogue ep;
  ep.bias = bias.data();
  ep.bias_kind = gemm::Epilogue::Bias::kPerCol;
  ep.act = gemm::Epilogue::Act::kRelu;
  // Overwrite: C = relu(0 + bias).
  gemm::gemm(gemm::Trans::kNN, 2, 3, 0, nullptr, nullptr, c.data(), false,
             ep);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(c[i], 0.25f);
  // Accumulate: C = relu(C + bias) = relu(0.25 + 0.25).
  gemm::gemm(gemm::Trans::kNN, 2, 3, 0, nullptr, nullptr, c.data(), true, ep);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(c[i], 0.5f);
}

TEST(FusedEpilogue, MatchesReferenceWithinTolerance) {
  Rng rng(0xEA2);
  const std::int64_t m = 23, n = 31, k = 57;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor bias = Tensor::randn(Shape{n}, rng);
  gemm::Epilogue ep;
  ep.bias = bias.data();
  ep.bias_kind = gemm::Epilogue::Bias::kPerCol;
  ep.act = gemm::Epilogue::Act::kRelu;
  Tensor c(Shape{m * n}), ref(Shape{m * n});
  gemm::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(), c.data(), false,
             ep);
  gemm::reference::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(),
                        ref.data());
  apply_unfused(ref.data(), m, n, ep);
  for (std::int64_t i = 0; i < m * n; ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-4f * (1.0f + std::abs(ref[i])));
}

// ---- 3. quantize-on-pack == materialize-then-gemm, bitwise -----------------

TEST(QuantizeOnPackFuzz, BitIdenticalToMaterializedOperands) {
  Rng rng(0xAB);
  const quant::LinearQuantizer quantizer;
  const gemm::Trans variants[] = {gemm::Trans::kNN, gemm::Trans::kTN,
                                  gemm::Trans::kNT};
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {1, 1, 1}, {7, 15, 3}, {9, 17, 5}, {13, 29, 31},
      {8, 129, 7}, {130, 40, 257}, {3, 1024, 9},
  };
  for (const auto& [m, n, k] : shapes) {
    for (auto t : variants) {
      const auto [asize, bsize] = operand_sizes(t, m, n, k);
      Tensor a = Tensor::randn(Shape{asize}, rng);
      Tensor b = Tensor::randn(Shape{bsize}, rng);
      for (int which = 0; which < 3; ++which) {  // quantize A, B, or both
        gemm::QuantSpec qa = quantizer.make_spec(a, 3 + which);
        gemm::QuantSpec qb = quantizer.make_spec(b, 4);
        if (which == 2) {  // floor + clip flavors on the "both" pass
          qa.nearest = false;
          qb.clip = true;
          qb.lo = -0.7f;
          qb.hi = 0.9f;
        }
        const bool use_a = which != 1, use_b = which != 0;
        Tensor aq = Tensor::empty(Shape{asize});
        Tensor bq = Tensor::empty(Shape{bsize});
        kernels::quantize(a.data(), aq.data(), asize, qa);
        kernels::quantize(b.data(), bq.data(), bsize, qb);
        Tensor fused(Shape{m * n}), mat(Shape{m * n});
        gemm::gemm(t, m, n, k, a.data(), b.data(), fused.data(), false,
                   gemm::Epilogue{}, use_a ? &qa : nullptr,
                   use_b ? &qb : nullptr);
        gemm::gemm(t, m, n, k, use_a ? aq.data() : a.data(),
                   use_b ? bq.data() : b.data(), mat.data());
        expect_bits_equal(std::as_const(fused).data(),
                          std::as_const(mat).data(), m * n,
                          "quantize-on-pack");
      }
    }
  }
}

TEST(QuantizeOnPack, IdentitySpecPacksRawValues) {
  Rng rng(0xAC);
  const std::int64_t m = 9, n = 17, k = 11;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  gemm::QuantSpec identity;  // default-constructed: identity == true
  Tensor c1(Shape{m * n}), c2(Shape{m * n});
  gemm::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(), c1.data(), false,
             gemm::Epilogue{}, &identity, &identity);
  gemm::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(), c2.data());
  expect_bits_equal(c1.data(), c2.data(), m * n, "identity spec");
}

TEST(QuantizeOnPack, PackBlockHelpersFoldTheSpec) {
  Rng rng(0xAD);
  const std::int64_t m = 13, n = 37, k = 21;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  const gemm::QuantSpec qa = quant::LinearQuantizer().make_spec(a, 4);
  const gemm::QuantSpec qb = quant::LinearQuantizer().make_spec(b, 5);
  Tensor aq = Tensor::empty(Shape{m * k}), bq = Tensor::empty(Shape{k * n});
  kernels::quantize(a.data(), aq.data(), m * k, qa);
  kernels::quantize(b.data(), bq.data(), k * n, qb);
  const std::int64_t mr = (m + gemm::kMR - 1) / gemm::kMR * gemm::kMR;
  const std::int64_t nr = (n + gemm::kNR - 1) / gemm::kNR * gemm::kNR;
  std::vector<float> p1(mr * k), p2(mr * k);
  gemm::detail::pack_block_a(gemm::Trans::kNN, m, k, a.data(), p1.data(),
                             &qa);
  gemm::detail::pack_block_a(gemm::Trans::kNN, m, k, aq.data(), p2.data(),
                             nullptr);
  expect_bits_equal(p1.data(), p2.data(), mr * k, "pack_block_a");
  std::vector<float> p3(nr * k), p4(nr * k);
  gemm::detail::pack_block_b(gemm::Trans::kNN, k, n, b.data(), p3.data(),
                             &qb);
  gemm::detail::pack_block_b(gemm::Trans::kNN, k, n, bq.data(), p4.data(),
                             nullptr);
  expect_bits_equal(p3.data(), p4.data(), nr * k, "pack_block_b");
}

}  // namespace
}  // namespace cq
