// Parameterized property sweeps (TEST_P) over the quantizer, convolution
// geometry, the NT-Xent loss, and precision sets.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/losses.hpp"
#include "nn/conv2d.hpp"
#include "quant/policy.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"
#include "testutil.hpp"

namespace cq {
namespace {

// ---- Quantizer properties over (bits, rounding, range) -------------------

struct QuantCase {
  int bits;
  quant::RoundingMode rounding;
  quant::RangeMode range;
};

class QuantizerProperty : public ::testing::TestWithParam<QuantCase> {};

TEST_P(QuantizerProperty, ValuesStayWithinObservedRangePlusStep) {
  const auto param = GetParam();
  quant::QuantizerConfig cfg;
  cfg.rounding = param.rounding;
  cfg.range = param.range;
  quant::LinearQuantizer q(cfg);
  Rng rng(static_cast<std::uint64_t>(param.bits) * 31 + 7);
  Tensor a = Tensor::randn(Shape{300}, rng);
  Tensor b = q.quantize(a, param.bits);
  const float lo = ops::min(a), hi = ops::max(a);
  const float s = q.step_size(a, param.bits);
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    EXPECT_GE(b[i], lo - s - 1e-5f);
    EXPECT_LE(b[i], hi + s + 1e-5f);
  }
}

TEST_P(QuantizerProperty, GridSpacingIsStepSize) {
  const auto param = GetParam();
  quant::QuantizerConfig cfg;
  cfg.rounding = param.rounding;
  cfg.range = param.range;
  quant::LinearQuantizer q(cfg);
  Rng rng(static_cast<std::uint64_t>(param.bits) * 17 + 3);
  Tensor a = Tensor::uniform(Shape{500}, rng, -2.0f, 2.0f);
  const float s = q.step_size(a, param.bits);
  ASSERT_GT(s, 0.0f);
  Tensor b = q.quantize(a, param.bits);
  std::set<long long> grid;
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    const double k = b[i] / s;
    EXPECT_NEAR(k, std::nearbyint(k), 1e-2);
    grid.insert(static_cast<long long>(std::nearbyint(k)));
  }
  // Distinct levels bounded by the bit budget (plus boundary slack).
  EXPECT_LE(grid.size(),
            static_cast<std::size_t>((1LL << param.bits) + 1));
}

TEST_P(QuantizerProperty, QuantizationErrorShrinksWithMoreBits) {
  const auto param = GetParam();
  if (param.bits >= 12) GTEST_SKIP() << "comparison needs headroom";
  quant::QuantizerConfig cfg;
  cfg.rounding = param.rounding;
  cfg.range = param.range;
  quant::LinearQuantizer q(cfg);
  Rng rng(static_cast<std::uint64_t>(param.bits) * 13 + 1);
  Tensor a = Tensor::randn(Shape{400}, rng);
  double err_lo = 0.0, err_hi = 0.0;
  Tensor b_lo = q.quantize(a, param.bits);
  Tensor b_hi = q.quantize(a, param.bits + 4);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    err_lo += std::abs(a[i] - b_lo[i]);
    err_hi += std::abs(a[i] - b_hi[i]);
  }
  EXPECT_LT(err_hi, err_lo + 1e-6);
}

std::vector<QuantCase> quant_cases() {
  std::vector<QuantCase> cases;
  for (int bits : {2, 3, 4, 6, 8, 10, 12, 16})
    for (auto rounding :
         {quant::RoundingMode::kNearest, quant::RoundingMode::kFloor})
      for (auto range :
           {quant::RangeMode::kMinMax, quant::RangeMode::kPercentile})
        cases.push_back({bits, rounding, range});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    BitsSweep, QuantizerProperty, ::testing::ValuesIn(quant_cases()),
    [](const ::testing::TestParamInfo<QuantCase>& info) {
      const auto& p = info.param;
      return "b" + std::to_string(p.bits) +
             (p.rounding == quant::RoundingMode::kNearest ? "_near"
                                                          : "_floor") +
             (p.range == quant::RangeMode::kMinMax ? "_minmax" : "_pct");
    });

// ---- Conv2d gradcheck over geometry ---------------------------------------

struct ConvCase {
  std::int64_t cin, cout, kernel, stride, pad, groups;
};

class ConvProperty : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvProperty, GradientsMatchFiniteDifferences) {
  const auto p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.cin * 100 + p.kernel * 10 + p.stride));
  nn::Conv2d conv({.in_channels = p.cin,
                   .out_channels = p.cout,
                   .kernel = p.kernel,
                   .stride = p.stride,
                   .pad = p.pad,
                   .groups = p.groups},
                  rng);
  Tensor x = Tensor::randn(Shape{2, p.cin, 6, 6}, rng);
  test::check_module_gradients(conv, x, rng);
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, ConvProperty,
    ::testing::Values(ConvCase{1, 1, 3, 1, 1, 1}, ConvCase{2, 4, 3, 1, 1, 1},
                      ConvCase{2, 2, 3, 2, 1, 1}, ConvCase{3, 3, 1, 1, 0, 1},
                      ConvCase{4, 4, 3, 1, 1, 4}, ConvCase{4, 8, 3, 2, 1, 2},
                      ConvCase{2, 2, 5, 1, 2, 1}, ConvCase{1, 3, 3, 3, 0, 1}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      const auto& p = info.param;
      return "c" + std::to_string(p.cin) + "o" + std::to_string(p.cout) +
             "k" + std::to_string(p.kernel) + "s" + std::to_string(p.stride) +
             "p" + std::to_string(p.pad) + "g" + std::to_string(p.groups);
    });

// ---- NT-Xent gradient over temperature / batch size -----------------------

struct NtXentCase {
  float tau;
  std::int64_t n;
  std::int64_t d;
};

// Without a printer gtest lists the raw bytes of the case, including the
// four uninitialized padding bytes after `tau`, so the test names would
// differ from run to run.
void PrintTo(const NtXentCase& c, std::ostream* os) {
  *os << "{" << c.tau << ", " << c.n << ", " << c.d << "}";
}

class NtXentProperty : public ::testing::TestWithParam<NtXentCase> {};

TEST_P(NtXentProperty, GradientMatchesFiniteDifferences) {
  const auto p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.n * 10 + p.d));
  Tensor za = Tensor::randn(Shape{p.n, p.d}, rng);
  Tensor zb = Tensor::randn(Shape{p.n, p.d}, rng);
  const auto loss = core::nt_xent(za, zb, p.tau);
  EXPECT_TRUE(std::isfinite(loss.value));
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(core::nt_xent(z, zb, p.tau).value);
      },
      za, loss.grad_a, 1e-3, 4e-2, 2e-4);
}

TEST_P(NtXentProperty, AlignedPairsBeatIndependentPairsOnAverage) {
  // Aligned positives should score lower than independent random positives
  // in expectation (averaged over several draws — a single draw can invert
  // with tiny batches).
  const auto p = GetParam();
  double aligned_sum = 0.0, independent_sum = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(static_cast<std::uint64_t>(p.n * 7 + p.d + 1 + trial * 101));
    Tensor za = Tensor::randn(Shape{p.n, p.d}, rng);
    Tensor zb = Tensor::randn(Shape{p.n, p.d}, rng);
    aligned_sum += core::nt_xent(za, za, p.tau).value;
    independent_sum += core::nt_xent(za, zb, p.tau).value;
  }
  EXPECT_LT(aligned_sum, independent_sum);
}

INSTANTIATE_TEST_SUITE_P(
    TauBatchSweep, NtXentProperty,
    ::testing::Values(NtXentCase{0.1f, 3, 4}, NtXentCase{0.5f, 3, 4},
                      NtXentCase{1.0f, 3, 4}, NtXentCase{0.5f, 2, 6},
                      NtXentCase{0.5f, 6, 3}, NtXentCase{2.0f, 4, 4}),
    [](const ::testing::TestParamInfo<NtXentCase>& info) {
      const auto& p = info.param;
      return "tau" + std::to_string(static_cast<int>(p.tau * 10)) + "_n" +
             std::to_string(p.n) + "_d" + std::to_string(p.d);
    });

// ---- Precision-set sampling over set definitions ---------------------------

class PrecisionSetProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PrecisionSetProperty, PairsAreDistinctAndInRange) {
  const auto [lo, hi] = GetParam();
  const auto ps = quant::PrecisionSet::range(lo, hi);
  Rng rng(static_cast<std::uint64_t>(lo * 100 + hi));
  for (int i = 0; i < 100; ++i) {
    const auto [q1, q2] = ps.sample_pair(rng);
    EXPECT_GE(q1, lo);
    EXPECT_LE(q1, hi);
    EXPECT_GE(q2, lo);
    EXPECT_LE(q2, hi);
    if (lo != hi) EXPECT_NE(q1, q2);
  }
}

TEST_P(PrecisionSetProperty, EveryMemberEventuallySampled) {
  const auto [lo, hi] = GetParam();
  const auto ps = quant::PrecisionSet::range(lo, hi);
  Rng rng(static_cast<std::uint64_t>(lo * 7 + hi * 3));
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(ps.sample(rng));
  EXPECT_EQ(seen.size(), ps.size());
}

INSTANTIATE_TEST_SUITE_P(PaperSets, PrecisionSetProperty,
                         ::testing::Values(std::pair{4, 16}, std::pair{6, 16},
                                           std::pair{8, 16}, std::pair{4, 4},
                                           std::pair{2, 3}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) +
                                  "_" + std::to_string(info.param.second);
                         });

}  // namespace
}  // namespace cq
