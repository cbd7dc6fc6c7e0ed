// Contrastive losses: values, gradients, invariances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/losses.hpp"
#include "tensor/ops.hpp"
#include "testutil.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

TEST(NtXent, AlignedPairsScoreLowerThanRandom) {
  Rng rng(1);
  Tensor za = Tensor::randn(Shape{8, 6}, rng);
  Tensor zb_same = za;  // perfectly aligned positives
  Tensor zb_rand = Tensor::randn(Shape{8, 6}, rng);
  const float aligned = core::nt_xent(za, zb_same, 0.5f).value;
  const float random = core::nt_xent(za, zb_rand, 0.5f).value;
  EXPECT_LT(aligned, random);
}

TEST(NtXent, ValueIsFiniteAndPositive) {
  Rng rng(2);
  Tensor za = Tensor::randn(Shape{4, 5}, rng);
  Tensor zb = Tensor::randn(Shape{4, 5}, rng);
  const auto loss = core::nt_xent(za, zb, 0.5f);
  EXPECT_TRUE(std::isfinite(loss.value));
  EXPECT_GT(loss.value, 0.0f);
}

TEST(NtXent, SymmetricInArguments) {
  Rng rng(3);
  Tensor za = Tensor::randn(Shape{5, 4}, rng);
  Tensor zb = Tensor::randn(Shape{5, 4}, rng);
  const auto ab = core::nt_xent(za, zb, 0.3f);
  const auto ba = core::nt_xent(zb, za, 0.3f);
  EXPECT_NEAR(ab.value, ba.value, 1e-5);
  for (std::int64_t i = 0; i < ab.grad_a.numel(); ++i)
    EXPECT_NEAR(ab.grad_a[i], ba.grad_b[i], 1e-5);
}

TEST(NtXent, ScaleInvarianceFromNormalization) {
  Rng rng(4);
  Tensor za = Tensor::randn(Shape{4, 6}, rng);
  Tensor zb = Tensor::randn(Shape{4, 6}, rng);
  const float v1 = core::nt_xent(za, zb, 0.5f).value;
  Tensor za3 = za, zb3 = zb;
  za3.mul_(3.0f);
  zb3.mul_(3.0f);
  const float v2 = core::nt_xent(za3, zb3, 0.5f).value;
  EXPECT_NEAR(v1, v2, 1e-4);
}

TEST(NtXent, GradientMatchesFiniteDifferences) {
  Rng rng(5);
  Tensor za = Tensor::randn(Shape{3, 4}, rng);
  Tensor zb = Tensor::randn(Shape{3, 4}, rng);
  const auto loss = core::nt_xent(za, zb, 0.5f);
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(core::nt_xent(z, zb, 0.5f).value);
      },
      za, loss.grad_a);
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(core::nt_xent(za, z, 0.5f).value);
      },
      zb, loss.grad_b);
}

TEST(NtXent, LowerTemperatureSharpens) {
  Rng rng(6);
  Tensor za = Tensor::randn(Shape{6, 5}, rng);
  Tensor noise = Tensor::randn(Shape{6, 5}, rng);
  noise.mul_(0.1f);
  Tensor zb = ops::add(za, noise);
  // With near-aligned positives, sharper softmax -> lower loss.
  const float sharp = core::nt_xent(za, zb, 0.1f).value;
  const float smooth = core::nt_xent(za, zb, 1.0f).value;
  EXPECT_LT(sharp, smooth);
}

TEST(NtXent, RejectsDegenerateInputs) {
  Rng rng(7);
  Tensor za = Tensor::randn(Shape{1, 4}, rng);
  Tensor zb = Tensor::randn(Shape{1, 4}, rng);
  EXPECT_THROW(core::nt_xent(za, zb, 0.5f), CheckError);  // needs N >= 2
  Tensor zc = Tensor::randn(Shape{4, 4}, rng);
  EXPECT_THROW(core::nt_xent(zc, zc, 0.0f), CheckError);  // bad tau
}

TEST(ByolMse, PerfectAlignmentGivesZero) {
  Rng rng(8);
  Tensor p = Tensor::randn(Shape{4, 6}, rng);
  Tensor t = p;
  t.mul_(2.0f);
  const auto loss = core::byol_mse(p, t);
  EXPECT_NEAR(loss.value, 0.0f, 1e-5);
}

TEST(ByolMse, OppositeVectorsGiveFour) {
  Rng rng(9);
  Tensor p = Tensor::randn(Shape{3, 5}, rng);
  Tensor t = p;
  t.mul_(-1.0f);
  const auto loss = core::byol_mse(p, t);
  EXPECT_NEAR(loss.value, 4.0f, 1e-5);
}

TEST(ByolMse, TargetGradientIsZero) {
  Rng rng(10);
  Tensor p = Tensor::randn(Shape{4, 5}, rng);
  Tensor t = Tensor::randn(Shape{4, 5}, rng);
  const auto loss = core::byol_mse(p, t);
  const auto nonzero = [](float v) { return v != 0.0f; };
  EXPECT_TRUE(std::ranges::none_of(loss.grad_b.span(), nonzero));
  EXPECT_TRUE(std::ranges::any_of(loss.grad_a.span(), nonzero));
}

TEST(ByolMse, GradientMatchesFiniteDifferences) {
  Rng rng(11);
  Tensor p = Tensor::randn(Shape{3, 4}, rng);
  Tensor t = Tensor::randn(Shape{3, 4}, rng);
  const auto loss = core::byol_mse(p, t);
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(core::byol_mse(z, t).value);
      },
      p, loss.grad_a);
}

TEST(SymmetricMse, ZeroForIdenticalDirections) {
  Rng rng(12);
  Tensor a = Tensor::randn(Shape{3, 4}, rng);
  Tensor b = a;
  b.mul_(0.5f);
  const auto loss = core::symmetric_mse(a, b);
  EXPECT_NEAR(loss.value, 0.0f, 1e-5);
}

TEST(SymmetricMse, GradientsFlowToBothSides) {
  Rng rng(13);
  Tensor a = Tensor::randn(Shape{4, 4}, rng);
  Tensor b = Tensor::randn(Shape{4, 4}, rng);
  const auto loss = core::symmetric_mse(a, b);
  const auto nonzero = [](float v) { return v != 0.0f; };
  EXPECT_TRUE(std::ranges::any_of(loss.grad_a.span(), nonzero));
  EXPECT_TRUE(std::ranges::any_of(loss.grad_b.span(), nonzero));
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(core::symmetric_mse(z, b).value);
      },
      a, loss.grad_a);
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(core::symmetric_mse(a, z).value);
      },
      b, loss.grad_b);
}

TEST(CrossEntropy, MatchesManualComputation) {
  Tensor logits(Shape{1, 3}, {0.0f, 0.0f, 0.0f});
  const auto loss = core::cross_entropy(logits, {1});
  EXPECT_NEAR(loss.value, std::log(3.0f), 1e-5);
}

TEST(CrossEntropy, PerfectPredictionNearZeroLoss) {
  Tensor logits(Shape{2, 3}, {10.0f, -10.0f, -10.0f,
                              -10.0f, 10.0f, -10.0f});
  const auto loss = core::cross_entropy(logits, {0, 1});
  EXPECT_LT(loss.value, 1e-3f);
  EXPECT_EQ(loss.correct, 2);
}

TEST(CrossEntropy, CountsCorrectPredictions) {
  Tensor logits(Shape{3, 2}, {2.0f, 0.0f, 0.0f, 2.0f, 2.0f, 0.0f});
  const auto loss = core::cross_entropy(logits, {0, 1, 1});
  EXPECT_EQ(loss.correct, 2);
}

TEST(CrossEntropy, GradientMatchesFiniteDifferences) {
  Rng rng(14);
  Tensor logits = Tensor::randn(Shape{4, 5}, rng);
  const std::vector<int> labels = {0, 2, 4, 1};
  const auto loss = core::cross_entropy(logits, labels);
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(core::cross_entropy(z, labels).value);
      },
      logits, loss.grad_logits);
}

TEST(CrossEntropy, GradientRowsSumToZero) {
  Rng rng(15);
  Tensor logits = Tensor::randn(Shape{3, 4}, rng);
  const auto loss = core::cross_entropy(logits, {1, 2, 3});
  for (std::int64_t r = 0; r < 3; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 4; ++c) s += loss.grad_logits.at(r, c);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits(Shape{2, 3});
  EXPECT_THROW(core::cross_entropy(logits, {0, 3}), CheckError);
  EXPECT_THROW(core::cross_entropy(logits, {0}), CheckError);
}

}  // namespace
}  // namespace cq
