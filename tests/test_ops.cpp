#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

TEST(Ops, AddIsElementwiseAndChecksShapes) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  EXPECT_FLOAT_EQ(ops::add(a, b)[1], 7.0f);
  EXPECT_THROW(ops::add(a, Tensor(Shape{2})), CheckError);
}

TEST(Ops, RowReductions) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 6, 5});
  const auto am = ops::row_argmax(a);
  EXPECT_EQ(am[0], 2);
  EXPECT_EQ(am[1], 1);
}

TEST(Ops, MatmulMatchesManual) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulRejectsBadInnerDims) {
  EXPECT_THROW(ops::matmul(Tensor(Shape{2, 3}), Tensor(Shape{2, 3})),
               CheckError);
}

TEST(Ops, MatmulVariantsAgree) {
  Rng rng(3);
  Tensor a = Tensor::randn(Shape{4, 5}, rng);
  Tensor b = Tensor::randn(Shape{5, 6}, rng);
  Tensor c = ops::matmul(a, b);
  // A^T path: matmul_tn(A^T stored as [5,4]... ) — build transposes.
  Tensor at = ops::transpose(a);
  Tensor bt = ops::transpose(b);
  Tensor c_tn = ops::matmul_tn(at, b);
  Tensor c_nt = ops::matmul_nt(a, bt);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], c_tn[i], 1e-4);
    EXPECT_NEAR(c[i], c_nt[i], 1e-4);
  }
}

TEST(Ops, TransposeInvolution) {
  Rng rng(4);
  Tensor a = Tensor::randn(Shape{3, 7}, rng);
  Tensor att = ops::transpose(ops::transpose(a));
  for (std::int64_t i = 0; i < a.numel(); ++i)
    EXPECT_FLOAT_EQ(a[i], att[i]);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor a = Tensor::randn(Shape{4, 9}, rng, 0.0f, 5.0f);
  Tensor s = ops::softmax_rows(a);
  for (std::int64_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 9; ++c) {
      EXPECT_GT(s.at(r, c), 0.0f);
      sum += s.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  Tensor a(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = ops::softmax_rows(a);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s[i], 1.0f / 3.0f, 1e-5);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(6);
  Tensor a = Tensor::randn(Shape{3, 5}, rng);
  Tensor ls = ops::log_softmax_rows(a);
  Tensor s = ops::softmax_rows(a);
  for (std::int64_t i = 0; i < a.numel(); ++i)
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5);
}

TEST(Ops, L2NormalizeRowsUnitNorm) {
  Rng rng(7);
  Tensor a = Tensor::randn(Shape{5, 8}, rng);
  Tensor norms;
  Tensor u = ops::l2_normalize_rows(a, &norms);
  for (std::int64_t r = 0; r < 5; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 8; ++c)
      s += static_cast<double>(u.at(r, c)) * u.at(r, c);
    EXPECT_NEAR(s, 1.0, 1e-5);
    EXPECT_GT(norms[r], 0.0f);
  }
}

TEST(Ops, L2NormalizeLeavesZeroRowsAlone) {
  Tensor a(Shape{1, 4});
  Tensor u = ops::l2_normalize_rows(a);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(u[i], 0.0f);
}

}  // namespace
}  // namespace cq
