#include <gtest/gtest.h>

#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

ConvGeometry geom(std::int64_t c, std::int64_t h, std::int64_t w,
                  std::int64_t k, std::int64_t stride, std::int64_t pad) {
  ConvGeometry g;
  g.in_channels = c;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = g.kernel_w = k;
  g.stride = stride;
  g.pad = pad;
  return g;
}

TEST(Im2col, OutputGeometry) {
  auto g = geom(3, 8, 8, 3, 1, 1);
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 64);
  auto g2 = geom(1, 8, 8, 3, 2, 1);
  EXPECT_EQ(g2.out_h(), 4);
}

TEST(Im2col, MatmulEqualsDirectConvolution) {
  Rng rng(1);
  for (const auto& [k, stride, pad] :
       std::vector<std::tuple<int, int, int>>{
           {3, 1, 1}, {3, 2, 1}, {1, 1, 0}, {5, 1, 2}, {3, 1, 0}}) {
    const auto g = geom(2, 7, 6, k, stride, pad);
    const std::int64_t cout = 3;
    Tensor img = Tensor::randn(Shape{g.in_channels, g.in_h, g.in_w}, rng);
    Tensor weight = Tensor::randn(Shape{cout, g.col_rows()}, rng);
    std::vector<float> cols(
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    im2col(img.data(), g, cols.data());
    Tensor colm(Shape{g.col_rows(), g.col_cols()}, cols);
    Tensor out = ops::matmul(weight, colm);
    const nn::Conv2dSpec spec{.in_channels = g.in_channels,
                              .out_channels = cout,
                              .kernel = k,
                              .stride = stride,
                              .pad = pad};
    const auto naive = test::naive_conv(spec, img.data(), 1, g.in_h, g.in_w,
                                        weight.data());
    ASSERT_EQ(static_cast<std::size_t>(out.numel()), naive.size())
        << "k=" << k << " s=" << stride << " p=" << pad;
    for (std::int64_t i = 0; i < out.numel(); ++i)
      EXPECT_NEAR(out[i], naive[static_cast<std::size_t>(i)], 1e-4);
  }
}

TEST(Im2col, BatchedMatchesPerImage) {
  // im2col_batched builds the int8 conv tests' reference columns; image i's
  // band must be im2col of image i, bit for bit.
  Rng rng(3);
  constexpr std::int64_t kN = 3;
  for (const auto& [k, stride, pad] :
       std::vector<std::tuple<int, int, int>>{
           {3, 1, 1}, {3, 2, 1}, {1, 1, 0}, {5, 1, 2}, {3, 1, 0}}) {
    const auto g = geom(2, 7, 6, k, stride, pad);
    const auto rows = g.col_rows(), spatial = g.col_cols();
    const auto sample = g.in_channels * g.in_h * g.in_w;
    Tensor imgs = Tensor::randn(Shape{kN, sample}, rng);
    std::vector<float> batched(static_cast<std::size_t>(rows * kN * spatial));
    im2col_batched(imgs.data(), kN, sample, g, batched.data(), kN * spatial);
    std::vector<float> one(static_cast<std::size_t>(rows * spatial));
    for (std::int64_t i = 0; i < kN; ++i) {
      im2col(imgs.data() + i * sample, g, one.data());
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t c = 0; c < spatial; ++c)
          ASSERT_EQ(batched[static_cast<std::size_t>((r * kN + i) * spatial +
                                                     c)],
                    one[static_cast<std::size_t>(r * spatial + c)])
              << "k=" << k << " s=" << stride << " p=" << pad << " img=" << i;
    }
  }
}

TEST(Im2col, PaddingProducesZeros) {
  const auto g = geom(1, 2, 2, 3, 1, 1);
  std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> cols(
      static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(img.data(), g, cols.data());
  // First row = kernel position (0,0): for output (0,0) this samples input
  // (-1,-1) which is padding -> 0.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
}

TEST(Im2row, IsExactTransposeOfIm2col) {
  // im2row lowers the ViT patch embedding; its patch rows follow the
  // weight row layout only if the patch matrix is the exact transpose of
  // the column matrix (same values, bit for bit).
  Rng rng(5);
  for (const auto& [h, w, k, stride, pad] :
       std::vector<std::tuple<int, int, int, int, int>>{
           {7, 6, 3, 1, 1}, {6, 6, 3, 2, 1}, {4, 4, 1, 1, 0},
           {5, 5, 5, 1, 2}, {2, 2, 3, 2, 1},  // 1x1 output, all-pad edges
       }) {
    const auto g = geom(2, h, w, k, stride, pad);
    Tensor img = Tensor::randn(Shape{g.in_channels, g.in_h, g.in_w}, rng);
    const auto rows_n = g.col_rows(), cols_n = g.col_cols();
    std::vector<float> cols(static_cast<std::size_t>(rows_n * cols_n));
    std::vector<float> patches(cols.size(), -1.0f);
    im2col(img.data(), g, cols.data());
    im2row(img.data(), g, patches.data());
    for (std::int64_t r = 0; r < rows_n; ++r)
      for (std::int64_t c = 0; c < cols_n; ++c)
        ASSERT_EQ(patches[static_cast<std::size_t>(c * rows_n + r)],
                  cols[static_cast<std::size_t>(r * cols_n + c)])
            << "h=" << h << " w=" << w << " k=" << k << " s=" << stride
            << " p=" << pad << " row=" << r << " col=" << c;
  }
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of the backward pass.
  Rng rng(2);
  const auto g = geom(2, 6, 5, 3, 2, 1);
  Tensor x = Tensor::randn(Shape{g.in_channels, g.in_h, g.in_w}, rng);
  const auto cols_n = static_cast<std::size_t>(g.col_rows() * g.col_cols());
  Tensor y = Tensor::randn(Shape{static_cast<std::int64_t>(cols_n)}, rng);

  std::vector<float> cols(cols_n);
  im2col(x.data(), g, cols.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols_n; ++i)
    lhs += static_cast<double>(cols[i]) * y[static_cast<std::int64_t>(i)];

  std::vector<float> xg(static_cast<std::size_t>(x.numel()), 0.0f);
  col2im(y.data(), g, xg.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * xg[static_cast<std::size_t>(i)];

  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-3);
}

TEST(Col2im, AccumulatesIntoExistingGradient) {
  const auto g = geom(1, 3, 3, 1, 1, 0);
  std::vector<float> cols(9, 1.0f);
  std::vector<float> grad(9, 5.0f);
  col2im(cols.data(), g, grad.data());
  for (float v : grad) EXPECT_FLOAT_EQ(v, 6.0f);
}

}  // namespace
}  // namespace cq
