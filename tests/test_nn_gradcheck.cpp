// Numeric gradient verification of every layer's backward pass.
#include <gtest/gtest.h>

#include "models/heads.hpp"
#include "models/mobilenetv2.hpp"
#include "models/resnet.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "testutil.hpp"

namespace cq {
namespace {

TEST(GradCheck, Linear) {
  Rng rng(1);
  nn::Linear layer(5, 4, rng);
  Tensor x = Tensor::randn(Shape{3, 5}, rng);
  test::check_module_gradients(layer, x, rng);
}

TEST(GradCheck, LinearNoBias) {
  Rng rng(2);
  nn::Linear layer(4, 3, rng, /*bias=*/false);
  Tensor x = Tensor::randn(Shape{2, 4}, rng);
  test::check_module_gradients(layer, x, rng);
}

TEST(GradCheck, Conv2dBasic) {
  Rng rng(3);
  nn::Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3,
                   .stride = 1, .pad = 1},
                  rng);
  Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  test::check_module_gradients(conv, x, rng);
}

TEST(GradCheck, Conv2dStridedWithBias) {
  Rng rng(4);
  nn::Conv2d conv({.in_channels = 2, .out_channels = 2, .kernel = 3,
                   .stride = 2, .pad = 1, .bias = true},
                  rng);
  Tensor x = Tensor::randn(Shape{2, 2, 6, 6}, rng);
  test::check_module_gradients(conv, x, rng);
}

TEST(GradCheck, Conv2d1x1) {
  Rng rng(5);
  nn::Conv2d conv({.in_channels = 3, .out_channels = 4, .kernel = 1,
                   .stride = 1, .pad = 0},
                  rng);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  test::check_module_gradients(conv, x, rng);
}

TEST(GradCheck, Conv2dDepthwise) {
  Rng rng(6);
  nn::Conv2d conv({.in_channels = 4, .out_channels = 4, .kernel = 3,
                   .stride = 1, .pad = 1, .groups = 4},
                  rng);
  Tensor x = Tensor::randn(Shape{2, 4, 4, 4}, rng);
  test::check_module_gradients(conv, x, rng);
}

TEST(GradCheck, Conv2dGrouped) {
  Rng rng(7);
  nn::Conv2d conv({.in_channels = 4, .out_channels = 6, .kernel = 3,
                   .stride = 1, .pad = 1, .groups = 2},
                  rng);
  Tensor x = Tensor::randn(Shape{1, 4, 4, 4}, rng);
  test::check_module_gradients(conv, x, rng);
}

// The next three cases size every GEMM dimension off the blocked kernel's
// 8x16 register tile (see tensor/gemm.hpp), so the backward GEMMs run
// through partial edge tiles in m, n, and k simultaneously.

TEST(GradCheck, LinearPartialTileEdges) {
  Rng rng(40);
  // batch=5 (m edge), out=9 (one full 8-sliver + 1), in=13 (k not a tile
  // multiple) — partial tiles in every dimension of all three GEMMs.
  nn::Linear layer(13, 9, rng);
  Tensor x = Tensor::randn(Shape{5, 13}, rng);
  test::check_module_gradients(layer, x, rng);
}

TEST(GradCheck, Conv2dPartialTileEdges) {
  Rng rng(41);
  // cout=7 (< one 8-row tile), krows=3*9=27, spatial=7*5=35 (two 16-column
  // tiles + 3): dW (NT) and dcols (TN) both hit ragged edges.
  nn::Conv2d conv({.in_channels = 3, .out_channels = 7, .kernel = 3,
                   .stride = 1, .pad = 1},
                  rng);
  Tensor x = Tensor::randn(Shape{2, 3, 7, 5}, rng);
  test::check_module_gradients(conv, x, rng);
}

TEST(GradCheck, Conv2dOutChannelsJustPastTile) {
  Rng rng(42);
  // cout=17 = 2 full 8-row tiles + 1 leftover row; stride-2 geometry keeps
  // spatial (3*3=9) below one column tile.
  nn::Conv2d conv({.in_channels = 5, .out_channels = 17, .kernel = 3,
                   .stride = 2, .pad = 1, .bias = true},
                  rng);
  Tensor x = Tensor::randn(Shape{1, 5, 6, 6}, rng);
  test::check_module_gradients(conv, x, rng);
}

TEST(GradCheck, BatchNorm2d) {
  Rng rng(8);
  nn::BatchNorm2d bn(3);
  // Shift gamma/beta off their init so gradients are non-trivial.
  bn.parameters()[0]->value = Tensor::randn(Shape{3}, rng, 1.0f, 0.2f);
  bn.parameters()[1]->value = Tensor::randn(Shape{3}, rng, 0.0f, 0.2f);
  Tensor x = Tensor::randn(Shape{3, 3, 3, 3}, rng);
  // BN grads are sensitive to fp32 batch-stat noise; loosen a bit.
  test::GradCheckOptions opt;
  opt.eps = 1e-2;
  opt.rtol = 6e-2;
  opt.atol = 3e-3;
  test::check_module_gradients(bn, x, rng, opt);
}

TEST(GradCheck, ReLU) {
  Rng rng(9);
  nn::ReLU relu;
  // Keep values away from the kink at 0 for clean finite differences.
  Tensor x = Tensor::randn(Shape{4, 6}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
  test::check_module_gradients(relu, x, rng);
}

TEST(GradCheck, ReLU6Cap) {
  Rng rng(10);
  nn::ReLU relu(6.0f);
  Tensor x = Tensor::randn(Shape{3, 5}, rng, 3.0f, 4.0f);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
    if (std::abs(x[i] - 6.0f) < 0.05f) x[i] = 5.5f;
  }
  test::check_module_gradients(relu, x, rng);
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(13);
  nn::GlobalAvgPool pool;
  Tensor x = Tensor::randn(Shape{2, 3, 3, 3}, rng);
  test::check_module_gradients(pool, x, rng);
}

TEST(GradCheck, SequentialConvBnRelu) {
  Rng rng(15);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(
      nn::Conv2dSpec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                     .stride = 1, .pad = 1},
      rng, "c");
  seq.emplace<nn::BatchNorm2d>(3);
  seq.emplace<nn::ReLU>();
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  test::GradCheckOptions opt;
  opt.eps = 5e-3;
  opt.rtol = 8e-2;
  opt.atol = 4e-3;
  opt.allow_kink_fraction = 0.08;
  test::check_module_gradients(seq, x, rng, opt);
}

TEST(GradCheck, BasicBlockWithDownsample) {
  Rng rng(16);
  auto policy = std::make_shared<quant::QuantPolicy>();
  models::BasicBlock block(2, 4, 2, policy, rng, "b");
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  test::GradCheckOptions opt;
  opt.eps = 5e-3;
  opt.rtol = 8e-2;
  opt.atol = 5e-3;
  opt.allow_kink_fraction = 0.08;
  test::check_module_gradients(block, x, rng, opt);
}

TEST(GradCheck, BasicBlockIdentitySkip) {
  Rng rng(17);
  auto policy = std::make_shared<quant::QuantPolicy>();
  models::BasicBlock block(3, 3, 1, policy, rng, "b");
  Tensor x = Tensor::randn(Shape{2, 3, 3, 3}, rng);
  test::GradCheckOptions opt;
  opt.eps = 5e-3;
  opt.rtol = 8e-2;
  opt.atol = 5e-3;
  opt.allow_kink_fraction = 0.08;
  test::check_module_gradients(block, x, rng, opt);
}

TEST(GradCheck, InvertedResidual) {
  Rng rng(18);
  auto policy = std::make_shared<quant::QuantPolicy>();
  models::InvertedResidual block(3, 3, 1, 2, policy, rng, "ir");
  Tensor x = Tensor::randn(Shape{2, 3, 3, 3}, rng);
  test::GradCheckOptions opt;
  opt.eps = 5e-3;
  opt.rtol = 8e-2;
  opt.atol = 5e-3;
  opt.allow_kink_fraction = 0.08;
  test::check_module_gradients(block, x, rng, opt);
}

TEST(GradCheck, BatchNorm1dHead) {
  Rng rng(19);
  models::BatchNorm1d bn(4);
  bn.parameters()[0]->value = Tensor::randn(Shape{4}, rng, 1.0f, 0.2f);
  Tensor x = Tensor::randn(Shape{6, 4}, rng);
  test::GradCheckOptions opt;
  opt.rtol = 6e-2;
  opt.atol = 3e-3;
  test::check_module_gradients(bn, x, rng, opt);
}

TEST(GradCheck, ProjectionHead) {
  Rng rng(20);
  auto head = models::make_projection_head(6, 5, 4, rng);
  Tensor x = Tensor::randn(Shape{3, 6}, rng);
  test::GradCheckOptions opt;
  opt.eps = 5e-3;
  opt.allow_kink_fraction = 0.08;
  test::check_module_gradients(*head, x, rng, opt);
}

}  // namespace
}  // namespace cq
