// Module protocol semantics: cache stacks, modes, parameter plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "models/heads.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

TEST(Module, BackwardWithoutForwardThrows) {
  Rng rng(1);
  nn::Linear layer(3, 2, rng);
  EXPECT_THROW(layer.backward(Tensor(Shape{1, 2})), CheckError);
}

TEST(Module, EvalModePushesNoCaches) {
  Rng rng(2);
  nn::Linear layer(3, 2, rng);
  layer.set_mode(nn::Mode::kEval);
  layer.forward(Tensor::randn(Shape{4, 3}, rng));
  EXPECT_EQ(layer.pending_caches(), 0u);
  EXPECT_THROW(layer.backward(Tensor(Shape{4, 2})), CheckError);
}

TEST(Module, CacheStackLifoMultiBranch) {
  // Two forwards with different inputs, then two backwards in reverse
  // order: each backward must use its own branch's cached input.
  Rng rng(3);
  nn::Linear layer(2, 2, rng, /*bias=*/false);
  Tensor x1(Shape{1, 2}, {1.0f, 0.0f});
  Tensor x2(Shape{1, 2}, {0.0f, 1.0f});
  layer.forward(x1);
  layer.forward(x2);
  EXPECT_EQ(layer.pending_caches(), 2u);
  Tensor g(Shape{1, 2}, {1.0f, 1.0f});
  layer.backward(g);  // consumes x2's cache
  EXPECT_EQ(layer.pending_caches(), 1u);
  // Weight grad after first backward: outer(g, x2) -> column 1 populated.
  const Tensor grad_after_first = layer.weight().grad;
  EXPECT_FLOAT_EQ(grad_after_first.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_after_first.at(0, 1), 1.0f);
  layer.backward(g);  // consumes x1's cache, accumulates
  EXPECT_EQ(layer.pending_caches(), 0u);
  EXPECT_FLOAT_EQ(layer.weight().grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(layer.weight().grad.at(0, 1), 1.0f);
}

TEST(Module, ClearCacheDropsPendingForwards) {
  Rng rng(4);
  nn::Linear layer(2, 2, rng);
  layer.forward(Tensor::randn(Shape{1, 2}, rng));
  layer.forward(Tensor::randn(Shape{1, 2}, rng));
  layer.clear_cache();
  EXPECT_EQ(layer.pending_caches(), 0u);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(5);
  nn::Linear layer(2, 3, rng);
  layer.forward(Tensor::randn(Shape{2, 2}, rng));
  layer.backward(Tensor::ones(Shape{2, 3}));
  const auto nonzero = [](float v) { return v != 0.0f; };
  EXPECT_TRUE(std::ranges::any_of(layer.weight().grad.span(), nonzero));
  layer.zero_grad();
  EXPECT_TRUE(std::ranges::none_of(layer.weight().grad.span(), nonzero));
}

TEST(Module, ParameterCountLinear) {
  Rng rng(6);
  nn::Linear layer(5, 4, rng);
  EXPECT_EQ(layer.parameter_count(), 5 * 4 + 4);
  nn::Linear nobias(5, 4, rng, false);
  EXPECT_EQ(nobias.parameter_count(), 20);
}

TEST(Module, BiasExcludedFromDecay) {
  Rng rng(7);
  nn::Linear layer(2, 2, rng);
  auto params = layer.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_TRUE(params[0]->decay);   // weight
  EXPECT_FALSE(params[1]->decay);  // bias
}

TEST(Module, BatchNormParamsExcludedFromDecay) {
  nn::BatchNorm2d bn(4);
  for (auto* p : bn.parameters()) EXPECT_FALSE(p->decay);
}

TEST(Sequential, ForwardBackwardChains) {
  Rng rng(8);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(3, 4, rng, true, "l1");
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(4, 2, rng, true, "l2");
  Tensor x = Tensor::randn(Shape{2, 3}, rng);
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 2}));
  Tensor gx = seq.backward(Tensor::ones(Shape{2, 2}));
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_EQ(seq.parameters().size(), 4u);
}

TEST(Sequential, SetModePropagates) {
  Rng rng(9);
  nn::Sequential seq;
  auto& l1 = seq.emplace<nn::Linear>(2, 2, rng);
  seq.set_mode(nn::Mode::kEval);
  EXPECT_EQ(l1.mode(), nn::Mode::kEval);
  seq.set_mode(nn::Mode::kTrain);
  EXPECT_EQ(l1.mode(), nn::Mode::kTrain);
}

TEST(Sequential, EmplaceInheritsCurrentMode) {
  Rng rng(10);
  nn::Sequential seq;
  seq.set_mode(nn::Mode::kEval);
  auto& l1 = seq.emplace<nn::Linear>(2, 2, rng);
  EXPECT_EQ(l1.mode(), nn::Mode::kEval);
}

TEST(BatchNorm, NormalizesTrainBatch) {
  Rng rng(11);
  nn::BatchNorm2d bn(2);
  Tensor x = Tensor::randn(Shape{8, 2, 4, 4}, rng, 3.0f, 2.0f);
  Tensor y = bn.forward(x);
  // Per-channel output mean ~0, var ~1 (gamma=1, beta=0 at init).
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 8; ++n)
      for (std::int64_t h = 0; h < 4; ++h)
        for (std::int64_t w = 0; w < 4; ++w) {
          const double v = y.at(n, c, h, w);
          sum += v;
          sq += v * v;
          ++count;
        }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeAndDriveEval) {
  Rng rng(12);
  nn::BatchNorm2d bn(1, /*momentum=*/0.5f);
  Tensor x = Tensor::randn(Shape{16, 1, 4, 4}, rng, 2.0f, 1.0f);
  for (int i = 0; i < 30; ++i) {
    bn.forward(x);
    bn.clear_cache();
  }
  EXPECT_NEAR(bn.running_mean()[0], 2.0f, 0.2f);
  EXPECT_NEAR(bn.running_var()[0], 1.0f, 0.3f);
  bn.set_mode(nn::Mode::kEval);
  Tensor y = bn.forward(x);
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) sum += y[i];
  EXPECT_NEAR(sum / y.numel(), 0.0, 0.2);
}

TEST(GlobalAvgPool, AveragesSpatial) {
  nn::GlobalAvgPool pool;
  Tensor x(Shape{1, 2, 1, 2}, {1.0f, 3.0f, 10.0f, 20.0f});
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(CopyParameters, CopiesValuesAndBuffers) {
  Rng rng(13);
  nn::Sequential a, b;
  a.emplace<nn::Linear>(3, 3, rng);
  a.emplace<nn::BatchNorm2d>(3);
  b.emplace<nn::Linear>(3, 3, rng);
  b.emplace<nn::BatchNorm2d>(3);
  // Make a's BN running stats distinctive.
  std::vector<Tensor*> abuf;
  a.collect_buffers(abuf);
  abuf[0]->fill(7.0f);
  nn::copy_parameters(a, b);
  std::vector<Tensor*> bbuf;
  b.collect_buffers(bbuf);
  EXPECT_FLOAT_EQ((*bbuf[0])[0], 7.0f);
  EXPECT_FLOAT_EQ(a.parameters()[0]->value[0], b.parameters()[0]->value[0]);
}

TEST(EmaUpdate, InterpolatesTowardsSource) {
  Rng rng(14);
  nn::Sequential src, dst;
  src.emplace<nn::Linear>(2, 2, rng, false);
  dst.emplace<nn::Linear>(2, 2, rng, false);
  src.parameters()[0]->value.fill(1.0f);
  dst.parameters()[0]->value.fill(0.0f);
  nn::ema_update(src, dst, 0.9f);
  EXPECT_NEAR(dst.parameters()[0]->value[0], 0.1f, 1e-6);
  nn::ema_update(src, dst, 0.9f);
  EXPECT_NEAR(dst.parameters()[0]->value[0], 0.19f, 1e-6);
}

TEST(SnapshotRestore, RoundTripsState) {
  Rng rng(15);
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 3, rng);
  net.emplace<nn::BatchNorm2d>(3);
  const auto saved = nn::snapshot_state(net);
  const float w0 = net.parameters()[0]->value[0];
  net.parameters()[0]->value.fill(42.0f);
  std::vector<Tensor*> buf;
  net.collect_buffers(buf);
  buf[0]->fill(-3.0f);
  nn::restore_state(net, saved);
  EXPECT_FLOAT_EQ(net.parameters()[0]->value[0], w0);
  EXPECT_FLOAT_EQ((*buf[0])[0], 0.0f);
}

TEST(Init, HeUniformBounds) {
  Rng rng(16);
  Tensor w = nn::init::he_uniform(Shape{100, 9}, 9, rng);
  const float bound = std::sqrt(6.0f / 9.0f);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_GE(w[i], -bound);
    EXPECT_LE(w[i], bound);
  }
}

TEST(Init, HeNormalStddev) {
  Rng rng(17);
  Tensor w = nn::init::he_normal(Shape{200, 50}, 50, rng);
  double sq = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i)
    sq += static_cast<double>(w[i]) * w[i];
  EXPECT_NEAR(sq / w.numel(), 2.0 / 50.0, 0.005);
}

TEST(Conv2d, RejectsInvalidGroups) {
  Rng rng(18);
  EXPECT_THROW(nn::Conv2d({.in_channels = 3, .out_channels = 4, .kernel = 3,
                           .stride = 1, .pad = 1, .groups = 2},
                          rng),
               CheckError);
}

TEST(Conv2d, RejectsWrongInputChannels) {
  Rng rng(19);
  nn::Conv2d conv({.in_channels = 3, .out_channels = 4}, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8})), CheckError);
}

TEST(Conv2d, OutputShape) {
  Rng rng(20);
  nn::Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 3,
                   .stride = 2, .pad = 1},
                  rng);
  Tensor y = conv.forward(Tensor::randn(Shape{2, 3, 9, 9}, rng));
  EXPECT_EQ(y.shape(), Shape({2, 8, 5, 5}));
}

}  // namespace
}  // namespace cq
