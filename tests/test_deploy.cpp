// Int8 deployment through the graph compiler: BN folding, per-channel
// weight quantization, per-sample activation scales and int32 accumulation,
// checked against the fp32 training modules and a materialized dequant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "graph/executor.hpp"
#include "models/encoder.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "serve/model.hpp"
#include "tensor/kernels/igemm.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

graph::CompiledModel int8_plan(nn::Sequential& net, const Shape& sample,
                               std::int64_t max_batch) {
  const graph::CompileOptions opts{max_batch, graph::Precision::kInt8, true};
  return graph::compile(net, sample, opts);
}

float max_rel_err(const Tensor& a, const Tensor& b) {
  CQ_CHECK(a.same_shape(b));
  float scale = 1e-6f;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    scale = std::max(scale, std::fabs(a[i]));
  float err = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    err = std::max(err, std::fabs(a[i] - b[i]) / scale);
  return err;
}

TEST(CompileInt8, ConvMatchesFp32) {
  Rng rng(2);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(
      nn::Conv2dSpec{.in_channels = 3, .out_channels = 8, .kernel = 3,
                     .stride = 1, .pad = 1, .bias = true},
      rng, "c");
  net.set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor y_fp = net.forward(x);
  auto compiled = int8_plan(net, Shape{3, 8, 8}, 2);
  EXPECT_LT(max_rel_err(y_fp, compiled.forward(x)), 0.05f);
  EXPECT_EQ(compiled.int8_nodes().size(), 1u);
}

TEST(CompileInt8, LinearMatchesFp32) {
  Rng rng(3);
  nn::Sequential net;
  net.emplace<nn::Linear>(10, 6, rng, true, "fc");
  net.set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{4, 10}, rng, -1.0f, 1.0f);
  const Tensor y_fp = net.forward(x);
  auto compiled = int8_plan(net, Shape{10}, 4);
  EXPECT_LT(max_rel_err(y_fp, compiled.forward(x)), 0.05f);
}

TEST(CompileInt8, BnFoldingMatchesConvPlusBn) {
  Rng rng(4);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(
      nn::Conv2dSpec{.in_channels = 2, .out_channels = 4, .kernel = 3,
                     .stride = 1, .pad = 1},
      rng, "c");
  auto& bn = net.emplace<nn::BatchNorm2d>(4);
  // Give the BN non-trivial folded parameters.
  net.set_mode(nn::Mode::kTrain);
  for (int i = 0; i < 20; ++i) {
    net.forward(Tensor::randn(Shape{8, 2, 6, 6}, rng, 0.5f, 2.0f));
    net.clear_cache();
  }
  bn.parameters()[0]->value = Tensor::randn(Shape{4}, rng, 1.0f, 0.2f);
  bn.parameters()[1]->value = Tensor::randn(Shape{4}, rng, 0.0f, 0.2f);

  net.set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{2, 2, 6, 6}, rng, -1.0f, 1.0f);
  const Tensor y_fp = net.forward(x);
  auto compiled = int8_plan(net, Shape{2, 6, 6}, 2);
  EXPECT_EQ(compiled.graph().nodes.size(), 1u);  // conv+bn folded into one
  EXPECT_LT(max_rel_err(y_fp, compiled.forward(x)), 0.08f);
}

TEST(CompileInt8, ReluAndPoolingPreserved) {
  Rng rng(5);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(
      nn::Conv2dSpec{.in_channels = 1, .out_channels = 4, .kernel = 3,
                     .stride = 1, .pad = 1},
      rng, "c");
  net.emplace<nn::ReLU>();
  net.emplace<nn::GlobalAvgPool>();
  net.set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{2, 1, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor y_fp = net.forward(x);
  auto compiled = int8_plan(net, Shape{1, 8, 8}, 2);
  // The ReLU rides the int8 conv's epilogue: conv+relu, gap.
  ASSERT_EQ(compiled.graph().nodes.size(), 2u);
  EXPECT_EQ(compiled.graph().nodes[0].act, gemm::Epilogue::Act::kRelu);
  EXPECT_LT(max_rel_err(y_fp, compiled.forward(x)), 0.05f);
}

TEST(CompileInt8, Relu6CapRecovered) {
  Rng rng(6);
  nn::Sequential net;
  net.emplace<nn::ReLU>(6.0f);
  net.set_mode(nn::Mode::kEval);
  auto compiled = int8_plan(net, Shape{3}, 1);
  Tensor x = Tensor::from({-1.0f, 3.0f, 100.0f}).reshape(Shape{1, 3});
  const Tensor& y = compiled.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 6.0f);
}

TEST(CompileInt8, FullResNet18PredictionsMatch) {
  Rng rng(7);
  auto enc = models::make_encoder("resnet18", rng);
  // Populate BN running stats so eval mode is meaningful.
  enc.backbone->set_mode(nn::Mode::kTrain);
  for (int i = 0; i < 15; ++i) {
    enc.forward(Tensor::uniform(Shape{8, 3, 16, 16}, rng));
    enc.backbone->clear_cache();
  }
  enc.backbone->set_mode(nn::Mode::kEval);

  Tensor x = Tensor::uniform(Shape{8, 3, 16, 16}, rng);
  const Tensor f_fp = enc.forward(x);
  auto instance = serve::make_instance(serve::InstanceKind::kInt8,
                                       *enc.backbone, Shape{3, 16, 16}, 8);
  const Tensor& f_q = instance->forward(x);
  ASSERT_TRUE(f_fp.same_shape(f_q));
  // Feature agreement: cosine similarity per row > 0.98.
  for (std::int64_t r = 0; r < f_fp.dim(0); ++r) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::int64_t c = 0; c < f_fp.dim(1); ++c) {
      dot += static_cast<double>(f_fp.at(r, c)) * f_q.at(r, c);
      na += static_cast<double>(f_fp.at(r, c)) * f_fp.at(r, c);
      nb += static_cast<double>(f_q.at(r, c)) * f_q.at(r, c);
    }
    EXPECT_GT(dot / (std::sqrt(na * nb) + 1e-12), 0.98) << "row " << r;
  }
  // Memory win: int8 weights are 1/4 the fp32 parameter bytes (heads
  // aside, the backbone is conv-dominated).
  const graph::CompiledModel& plan = *instance->compiled();
  std::int64_t weight_bytes = 0;  // one int8 byte per weight
  for (std::size_t i : plan.int8_nodes())
    weight_bytes += plan.graph().nodes[i].weight.numel();
  EXPECT_GT(weight_bytes, 0);
  EXPECT_LT(weight_bytes, enc.backbone->parameter_count() * 4 / 3);
}

TEST(CompileInt8, BatchedForwardBitwiseEqualsSingleSample) {
  // Activation scales are computed per sample (per image for conv, per row
  // for linear), so a batch of N must be BITWISE identical to N independent
  // single-sample forwards — the property the serving engine's dynamic
  // batcher relies on.
  Rng rng(11);
  auto enc = models::make_encoder("resnet18", rng);
  enc.backbone->set_mode(nn::Mode::kTrain);
  for (int i = 0; i < 10; ++i) {
    enc.forward(Tensor::uniform(Shape{4, 3, 16, 16}, rng));
    enc.backbone->clear_cache();
  }
  enc.backbone->set_mode(nn::Mode::kEval);
  constexpr std::int64_t kN = 5;
  auto compiled = int8_plan(*enc.backbone, Shape{3, 16, 16}, kN);

  std::vector<Tensor> singles;
  for (std::int64_t i = 0; i < kN; ++i)
    singles.push_back(
        Tensor::uniform(Shape{1, 3, 16, 16}, rng, -1.0f, 1.0f));
  Tensor batch(Shape{kN, 3, 16, 16});
  const auto per = singles[0].numel();
  for (std::int64_t i = 0; i < kN; ++i)
    std::memcpy(batch.data() + i * per, singles[static_cast<std::size_t>(i)].data(),
                static_cast<std::size_t>(per) * sizeof(float));

  const Tensor f_batch = compiled.forward(batch);  // copy: arena reused
  ASSERT_EQ(f_batch.dim(0), kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    const Tensor& f_one =
        compiled.forward(singles[static_cast<std::size_t>(i)]);
    for (std::int64_t c = 0; c < f_batch.dim(1); ++c)
      EXPECT_EQ(f_batch.at(i, c), f_one.at(0, c))
          << "sample " << i << " feature " << c;
  }
}

TEST(CompileInt8, MobileNetV2Compiles) {
  Rng rng(8);
  auto enc = models::make_encoder("mobilenetv2", rng);
  enc.backbone->set_mode(nn::Mode::kTrain);
  for (int i = 0; i < 10; ++i) {
    enc.forward(Tensor::uniform(Shape{4, 3, 16, 16}, rng));
    enc.backbone->clear_cache();
  }
  enc.backbone->set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{2, 3, 16, 16}, rng);
  const Tensor f_fp = enc.forward(x);
  auto compiled = int8_plan(*enc.backbone, Shape{3, 16, 16}, 2);
  const Tensor& f_q = compiled.forward(x);
  ASSERT_TRUE(f_fp.same_shape(f_q));
  EXPECT_LT(max_rel_err(f_fp, f_q), 0.25f);  // deeper nets accumulate error
}

TEST(Int8Accumulators, WideReductionDoesNotWrapInt16) {
  // All-ones weights and input over in=2048: each int8 product is 127*127
  // and the effective reduction reaches 2048 * 127 * 127 = 33,032,192 —
  // an int16 accumulator (max 32767) would have wrapped ~1000 times over
  // and produced garbage. The near-exact answer pins int32 accumulation in
  // the GEMM core.
  Rng rng(20);
  const std::int64_t in = 2048, out = 3;
  nn::Sequential net;
  auto& fc = net.emplace<nn::Linear>(in, out, rng, false, "fc");
  for (std::int64_t i = 0; i < fc.weight().value.numel(); ++i)
    fc.weight().value[i] = 1.0f;
  net.set_mode(nn::Mode::kEval);
  auto compiled = int8_plan(net, Shape{in}, 1);
  Tensor x(Shape{1, in});
  for (std::int64_t i = 0; i < in; ++i) x[i] = 1.0f;
  const Tensor& y = compiled.forward(x);
  for (std::int64_t r = 0; r < out; ++r)
    EXPECT_NEAR(y.at(0, r), 2048.0f, 0.01f) << "row " << r;
}

TEST(Int8Accumulators, PerChannelScaleEpilogueMatchesMaterializedDequant) {
  // Weight rows spanning five orders of magnitude: a per-TENSOR scale would
  // crush the small rows to zero bits. The compiled op must match the
  // materialized pipeline — dequantize the per-channel int8 weights and the
  // per-sample int8 activations back to fp32, then do an exact (double)
  // GEMM — to float-rounding precision, pinning the epilogue's per-channel
  // scale folding.
  Rng rng(21);
  const std::int64_t in = 32, out = 6, n = 4;
  nn::Sequential net;
  auto& fc = net.emplace<nn::Linear>(in, out, rng, true, "fc");
  Tensor& w = fc.weight().value;
  for (std::int64_t r = 0; r < out; ++r) {
    const float mag = std::pow(10.0f, static_cast<float>(r) - 3.0f);
    for (std::int64_t c = 0; c < in; ++c)
      w.at(r, c) = mag * (0.2f + 0.8f * static_cast<float>((c * 7 + r) % 11) /
                                     10.0f) *
                   ((c + r) % 2 == 0 ? 1.0f : -1.0f);
  }
  net.set_mode(nn::Mode::kEval);
  auto compiled = int8_plan(net, Shape{in}, n);
  Tensor x = Tensor::uniform(Shape{n, in}, rng, -1.0f, 1.0f);
  const Tensor& y = compiled.forward(x);

  // Materialize: per-output-channel weight quantization (the compiler's
  // round-half-away formula), per-sample activation quantization (the
  // igemm pack formula), dequantize both, exact double GEMM.
  for (std::int64_t i = 0; i < n; ++i) {
    float xmax = 0.0f;
    for (std::int64_t c = 0; c < in; ++c)
      xmax = std::max(xmax, std::fabs(x.at(i, c)));
    const float xscale = std::max(xmax / 127.0f, 1e-12f);
    for (std::int64_t r = 0; r < out; ++r) {
      float wmax = 0.0f;
      for (std::int64_t c = 0; c < in; ++c)
        wmax = std::max(wmax, std::fabs(w.at(r, c)));
      const float wscale = wmax > 0.0f ? wmax / 127.0f : 1.0f;
      double acc = 0.0;
      for (std::int64_t c = 0; c < in; ++c) {
        const double wd =
            static_cast<double>(std::clamp<long>(
                std::lround(w.at(r, c) / wscale), -127L, 127L)) *
            wscale;
        const double xd = static_cast<double>(igemm::detail::quantize_value(
                              x.at(i, c), 1.0f / xscale)) *
                          xscale;
        acc += wd * xd;
      }
      acc += fc.bias()->value[r];
      const float ref = static_cast<float>(acc);
      EXPECT_NEAR(y.at(i, r), ref,
                  1e-4f * std::max(1.0f, std::fabs(ref)))
          << "sample " << i << " channel " << r;
    }
  }
}

TEST(CompileInt8, RejectsUnsupportedModules) {
  Rng rng(9);
  nn::Sequential net;
  net.emplace<nn::BatchNorm2d>(4);  // BN without preceding conv: unfoldable
  EXPECT_THROW(int8_plan(net, Shape{4, 4, 4}, 1), CheckError);
}

}  // namespace
}  // namespace cq
