// CPT-V contrastive post-training quantization (quant/ptq.hpp): the
// determinism contract — fixed-seed calibration emits byte-identical scale
// tables and bitwise-stable quantized forwards across independent runs —
// plus the loss-monotonicity accept rule, the ScaleTable disk round trip,
// and the serve-instance apply path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/executor.hpp"
#include "models/encoder.hpp"
#include "quant/ptq.hpp"
#include "serve/model.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

constexpr std::int64_t kImg = 16;
constexpr std::int64_t kBatch = 8;

models::Encoder eval_vit(std::uint64_t seed) {
  Rng rng(seed);
  auto enc = models::make_encoder("vit", rng);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  return enc;
}

Tensor calib_batch(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(Shape{kBatch, 3, kImg, kImg}, rng, -1.0f, 1.0f);
}

quant::PtqConfig fast_config() {
  quant::PtqConfig cfg;
  cfg.rounds = 1;
  cfg.candidates = 3;
  return cfg;
}

// One full calibration from a fresh plan; returns the result plus the
// quantized embeddings the calibrated plan produces.
quant::PtqResult run_calibration(const Tensor& calib, const Tensor& zfp,
                                 Tensor* zq_out) {
  auto enc = eval_vit(61);
  auto qm = graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                           graph::CompileOptions{kBatch,
                                                 graph::Precision::kInt8,
                                                 true});
  auto result = quant::calibrate(qm, calib, zfp, fast_config());
  if (zq_out != nullptr) *zq_out = qm.forward(calib);  // refcounted copy
  return result;
}

TEST(Ptq, L2NormalizeRows) {
  Rng rng(67);
  Tensor x = Tensor::uniform(Shape{5, 9}, rng, -3.0f, 3.0f);
  const Tensor z = quant::l2_normalize_rows(x);
  for (std::int64_t i = 0; i < 5; ++i) {
    double sq = 0.0;
    for (std::int64_t j = 0; j < 9; ++j)
      sq += static_cast<double>(z.at(i, j)) * z.at(i, j);
    EXPECT_NEAR(sq, 1.0, 1e-5) << i;
  }
  // All-zero rows stay zero instead of dividing by zero.
  Tensor zero = Tensor::zeros(Shape{2, 4});
  const Tensor zz = quant::l2_normalize_rows(zero);
  for (std::int64_t i = 0; i < zz.numel(); ++i) EXPECT_EQ(zz.data()[i], 0.0f);
}

// The accept rule only ever keeps loss-reducing proposals, so the final
// InfoNCE can never exceed the min-max starting point.
TEST(Ptq, CalibrationNeverIncreasesLoss) {
  auto enc = eval_vit(61);
  const Tensor calib = calib_batch(71);
  const Tensor zfp = enc.backbone->forward(calib);
  const auto result = run_calibration(calib, zfp, nullptr);
  EXPECT_GT(result.proposed, 0);
  EXPECT_LE(result.final_loss, result.initial_loss);
  EXPECT_EQ(result.table.labels.size(), result.table.scales.size());
  EXPECT_EQ(result.table.labels.size(), 8u);  // 2 blocks x 4 int8 linears
}

// Fixed seed => byte-identical scale tables from two independent fresh-plan
// calibrations (the satellite's headline gate).
TEST(Ptq, FixedSeedTablesAreByteIdentical) {
  auto enc = eval_vit(61);
  const Tensor calib = calib_batch(71);
  const Tensor zfp = enc.backbone->forward(calib);
  Tensor zq1, zq2;
  const auto r1 = run_calibration(calib, zfp, &zq1);
  const auto r2 = run_calibration(calib, zfp, &zq2);
  ASSERT_EQ(r1.table.labels, r2.table.labels);
  ASSERT_EQ(r1.table.scales.size(), r2.table.scales.size());
  for (std::size_t e = 0; e < r1.table.scales.size(); ++e) {
    ASSERT_EQ(r1.table.scales[e].size(), r2.table.scales[e].size()) << e;
    for (std::size_t c = 0; c < r1.table.scales[e].size(); ++c)
      EXPECT_EQ(r1.table.scales[e][c], r2.table.scales[e][c]) << e << "," << c;
  }
  EXPECT_EQ(r1.accepted, r2.accepted);
  EXPECT_EQ(r1.final_loss, r2.final_loss);
  // ...and the calibrated plans' quantized embeddings are bitwise equal.
  ASSERT_EQ(zq1.shape(), zq2.shape());
  for (std::int64_t i = 0; i < zq1.numel(); ++i)
    EXPECT_EQ(zq1.data()[i], zq2.data()[i]) << i;
}

// ScaleTable disk round trip, then apply() onto a fresh min-max plan: the
// re-applied plan must reproduce the calibrated plan's forwards bitwise.
TEST(Ptq, SaveLoadApplyRoundTripBitwise) {
  auto enc = eval_vit(61);
  const Tensor calib = calib_batch(71);
  const Tensor zfp = enc.backbone->forward(calib);
  Tensor zq_cal;
  const auto result = run_calibration(calib, zfp, &zq_cal);

  const std::string path = "test_ptq_scales.bin";
  result.table.save(path);
  const auto loaded = quant::ScaleTable::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.labels, result.table.labels);

  auto enc2 = eval_vit(61);  // same checkpoint seed -> same weights
  auto qm = graph::compile(*enc2.backbone, Shape{3, kImg, kImg},
                           graph::CompileOptions{kBatch,
                                                 graph::Precision::kInt8,
                                                 true});
  quant::apply(qm, loaded);
  const Tensor& zq_applied = qm.forward(calib);
  ASSERT_EQ(zq_applied.shape(), zq_cal.shape());
  for (std::int64_t i = 0; i < zq_cal.numel(); ++i)
    EXPECT_EQ(zq_applied.data()[i], zq_cal.data()[i]) << i;
}

// The serve path: ModelInstance::compiled() exposes the plan so a calibrated
// table lands on the exact instance the engine runs.
TEST(Ptq, AppliesThroughServeInstance) {
  auto enc = eval_vit(61);
  const Tensor calib = calib_batch(71);
  const Tensor zfp = enc.backbone->forward(calib);
  Tensor zq_cal;
  const auto result = run_calibration(calib, zfp, &zq_cal);

  auto enc2 = eval_vit(61);
  auto inst = serve::make_instance(serve::InstanceKind::kInt8, *enc2.backbone,
                                   Shape{3, kImg, kImg}, kBatch);
  ASSERT_NE(inst->compiled(), nullptr);
  quant::apply(*inst->compiled(), result.table);
  const Tensor& zq_served = inst->forward(calib);
  ASSERT_EQ(zq_served.shape(), zq_cal.shape());
  for (std::int64_t i = 0; i < zq_cal.numel(); ++i)
    EXPECT_EQ(zq_served.data()[i], zq_cal.data()[i]) << i;
}

TEST(Ptq, ApplyRejectsUnknownLabel) {
  auto enc = eval_vit(61);
  auto qm = graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                           graph::CompileOptions{2, graph::Precision::kInt8,
                                                 true});
  quant::ScaleTable bogus;
  bogus.labels.push_back("no_such_layer");
  bogus.scales.push_back({1.0f});
  EXPECT_THROW(quant::apply(qm, bogus), CheckError);
}

TEST(Ptq, CalibrateValidatesInputs) {
  auto enc = eval_vit(61);
  auto qm = graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                           graph::CompileOptions{4, graph::Precision::kInt8,
                                                 true});
  Rng rng(73);
  const Tensor calib = Tensor::uniform(Shape{4, 3, kImg, kImg}, rng,
                                       -1.0f, 1.0f);
  const Tensor zfp = enc.backbone->forward(calib);
  // Single sample: no negatives for InfoNCE.
  Tensor one(Shape{1, 3, kImg, kImg});
  std::copy(calib.data(), calib.data() + 3 * kImg * kImg, one.data());
  Tensor zfp_one(Shape{1, zfp.dim(1)});
  std::copy(zfp.data(), zfp.data() + zfp.dim(1), zfp_one.data());
  EXPECT_THROW(quant::calibrate(qm, one, zfp_one, fast_config()), CheckError);
  // Batch beyond the plan's max.
  Rng rng2(79);
  const Tensor big = Tensor::uniform(Shape{6, 3, kImg, kImg}, rng2,
                                     -1.0f, 1.0f);
  EXPECT_THROW(quant::calibrate(qm, big, zfp, fast_config()), CheckError);
  // An fp32 plan has no int8 nodes to calibrate.
  auto enc2 = eval_vit(61);
  auto fp = graph::compile(*enc2.backbone, Shape{3, kImg, kImg},
                           graph::CompileOptions{4, graph::Precision::kF32,
                                                 true});
  EXPECT_THROW(quant::calibrate(fp, calib, zfp, fast_config()), CheckError);
}

// requantize_node rejects out-of-range indices, fp32 nodes, and wrong-width
// scale vectors — the executor-side guardrails PTQ leans on.
TEST(Ptq, RequantizeNodeValidates) {
  auto enc = eval_vit(61);
  auto qm = graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                           graph::CompileOptions{2, graph::Precision::kInt8,
                                                 true});
  const auto nodes = qm.int8_nodes();
  ASSERT_FALSE(nodes.empty());
  const auto idx = nodes.front();
  std::vector<float> wrong(qm.node_scales(idx).size() + 1, 0.01f);
  EXPECT_THROW(qm.requantize_node(idx, wrong), CheckError);
  EXPECT_THROW(qm.requantize_node(qm.graph().nodes.size(), {0.01f}),
               CheckError);
}

// ---- Conv requantize ---------------------------------------------------
//
// The tests above run the ViT, whose int8 nodes are all Linears. A conv's
// requantize also permutes its weights into the channel-quad k order
// (tap, cq, ci) of the plan's conv lowering, so these repeat the checks on
// conv plans, including mobilenetv2's grouped and depthwise convs.

struct ConvPlan {
  models::Encoder enc;
  graph::CompiledModel qm;
};

ConvPlan conv_plan(const std::string& arch) {
  Rng rng(83);
  auto enc = models::make_encoder(arch, rng);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  auto qm = graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                           graph::CompileOptions{kBatch,
                                                 graph::Precision::kInt8,
                                                 true});
  return ConvPlan{std::move(enc), std::move(qm)};
}

// A forward's output, copied out of the plan's reused output tensor.
std::vector<float> forward_values(graph::CompiledModel& qm, const Tensor& x) {
  const Tensor& out = qm.forward(x);
  return std::vector<float>(out.data(), out.data() + out.numel());
}

// Requantizing a conv with the scales it already has must rebuild exactly
// the packed weights compile() built.
TEST(Ptq, RequantizeConvWithOwnScalesIsBitwiseNoOp) {
  const Tensor calib = calib_batch(89);
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    SCOPED_TRACE(arch);
    ConvPlan p = conv_plan(arch);
    const std::vector<float> base = forward_values(p.qm, calib);
    int convs = 0;
    for (std::size_t i : p.qm.int8_nodes()) {
      if (p.qm.graph().nodes[i].op != graph::Op::kConv2d) continue;
      ++convs;
      const std::vector<float> scales = p.qm.node_scales(i);
      p.qm.requantize_node(i, scales);
      ASSERT_EQ(forward_values(p.qm, calib), base)
          << p.qm.graph().nodes[i].label;
    }
    EXPECT_GT(convs, 10);
  }
}

// A requantized conv plan's table, saved, loaded and applied onto a fresh
// plan, must reproduce that plan's forward bitwise.
TEST(Ptq, ConvScaleTableRoundTripBitwise) {
  const Tensor calib = calib_batch(97);
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    SCOPED_TRACE(arch);
    ConvPlan p = conv_plan(arch);
    const std::vector<float> base = forward_values(p.qm, calib);
    quant::ScaleTable table;
    for (std::size_t i : p.qm.int8_nodes()) {
      std::vector<float> scales = p.qm.node_scales(i);
      for (std::size_t c = 0; c < scales.size(); ++c)
        scales[c] *= 0.8f + 0.15f * static_cast<float>(c % 3);
      p.qm.requantize_node(i, scales);
      table.labels.push_back(p.qm.graph().nodes[i].label);
      table.scales.push_back(scales);
    }
    const std::vector<float> requantized = forward_values(p.qm, calib);
    ASSERT_NE(requantized, base) << "the new scales must change the forward";

    const std::string path = std::string("test_ptq_conv_scales_") + arch +
                             ".bin";
    table.save(path);
    const auto loaded = quant::ScaleTable::load(path);
    std::remove(path.c_str());
    ConvPlan fresh = conv_plan(arch);
    quant::apply(fresh.qm, loaded);
    EXPECT_EQ(forward_values(fresh.qm, calib), requantized);
  }
}

}  // namespace
}  // namespace cq
