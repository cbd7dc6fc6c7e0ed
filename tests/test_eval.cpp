// Evaluation protocols: fine-tuning and linear eval.
#include <gtest/gtest.h>

#include "data/synth.hpp"
#include "eval/classifier.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

struct Splits {
  data::Dataset train;
  data::Dataset test;
};

Splits tiny_splits() {
  auto cfg = data::synth_cifar_config();
  Rng rng(cfg.seed + 9);
  Splits s;
  s.train = data::make_synth_dataset(cfg, 64, rng);
  s.test = data::make_synth_dataset(cfg, 48, rng);
  return s;
}

eval::EvalConfig quick_eval() {
  eval::EvalConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 16;
  cfg.lr = 0.05f;
  return cfg;
}

TEST(ExtractFeatures, ShapeAndPolicyRestored) {
  Rng rng(1);
  auto enc = models::make_encoder("resnet18", rng);
  const auto s = tiny_splits();
  enc.policy->set_bits(9);
  Tensor f = eval::extract_features(enc, s.test, 4);
  EXPECT_EQ(f.shape(), Shape({s.test.size(), enc.feature_dim}));
  EXPECT_FALSE(enc.policy->active());  // restored to FP
}

TEST(FinetuneEval, BeatsChanceOnEasyData) {
  Rng rng(2);
  auto enc = models::make_encoder("resnet18", rng);
  const auto s = tiny_splits();
  const auto result = eval::finetune_eval(enc, s.train, s.test, quick_eval());
  const float chance = 100.0f / static_cast<float>(s.train.num_classes);
  EXPECT_GT(result.test_accuracy, chance);
}

TEST(FinetuneEval, RestoresPretrainedEncoderState) {
  Rng rng(3);
  auto enc = models::make_encoder("resnet18", rng);
  const auto before = nn::snapshot_state(*enc.backbone);
  const auto s = tiny_splits();
  eval::finetune_eval(enc, s.train, s.test, quick_eval());
  const auto after = nn::snapshot_state(*enc.backbone);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    for (std::int64_t j = 0; j < before[i].numel(); ++j)
      ASSERT_FLOAT_EQ(before[i][j], after[i][j]);
}

TEST(FinetuneEval, FourBitPathRuns) {
  Rng rng(4);
  auto enc = models::make_encoder("resnet18", rng);
  const auto s = tiny_splits();
  auto cfg = quick_eval();
  cfg.eval_bits = 4;
  cfg.epochs = 4;
  const auto result = eval::finetune_eval(enc, s.train, s.test, cfg);
  EXPECT_GE(result.test_accuracy, 0.0f);
  EXPECT_LE(result.test_accuracy, 100.0f);
  EXPECT_FALSE(enc.policy->active());
}

TEST(FinetuneEval, RejectsClassCountMismatch) {
  Rng rng(5);
  auto enc = models::make_encoder("resnet18", rng);
  auto s = tiny_splits();
  s.test.num_classes = s.train.num_classes + 1;
  EXPECT_THROW(eval::finetune_eval(enc, s.train, s.test, quick_eval()),
               CheckError);
}

TEST(LinearEval, RunsAndLeavesEncoderUntouched) {
  Rng rng(6);
  auto enc = models::make_encoder("resnet18", rng);
  const auto before = nn::snapshot_state(*enc.backbone);
  const auto s = tiny_splits();
  auto cfg = quick_eval();
  cfg.epochs = 20;
  const auto result = eval::linear_eval(enc, s.train, s.test, cfg);
  EXPECT_GE(result.test_accuracy, 0.0f);
  const auto after = nn::snapshot_state(*enc.backbone);
  for (std::size_t i = 0; i < before.size(); ++i)
    for (std::int64_t j = 0; j < before[i].numel(); ++j)
      ASSERT_FLOAT_EQ(before[i][j], after[i][j]);
}

}  // namespace
}  // namespace cq
