// BYOL trainer: vanilla and CQ-C pipelines, EMA target behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "core/byol.hpp"
#include "data/synth.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

data::Dataset tiny_dataset(std::int64_t n = 24) {
  auto cfg = data::synth_cifar_config();
  Rng rng(cfg.seed + 1);
  return data::make_synth_dataset(cfg, n, rng);
}

core::PretrainConfig tiny_config(core::CqVariant variant) {
  core::PretrainConfig cfg;
  cfg.variant = variant;
  cfg.precisions = quant::PrecisionSet::range(6, 16);
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;
  cfg.warmup_epochs = 0;
  cfg.proj_hidden = 16;
  cfg.proj_dim = 8;
  cfg.pred_hidden = 8;
  cfg.byol_ema = 0.9f;
  return cfg;
}

TEST(ByolTrainer, VanillaRunsAndStaysFinite) {
  const auto ds = tiny_dataset();
  Rng rng(1);
  auto enc = models::make_encoder("resnet18", rng);
  core::ByolCqTrainer trainer(enc, tiny_config(core::CqVariant::kVanilla));
  const auto stats = trainer.train(ds);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
  EXPECT_FALSE(stats.diverged);
  // BYOL loss lives in [0, 4] per term; two symmetric terms -> [0, 8].
  EXPECT_GE(stats.final_loss, 0.0f);
  EXPECT_LE(stats.final_loss, 8.0f);
}

TEST(ByolTrainer, CqCRunsWithQuantBranches) {
  const auto ds = tiny_dataset();
  Rng rng(2);
  auto enc = models::make_encoder("resnet18", rng);
  core::ByolCqTrainer trainer(enc, tiny_config(core::CqVariant::kCqC));
  const auto stats = trainer.train(ds);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
  EXPECT_FALSE(stats.diverged);
}

TEST(ByolTrainer, RejectsUnsupportedVariants) {
  Rng rng(3);
  auto enc = models::make_encoder("resnet18", rng);
  EXPECT_THROW(
      core::ByolCqTrainer(enc, tiny_config(core::CqVariant::kCqA)),
      CheckError);
  EXPECT_THROW(
      core::ByolCqTrainer(enc, tiny_config(core::CqVariant::kCqB)),
      CheckError);
}

TEST(ByolTrainer, CqCNeedsPrecisionSet) {
  Rng rng(4);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kCqC);
  cfg.precisions = quant::PrecisionSet();
  EXPECT_THROW(core::ByolCqTrainer(enc, cfg), CheckError);
}

TEST(ByolTrainer, TargetStartsAsCopyOfOnline) {
  Rng rng(5);
  auto enc = models::make_encoder("resnet18", rng);
  core::ByolCqTrainer trainer(enc, tiny_config(core::CqVariant::kVanilla));
  auto& target = trainer.target_encoder();
  const auto op = enc.backbone->parameters();
  const auto tp = target.backbone->parameters();
  ASSERT_EQ(op.size(), tp.size());
  for (std::size_t i = 0; i < op.size(); ++i)
    for (std::int64_t j = 0; j < op[i]->value.numel(); ++j)
      ASSERT_FLOAT_EQ(op[i]->value[j], tp[i]->value[j]);
}

TEST(ByolTrainer, TargetLagsOnlineAfterTraining) {
  const auto ds = tiny_dataset();
  Rng rng(6);
  auto enc = models::make_encoder("resnet18", rng);
  core::ByolCqTrainer trainer(enc, tiny_config(core::CqVariant::kVanilla));
  trainer.train(ds);
  // After training, online has moved; target is an EMA and should differ
  // from online but not be stuck at the initial weights either.
  auto& target = trainer.target_encoder();
  float online_vs_target = 0.0f;
  const auto op = enc.backbone->parameters();
  const auto tp = target.backbone->parameters();
  for (std::size_t i = 0; i < op.size(); ++i)
    for (std::int64_t j = 0; j < op[i]->value.numel(); ++j)
      online_vs_target += std::abs(op[i]->value[j] - tp[i]->value[j]);
  EXPECT_GT(online_vs_target, 1e-5f);
}

TEST(ByolTrainer, LossDecreasesOverTraining) {
  const auto ds = tiny_dataset(32);
  Rng rng(8);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kVanilla);
  cfg.epochs = 6;
  core::ByolCqTrainer trainer(enc, cfg);
  const auto stats = trainer.train(ds);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

}  // namespace
}  // namespace cq
