// SimCLR/CQ trainer: all five pipelines, cache hygiene, learning signal.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

data::Dataset tiny_dataset(std::int64_t n = 24) {
  auto cfg = data::synth_cifar_config();
  Rng rng(cfg.seed);
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
  if (variant == core::CqVariant::kCqQuant) cfg.augment.identity = true;
  return cfg;
}

TEST(Variant, NamesRoundTrip) {
  using core::CqVariant;
  for (auto v : {CqVariant::kVanilla, CqVariant::kCqA, CqVariant::kCqB,
                 CqVariant::kCqC, CqVariant::kCqQuant})
    EXPECT_EQ(core::parse_variant(core::variant_name(v)), v);
  EXPECT_EQ(core::parse_variant("simclr"), CqVariant::kVanilla);
  EXPECT_THROW(core::parse_variant("cq-z"), CheckError);
}

TEST(Variant, BranchCounts) {
  EXPECT_EQ(core::branches_per_iteration(core::CqVariant::kVanilla), 2);
  EXPECT_EQ(core::branches_per_iteration(core::CqVariant::kCqA), 2);
  EXPECT_EQ(core::branches_per_iteration(core::CqVariant::kCqB), 4);
  EXPECT_EQ(core::branches_per_iteration(core::CqVariant::kCqC), 4);
  EXPECT_EQ(core::branches_per_iteration(core::CqVariant::kCqQuant), 2);
}

TEST(Config, CacheKeyDistinguishesVariants) {
  auto a = tiny_config(core::CqVariant::kCqA);
  auto c = tiny_config(core::CqVariant::kCqC);
  EXPECT_NE(a.cache_key(), c.cache_key());
  auto a2 = a;
  a2.seed += 1;
  EXPECT_NE(a.cache_key(), a2.cache_key());
  auto a3 = a;
  a3.distinct_pair = false;
  EXPECT_NE(a.cache_key(), a3.cache_key());
}

TEST(SimClrTrainer, WithReplacementPairSamplingRuns) {
  const auto ds = tiny_dataset();
  Rng rng(21);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kCqC);
  cfg.distinct_pair = false;
  cfg.precisions = quant::PrecisionSet({8});  // q1 == q2 now allowed
  core::SimClrCqTrainer trainer(enc, cfg);
  const auto stats = trainer.train(ds);
  EXPECT_FALSE(stats.diverged);
}

TEST(SimClrTrainer, AllVariantsRunAndStayFinite) {
  const auto ds = tiny_dataset();
  using core::CqVariant;
  for (auto variant : {CqVariant::kVanilla, CqVariant::kCqA, CqVariant::kCqB,
                       CqVariant::kCqC, CqVariant::kCqQuant}) {
    Rng rng(1);
    auto enc = models::make_encoder("resnet18", rng);
    core::SimClrCqTrainer trainer(enc, tiny_config(variant));
    const auto stats = trainer.train(ds);
    EXPECT_EQ(stats.epoch_loss.size(), 2u) << core::variant_name(variant);
    EXPECT_TRUE(std::isfinite(stats.final_loss))
        << core::variant_name(variant);
    EXPECT_FALSE(stats.diverged) << core::variant_name(variant);
    EXPECT_GT(stats.iterations, 0) << core::variant_name(variant);
  }
}

TEST(SimClrTrainer, LossDecreasesOverTraining) {
  const auto ds = tiny_dataset(48);
  Rng rng(2);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kVanilla);
  cfg.epochs = 10;
  cfg.lr = 0.1f;
  core::SimClrCqTrainer trainer(enc, cfg);
  const auto stats = trainer.train(ds);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

TEST(SimClrTrainer, CqVariantRequiresPrecisions) {
  Rng rng(5);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kCqC);
  cfg.precisions = quant::PrecisionSet();
  EXPECT_THROW(core::SimClrCqTrainer(enc, cfg), CheckError);
}

TEST(SimClrTrainer, CqQuantRequiresIdentityAugment) {
  Rng rng(6);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kCqQuant);
  cfg.augment.identity = false;
  EXPECT_THROW(core::SimClrCqTrainer(enc, cfg), CheckError);
}

TEST(SimClrTrainer, TrainingChangesWeights) {
  const auto ds = tiny_dataset();
  Rng rng(7);
  auto enc = models::make_encoder("resnet18", rng);
  const auto before = nn::snapshot_state(*enc.backbone);
  core::SimClrCqTrainer trainer(enc, tiny_config(core::CqVariant::kCqC));
  trainer.train(ds);
  const auto after = nn::snapshot_state(*enc.backbone);
  float diff = 0.0f;
  for (std::size_t i = 0; i < before.size(); ++i)
    for (std::int64_t j = 0; j < before[i].numel(); ++j)
      diff += std::abs(before[i][j] - after[i][j]);
  EXPECT_GT(diff, 1e-3f);
}

TEST(CyclicPrecision, WalksTriangleAndMirrors) {
  const auto set = quant::PrecisionSet::range(4, 8);  // {4,5,6,7,8}
  const std::int64_t total = 100, cycles = 1;
  // Start of the cycle: lowest precision, mirror = highest.
  auto [q1a, q2a] = core::cyclic_precision_pair(set, 0, total, cycles);
  EXPECT_EQ(q1a, 4);
  EXPECT_EQ(q2a, 8);
  // Mid-cycle: highest precision.
  auto [q1b, q2b] = core::cyclic_precision_pair(set, 50, total, cycles);
  EXPECT_EQ(q1b, 8);
  EXPECT_EQ(q2b, 4);
  // All outputs stay within the set.
  for (std::int64_t t = 0; t < total; ++t) {
    auto [q1, q2] = core::cyclic_precision_pair(set, t, total, cycles);
    EXPECT_GE(q1, 4);
    EXPECT_LE(q1, 8);
    EXPECT_EQ(q2, 12 - q1);  // mirror within {4..8}
  }
}

TEST(CyclicPrecision, MultipleCyclesRepeatPattern) {
  const auto set = quant::PrecisionSet::range(4, 8);
  auto [a1, a2] = core::cyclic_precision_pair(set, 0, 100, 4);
  auto [b1, b2] = core::cyclic_precision_pair(set, 25, 100, 4);
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a2, b2);
}

TEST(SimClrTrainer, CyclicPrecisionScheduleRuns) {
  const auto ds = tiny_dataset();
  Rng rng(31);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kCqC);
  cfg.precision_sampling = core::PretrainConfig::PrecisionSampling::kCyclic;
  cfg.precision_cycles = 2;
  core::SimClrCqTrainer trainer(enc, cfg);
  const auto stats = trainer.train(ds);
  EXPECT_FALSE(stats.diverged);
}

TEST(SimClrTrainer, GaussianPerturbModeRuns) {
  // The paper's "future direction": noise perturbation instead of
  // quantization as the weight/activation augmentation.
  const auto ds = tiny_dataset();
  Rng rng(32);
  quant::QuantizerConfig qcfg;
  qcfg.perturb = quant::PerturbMode::kGaussian;
  auto enc = models::make_encoder("resnet18", rng, qcfg);
  core::SimClrCqTrainer trainer(enc, tiny_config(core::CqVariant::kCqC));
  const auto stats = trainer.train(ds);
  EXPECT_FALSE(stats.diverged);
}

}  // namespace
}  // namespace cq
