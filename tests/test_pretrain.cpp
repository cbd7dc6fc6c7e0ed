// The contract every pretraining family keeps through the shared loop
// (core/pretrain_loop.hpp), checked for each (family, variant) the trainers
// accept: seeded runs repeat bitwise, an insane learning rate is caught as
// divergence and stops the run, and a finished run leaves no module caches,
// a full-precision policy and complete accounting behind.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/byol.hpp"
#include "core/moco.hpp"
#include "core/simclr.hpp"
#include "data/synth.hpp"

namespace cq {
namespace {

enum class Family { kSimClr, kByol, kMoco };

struct Case {
  Family family;
  core::CqVariant variant;
};

std::string family_name(Family family) {
  switch (family) {
    case Family::kSimClr:
      return "simclr";
    case Family::kByol:
      return "byol";
    case Family::kMoco:
      return "moco";
  }
  return "?";
}

std::string case_name(const Case& c) {
  return family_name(c.family) + "/" + core::variant_name(c.variant);
}

void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

using core::CqVariant;
const Case kCases[] = {
    {Family::kSimClr, CqVariant::kVanilla},
    {Family::kSimClr, CqVariant::kCqA},
    {Family::kSimClr, CqVariant::kCqB},
    {Family::kSimClr, CqVariant::kCqC},
    {Family::kSimClr, CqVariant::kCqQuant},
    {Family::kByol, CqVariant::kVanilla},
    {Family::kByol, CqVariant::kCqC},
    {Family::kMoco, CqVariant::kVanilla},
    {Family::kMoco, CqVariant::kCqA},
};

data::Dataset tiny_dataset() {
  auto cfg = data::synth_cifar_config();
  Rng rng(cfg.seed + 5);
  return data::make_synth_dataset(cfg, 16, rng);
}

core::PretrainConfig tiny_config(CqVariant variant) {
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
  cfg.moco_queue = 16;
  cfg.byol_ema = 0.9f;
  if (variant == CqVariant::kCqQuant) cfg.augment.identity = true;
  return cfg;
}

/// What a finished run leaves behind.
struct Outcome {
  core::PretrainStats stats;
  std::vector<Tensor> state;  // backbone + head state after training
  std::size_t pending_caches = 0;
  bool policy_active = false;
};

void append_state(nn::Module& m, std::vector<Tensor>& out) {
  for (Tensor& t : nn::snapshot_state(m)) out.push_back(std::move(t));
}

std::size_t pending_caches(nn::Module& root) {
  std::size_t pending = 0;
  std::function<void(nn::Module&)> count = [&](nn::Module& m) {
    pending += m.pending_caches();
    m.visit_children(count);
  };
  count(root);
  return pending;
}

Outcome train(const Case& c, const core::PretrainConfig& cfg) {
  const auto ds = tiny_dataset();
  Rng rng(17);
  auto enc = models::make_encoder("resnet18", rng);
  Outcome run;
  // The heads each family exposes: SimCLR's projection head, BYOL's EMA
  // target backbone, MoCo's key queue (written by the key projection).
  switch (c.family) {
    case Family::kSimClr: {
      core::SimClrCqTrainer trainer(enc, cfg);
      run.stats = trainer.train(ds);
      append_state(trainer.projection_head(), run.state);
      run.pending_caches += pending_caches(trainer.projection_head());
      break;
    }
    case Family::kByol: {
      core::ByolCqTrainer trainer(enc, cfg);
      run.stats = trainer.train(ds);
      append_state(*trainer.target_encoder().backbone, run.state);
      break;
    }
    case Family::kMoco: {
      core::MocoCqTrainer trainer(enc, cfg);
      run.stats = trainer.train(ds);
      run.state.push_back(trainer.queue());
      break;
    }
  }
  append_state(*enc.backbone, run.state);
  run.pending_caches += pending_caches(*enc.backbone);
  run.policy_active = enc.policy->active();
  return run;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bitwise_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].shape() != b[i].shape() ||
        std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].numel()) * sizeof(float)) !=
            0)
      return false;
  return true;
}

class TrainerContract : public ::testing::TestWithParam<Case> {};

TEST_P(TrainerContract, SameSeedRepeatsBitwiseAndCleansUp) {
  const auto cfg = tiny_config(GetParam().variant);
  const Outcome a = train(GetParam(), cfg);
  const Outcome b = train(GetParam(), cfg);
  EXPECT_FALSE(a.stats.diverged);
  EXPECT_TRUE(bitwise_equal(a.stats.epoch_loss, b.stats.epoch_loss));
  EXPECT_TRUE(bitwise_equal(a.state, b.state));
  auto reseeded = cfg;
  reseeded.seed += 1;
  EXPECT_FALSE(bitwise_equal(a.stats.epoch_loss,
                             train(GetParam(), reseeded).stats.epoch_loss));

  EXPECT_EQ(a.pending_caches, 0u);
  EXPECT_FALSE(a.policy_active);
  EXPECT_EQ(a.stats.epoch_loss.size(), static_cast<std::size_t>(cfg.epochs));
  EXPECT_EQ(a.stats.epoch_heap_allocs.size(),
            static_cast<std::size_t>(cfg.epochs));
  EXPECT_EQ(a.stats.epoch_seconds.size(), static_cast<std::size_t>(cfg.epochs));
  EXPECT_FALSE(a.stats.profile_json.empty());
}

TEST_P(TrainerContract, InsaneLrDivergesAndStopsEarly) {
  auto cfg = tiny_config(GetParam().variant);
  cfg.lr = 1e6f;
  cfg.epochs = 8;
  const Outcome run = train(GetParam(), cfg);
  EXPECT_TRUE(run.stats.diverged);
  EXPECT_LT(run.stats.iterations, cfg.epochs * 2);  // 2 batches per epoch
  EXPECT_LT(run.stats.epoch_loss.size(), static_cast<std::size_t>(cfg.epochs));
  EXPECT_EQ(run.pending_caches, 0u);
  EXPECT_FALSE(run.policy_active);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, TrainerContract, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = case_name(info.param);
      for (char& ch : name)
        if (ch == '/' || ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace cq
