// Shared harness for the table/figure reproduction binaries.
//
// Every bench prints the paper's reference numbers next to the measured
// ones. Absolute values are NOT expected to match (the substrate is a
// scaled-down synthetic stand-in — see DESIGN.md); the *shape* (ordering,
// approximate factors) is what EXPERIMENTS.md tracks.
//
// Environment knobs: CQ_SCALE (dataset sizes), CQ_EPOCHS (pretrain epochs),
// CQ_CACHE_DIR (encoder checkpoint reuse across bench binaries).
//
// The micro benches (kernels, search, vit, micro_kernels) share the timing
// and check helpers below.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/runner.hpp"
#include "eval/classifier.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace cq::bench {

/// Failed check() calls so far; a bench exits non-zero when it is not 0.
inline int g_failures = 0;

/// Record (and print) a failed correctness check without aborting the run.
inline void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++g_failures;
  }
}

/// Keep `p`'s pointee alive past optimization: a hand-rolled
/// DoNotOptimize for the benches that have no google-benchmark runner.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Best-of-3 seconds per call. One warm-up call, then one timed call
/// calibrates the repetitions so each of the 3 runs takes ~`target` seconds
/// (at least `min_reps` calls), so small shapes aren't all timer noise.
/// target = 0 gives one call per run (smoke modes, where correctness is the
/// point, not the numbers).
template <class F>
double time_best(F&& fn, double target, int min_reps = 1) {
  fn();  // warm
  Timer cal;
  fn();
  const double once = std::max(cal.seconds(), 1e-7);
  const int reps = std::max(min_reps, static_cast<int>(target / once));
  double best = 1e300;
  for (int run = 0; run < 3; ++run) {
    Timer t;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, t.seconds() / reps);
  }
  return best;
}

/// Standard pretraining recipe for a dataset stand-in (tuned so vanilla
/// SimCLR comfortably beats random init; see `git log -- tools/tune.cpp`).
inline core::PretrainConfig standard_pretrain(const std::string& dataset,
                                              core::CqVariant variant,
                                              quant::PrecisionSet precisions =
                                                  quant::PrecisionSet::range(
                                                      6, 16)) {
  core::PretrainConfig cfg;
  cfg.variant = variant;
  cfg.precisions = std::move(precisions);
  cfg.batch_size = 32;
  cfg.lr = 0.1f;
  cfg.warmup_epochs = 1;
  cfg.proj_hidden = 32;
  cfg.proj_dim = 16;
  cfg.tau = 0.5f;
  const std::int64_t base_epochs = 10;
  cfg.epochs = core::env_int("CQ_EPOCHS", base_epochs);
  cfg.seed = 7;
  return cfg;
}

inline eval::EvalConfig finetune_config(int bits) {
  eval::EvalConfig cfg;
  cfg.epochs = static_cast<std::int64_t>(core::env_int("CQ_FT_EPOCHS", 15));
  cfg.batch_size = 16;
  cfg.lr = 0.02f;
  cfg.eval_bits = bits;
  return cfg;
}

inline eval::EvalConfig linear_config() {
  eval::EvalConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 32;
  cfg.lr = 0.05f;
  return cfg;
}

/// Pretrain (or load from cache) an encoder for (arch, bundle, config).
inline models::Encoder pretrained_encoder(const std::string& arch,
                                          const core::DatasetBundle& bundle,
                                          const core::PretrainConfig& config,
                                          const std::string& family =
                                              "simclr",
                                          core::PretrainStats* stats_out =
                                              nullptr) {
  Rng rng(42);  // fixed init seed: methods differ only in the SSL recipe
  auto encoder = models::make_encoder(arch, rng);
  const auto result = core::pretrain_cached(encoder, config, bundle, family);
  if (stats_out != nullptr) *stats_out = result.stats;
  return encoder;
}

/// The four fine-tuning cells of the paper's tables: FP/4-bit x 10%/1%.
struct FinetuneCells {
  float fp10 = 0.0f, fp1 = 0.0f, q10 = 0.0f, q1 = 0.0f;
  bool failed = false;  // pretraining diverged; cells are meaningless
};

inline FinetuneCells finetune_four(models::Encoder& encoder,
                                   const core::DatasetBundle& bundle,
                                   std::uint64_t split_seed = 77) {
  Rng split_rng(split_seed);
  const auto lab10 = data::subset_fraction(bundle.labeled, 0.10, split_rng);
  const auto lab1 = data::subset_fraction(bundle.labeled, 0.01, split_rng);
  FinetuneCells cells;
  cells.fp10 = eval::finetune_eval(encoder, lab10, bundle.test,
                                   finetune_config(32))
                   .test_accuracy;
  cells.fp1 =
      eval::finetune_eval(encoder, lab1, bundle.test, finetune_config(32))
          .test_accuracy;
  cells.q10 = eval::finetune_eval(encoder, lab10, bundle.test,
                                  finetune_config(4))
                  .test_accuracy;
  cells.q1 =
      eval::finetune_eval(encoder, lab1, bundle.test, finetune_config(4))
          .test_accuracy;
  return cells;
}

/// "measured (paper ref)" cell formatting.
inline std::string cell(float measured, float paper) {
  return TableWriter::num(measured, 1) + " (" + TableWriter::num(paper, 2) +
         ")";
}

inline std::string cell(float measured) {
  return TableWriter::num(measured, 1);
}

inline void print_preamble(const std::string& table_id,
                           const std::string& description) {
  std::printf("==== %s ====\n%s\n", table_id.c_str(), description.c_str());
  std::printf(
      "Cells show: measured-on-synthetic (paper reference). Absolute values "
      "are not comparable;\nthe tracked claim is the ordering/shape — see "
      "EXPERIMENTS.md.\n\n");
}

}  // namespace cq::bench
