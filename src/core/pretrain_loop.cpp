#include "core/pretrain_loop.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/prof.hpp"
#include "core/trace.hpp"
#include "optim/schedule.hpp"
#include "tensor/storage.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace cq::core {

namespace {
/// Gradient-norm threshold past which we declare divergence (the paper's
/// "severe gradient explosion" failure mode of CQ-B).
constexpr float kDivergenceGradNorm = 1e4f;
}  // namespace

PretrainStats run_pretraining(const char* family, const PretrainConfig& config,
                              const data::Dataset& dataset, Rng& rng,
                              std::vector<nn::Parameter*> params,
                              const IterationBody& body) {
  CQ_CHECK(dataset.size() >= config.batch_size);
  Timer timer;
  PretrainStats stats;
  const tensor::AllocStats base = tensor::alloc_stats();
  std::uint64_t epoch_start_allocs = base.cumulative_allocations;
  std::int64_t last_epoch_iterations = 0;

  optim::Sgd sgd(std::move(params), {.lr = config.lr,
                                     .momentum = config.momentum,
                                     .weight_decay = config.weight_decay});
  data::Batcher batcher(dataset.size(), config.batch_size, rng,
                        /*drop_last=*/true);
  const auto iters_per_epoch = batcher.batches_per_epoch();
  const auto total_steps = iters_per_epoch * config.epochs;
  const auto warmup = std::min<std::int64_t>(
      config.warmup_epochs * iters_per_epoch, total_steps - 1);
  optim::CosineSchedule schedule(config.lr, total_steps, warmup);
  prof::Counter& iteration_counter =
      prof::Counter::intern(std::string(family) + ".iteration");

  std::int64_t step = 0;
  for (std::int64_t epoch = 0; epoch < config.epochs && !stats.diverged;
       ++epoch) {
    const double epoch_start = timer.seconds();
    const auto epoch_iter_start = stats.iterations;
    double epoch_loss = 0.0;
    for (std::int64_t it = 0; it < iters_per_epoch; ++it, ++step) {
      trace::Scope span(iteration_counter, iteration_counter.name(), step);
      sgd.set_lr(schedule.lr_at(step));
      const auto idx = batcher.next();
      const float loss = body({step, total_steps, idx, sgd});

      stats.max_grad_norm = std::max(stats.max_grad_norm,
                                     sgd.last_grad_norm());
      epoch_loss += loss;
      ++stats.iterations;
      if (stats.iterations == 1)
        stats.first_iteration_heap_allocs =
            tensor::alloc_stats().cumulative_allocations -
            base.cumulative_allocations;
      if (!std::isfinite(loss) || sgd.last_grad_norm() > kDivergenceGradNorm) {
        stats.diverged = true;
        CQ_LOG_WARN << family << "/" << variant_name(config.variant)
                    << " diverged at step " << step << " (loss=" << loss
                    << ", grad_norm=" << sgd.last_grad_norm() << ")";
        break;
      }
    }
    stats.epoch_loss.push_back(
        static_cast<float>(epoch_loss / static_cast<double>(iters_per_epoch)));
    const auto now = tensor::alloc_stats().cumulative_allocations;
    stats.epoch_heap_allocs.push_back(now - epoch_start_allocs);
    stats.epoch_seconds.push_back(timer.seconds() - epoch_start);
    epoch_start_allocs = now;
    last_epoch_iterations = stats.iterations - epoch_iter_start;
  }
  stats.final_loss =
      stats.epoch_loss.empty() ? 0.0f : stats.epoch_loss.back();
  stats.seconds = timer.seconds();
  const tensor::AllocStats end = tensor::alloc_stats();
  stats.pool_hits = end.pool_hits - base.pool_hits;
  stats.pool_misses = end.pool_misses - base.pool_misses;
  if (last_epoch_iterations > 0)
    stats.steady_allocs_per_iteration =
        static_cast<double>(stats.epoch_heap_allocs.back()) /
        static_cast<double>(last_epoch_iterations);
  stats.profile_json = prof::json();
  return stats;
}

std::pair<int, int> precision_pair(const PretrainConfig& config, Rng& rng,
                                   const PretrainStep& step) {
  if (config.variant == CqVariant::kVanilla)
    return {quant::kFullPrecisionBits, quant::kFullPrecisionBits};
  if (config.precision_sampling == PretrainConfig::PrecisionSampling::kCyclic)
    return cyclic_precision_pair(config.precisions, step.step,
                                 step.total_steps, config.precision_cycles);
  return config.precisions.sample_pair(rng, config.distinct_pair);
}

}  // namespace cq::core
