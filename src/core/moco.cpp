#include "core/moco.hpp"

#include <cmath>

#include "core/losses.hpp"
#include "core/trace.hpp"
#include "models/heads.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace cq::core {

namespace {
constexpr float kDivergenceGradNorm = 1e4f;
}

MocoCqTrainer::MocoCqTrainer(models::Encoder& query_encoder,
                             PretrainConfig config)
    : query_(query_encoder),
      config_(std::move(config)),
      rng_(config_.seed),
      key_(models::make_encoder(query_encoder.arch, rng_,
                                query_encoder.qconfig)) {
  CQ_CHECK_MSG(config_.variant == CqVariant::kVanilla ||
                   config_.variant == CqVariant::kCqA,
               "MoCo trainer supports vanilla and CQ-A");
  if (config_.variant == CqVariant::kCqA)
    CQ_CHECK_MSG(!config_.precisions.empty(),
                 "CQ-A needs a non-empty precision set");
  CQ_CHECK(config_.moco_queue >= 1);
  proj_query_ = models::make_projection_head(
      query_.feature_dim, config_.proj_hidden, config_.proj_dim, rng_);
  proj_key_ = models::make_projection_head(
      query_.feature_dim, config_.proj_hidden, config_.proj_dim, rng_);
  nn::copy_parameters(*query_.backbone, *key_.backbone);
  nn::copy_parameters(*proj_query_, *proj_key_);
  // Queue starts with random normalized vectors (standard MoCo init).
  queue_ = ops::l2_normalize_rows(
      Tensor::randn(Shape{config_.moco_queue, config_.proj_dim}, rng_));
}

void MocoCqTrainer::enqueue_keys(const Tensor& normalized_keys) {
  const auto n = normalized_keys.dim(0), d = normalized_keys.dim(1);
  CQ_CHECK(d == queue_.dim(1));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < d; ++c)
      queue_.at(queue_cursor_, c) = normalized_keys.at(i, c);
    queue_cursor_ = (queue_cursor_ + 1) % queue_.dim(0);
  }
}

PretrainStats MocoCqTrainer::train(const data::Dataset& dataset) {
  CQ_CHECK(dataset.size() >= config_.batch_size);
  Timer timer;
  PretrainStats stats;
  AllocTracker alloc_tracker;

  query_.backbone->set_mode(nn::Mode::kTrain);
  proj_query_->set_mode(nn::Mode::kTrain);
  key_.backbone->set_mode(nn::Mode::kEval);  // inference-only EMA network
  proj_key_->set_mode(nn::Mode::kEval);

  auto params = query_.backbone->parameters();
  for (nn::Parameter* p : proj_query_->parameters()) params.push_back(p);
  optim::Sgd sgd(params, {.lr = config_.lr,
                          .momentum = config_.momentum,
                          .weight_decay = config_.weight_decay});

  data::Batcher batcher(dataset.size(), config_.batch_size, rng_,
                        /*drop_last=*/true);
  const auto iters_per_epoch = batcher.batches_per_epoch();
  const auto total_steps = iters_per_epoch * config_.epochs;
  const auto warmup = std::min<std::int64_t>(
      config_.warmup_epochs * iters_per_epoch, total_steps - 1);
  optim::CosineSchedule schedule(config_.lr, total_steps, warmup);
  const data::AugmentPipeline augment(config_.augment);
  const bool quantized = config_.variant == CqVariant::kCqA;

  std::int64_t step = 0;
  for (std::int64_t epoch = 0; epoch < config_.epochs && !stats.diverged;
       ++epoch) {
    const double epoch_start = timer.seconds();
    const auto epoch_iter_start = stats.iterations;
    double epoch_loss = 0.0;
    for (std::int64_t it = 0; it < iters_per_epoch; ++it, ++step) {
      CQ_TRACE_SCOPE_N("moco.iteration", step);
      sgd.set_lr(schedule.lr_at(step));
      const auto idx = batcher.next();
      Tensor v_query, v_key;
      {
        CQ_TRACE_SCOPE("moco.augment");
        v_query = augment.batch(dataset, idx, rng_);
        v_key = augment.batch(dataset, idx, rng_);
      }

      int q1 = quant::kFullPrecisionBits, q2 = quant::kFullPrecisionBits;
      if (quantized) {
        if (config_.precision_sampling ==
            PretrainConfig::PrecisionSampling::kCyclic) {
          std::tie(q1, q2) = cyclic_precision_pair(
              config_.precisions, step, total_steps,
              config_.precision_cycles);
        } else {
          std::tie(q1, q2) =
              config_.precisions.sample_pair(rng_, config_.distinct_pair);
        }
      }

      Tensor q, k;
      {
        CQ_TRACE_SCOPE_N("moco.forward", q1);
        query_.policy->set_bits(q1);
        q = proj_query_->forward(query_.forward(v_query));
        query_.policy->set_full_precision();
      }
      {
        CQ_TRACE_SCOPE_N("moco.forward", q2);
        key_.policy->set_bits(q2);
        k = proj_key_->forward(key_.forward(v_key));
        key_.policy->set_full_precision();
      }

      PairLoss loss;
      {
        CQ_TRACE_SCOPE("moco.loss");
        loss = info_nce_queue(q, k, queue_, config_.tau);
      }
      {
        CQ_TRACE_SCOPE("moco.backward");
        query_.backbone->backward(proj_query_->backward(loss.grad_a));
      }
      {
        CQ_TRACE_SCOPE("moco.step");
        sgd.step();
        nn::ema_update(*query_.backbone, *key_.backbone, config_.byol_ema);
        nn::ema_update(*proj_query_, *proj_key_, config_.byol_ema);
        enqueue_keys(ops::l2_normalize_rows(k));
      }

      stats.max_grad_norm =
          std::max(stats.max_grad_norm, sgd.last_grad_norm());
      epoch_loss += loss.value;
      ++stats.iterations;
      if (stats.iterations == 1) alloc_tracker.end_first_iteration();
      if (!std::isfinite(loss.value) ||
          sgd.last_grad_norm() > kDivergenceGradNorm) {
        stats.diverged = true;
        CQ_LOG_WARN << "moco/" << variant_name(config_.variant)
                    << " diverged at step " << step;
        break;
      }
    }
    stats.epoch_loss.push_back(
        static_cast<float>(epoch_loss / static_cast<double>(iters_per_epoch)));
    alloc_tracker.end_epoch(timer.seconds() - epoch_start,
                            stats.iterations - epoch_iter_start);
  }
  stats.final_loss =
      stats.epoch_loss.empty() ? 0.0f : stats.epoch_loss.back();
  stats.seconds = timer.seconds();
  alloc_tracker.finish(stats);
  query_.policy->set_full_precision();
  query_.backbone->clear_cache();
  proj_query_->clear_cache();
  return stats;
}

}  // namespace cq::core
