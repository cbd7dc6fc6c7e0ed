#include "core/byol.hpp"

#include <cmath>

#include "core/losses.hpp"
#include "core/trace.hpp"
#include "models/heads.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace cq::core {

namespace {
constexpr float kDivergenceGradNorm = 1e4f;
}

ByolCqTrainer::ByolCqTrainer(models::Encoder& online, PretrainConfig config)
    : online_(online),
      config_(std::move(config)),
      rng_(config_.seed),
      target_(models::make_encoder(online.arch, rng_, online.qconfig)) {
  CQ_CHECK_MSG(config_.variant == CqVariant::kVanilla ||
                   config_.variant == CqVariant::kCqC,
               "BYOL trainer supports vanilla and CQ-C");
  if (config_.variant == CqVariant::kCqC)
    CQ_CHECK_MSG(!config_.precisions.empty(),
                 "CQ-C needs a non-empty precision set");
  proj_online_ = models::make_byol_mlp(online_.feature_dim,
                                       config_.proj_hidden, config_.proj_dim,
                                       rng_);
  proj_target_ = models::make_byol_mlp(online_.feature_dim,
                                       config_.proj_hidden, config_.proj_dim,
                                       rng_);
  predictor_ = models::make_byol_mlp(config_.proj_dim, config_.pred_hidden,
                                     config_.proj_dim, rng_);
  // Target starts as an exact copy of the online network.
  nn::copy_parameters(*online_.backbone, *target_.backbone);
  nn::copy_parameters(*proj_online_, *proj_target_);
}

PretrainStats ByolCqTrainer::train(const data::Dataset& dataset) {
  CQ_CHECK(dataset.size() >= config_.batch_size);
  Timer timer;
  PretrainStats stats;
  AllocTracker alloc_tracker;

  online_.backbone->set_mode(nn::Mode::kTrain);
  proj_online_->set_mode(nn::Mode::kTrain);
  predictor_->set_mode(nn::Mode::kTrain);
  // Target is inference-only: eval mode pushes no caches and uses its own
  // (EMA-tracked) BatchNorm running statistics.
  target_.backbone->set_mode(nn::Mode::kEval);
  proj_target_->set_mode(nn::Mode::kEval);

  auto params = online_.backbone->parameters();
  for (nn::Parameter* p : proj_online_->parameters()) params.push_back(p);
  for (nn::Parameter* p : predictor_->parameters()) params.push_back(p);
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
  const bool quantized = config_.variant == CqVariant::kCqC;

  std::int64_t step = 0;
  for (std::int64_t epoch = 0; epoch < config_.epochs && !stats.diverged;
       ++epoch) {
    const double epoch_start = timer.seconds();
    const auto epoch_iter_start = stats.iterations;
    double epoch_loss = 0.0;
    for (std::int64_t it = 0; it < iters_per_epoch; ++it, ++step) {
      CQ_TRACE_SCOPE_N("byol.iteration", step);
      sgd.set_lr(schedule.lr_at(step));
      const auto idx = batcher.next();
      Tensor v1, v2;
      {
        CQ_TRACE_SCOPE("byol.augment");
        v1 = augment.batch(dataset, idx, rng_);
        v2 = augment.batch(dataset, idx, rng_);
      }

      std::vector<int> precisions = {quant::kFullPrecisionBits};
      if (quantized) {
        auto [q1, q2] = (config_.precision_sampling ==
                         PretrainConfig::PrecisionSampling::kCyclic)
                            ? cyclic_precision_pair(config_.precisions, step,
                                                    total_steps,
                                                    config_.precision_cycles)
                            : config_.precisions.sample_pair(
                                  rng_, config_.distinct_pair);
        precisions = {q1, q2};
      }

      // Online branches: for each precision q_i, predictions for both
      // views. Order: (q1,v1), (q1,v2), (q2,v1), (q2,v2).
      struct Branch {
        Tensor z;       // predictor output
        Tensor grad_z;  // accumulated gradient
      };
      std::vector<Branch> branches;
      std::vector<Tensor> targets;  // matching target projections
      for (int bits : precisions) {
        CQ_TRACE_SCOPE_N("byol.forward", bits);
        online_.policy->set_bits(bits);
        target_.policy->set_bits(bits);
        for (const Tensor* view : {&v1, &v2}) {
          Branch branch;
          branch.z = predictor_->forward(
              proj_online_->forward(online_.forward(*view)));
          branch.grad_z = Tensor::zeros(branch.z.shape());
          branches.push_back(std::move(branch));
          // Target sees the *other* view (feature consistency across views).
          const Tensor& other = (view == &v1) ? v2 : v1;
          targets.push_back(proj_target_->forward(target_.forward(other)));
        }
      }
      online_.policy->set_full_precision();
      target_.policy->set_full_precision();

      float loss = 0.0f;
      {
        CQ_TRACE_SCOPE("byol.loss");
        for (std::size_t k = 0; k < branches.size(); ++k) {
          PairLoss term = byol_mse(branches[k].z, targets[k]);
          loss += term.value;
          branches[k].grad_z.add_(term.grad_a);
        }
        if (quantized && branches.size() == 4) {
          // CQ-C cross-precision consistency: same view, different precision.
          const std::pair<std::size_t, std::size_t> cross_terms[] = {{0, 2},
                                                                     {1, 3}};
          for (const auto& [a, b] : cross_terms) {
            PairLoss term = symmetric_mse(branches[a].z, branches[b].z);
            loss += term.value;
            branches[a].grad_z.add_(term.grad_a);
            branches[b].grad_z.add_(term.grad_b);
          }
        }
      }

      {
        CQ_TRACE_SCOPE("byol.backward");
        for (auto it_b = branches.rbegin(); it_b != branches.rend(); ++it_b) {
          Tensor g = predictor_->backward(it_b->grad_z);
          g = proj_online_->backward(g);
          online_.backbone->backward(g);
        }
      }
      {
        CQ_TRACE_SCOPE("byol.step");
        sgd.step();
        nn::ema_update(*online_.backbone, *target_.backbone, config_.byol_ema);
        nn::ema_update(*proj_online_, *proj_target_, config_.byol_ema);
      }

      stats.max_grad_norm =
          std::max(stats.max_grad_norm, sgd.last_grad_norm());
      epoch_loss += loss;
      ++stats.iterations;
      if (stats.iterations == 1) alloc_tracker.end_first_iteration();
      if (!std::isfinite(loss) ||
          sgd.last_grad_norm() > kDivergenceGradNorm) {
        stats.diverged = true;
        CQ_LOG_WARN << "byol/" << variant_name(config_.variant)
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
  online_.policy->set_full_precision();
  online_.backbone->clear_cache();
  proj_online_->clear_cache();
  predictor_->clear_cache();
  return stats;
}

}  // namespace cq::core
