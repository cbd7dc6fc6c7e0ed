#include "core/simclr.hpp"

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
/// Gradient-norm threshold past which we declare divergence (the paper's
/// "severe gradient explosion" failure mode of CQ-B).
constexpr float kDivergenceGradNorm = 1e4f;

bool is_finite(float v) { return std::isfinite(v); }
}  // namespace

SimClrCqTrainer::SimClrCqTrainer(models::Encoder& encoder,
                                 PretrainConfig config)
    : encoder_(encoder), config_(std::move(config)), rng_(config_.seed) {
  if (config_.variant != CqVariant::kVanilla)
    CQ_CHECK_MSG(!config_.precisions.empty(),
                 "CQ variants need a non-empty precision set");
  if (config_.variant == CqVariant::kCqQuant)
    CQ_CHECK_MSG(config_.augment.identity,
                 "CQ-Quant uses the identity augmentation (Sec. 4.5)");
  projection_ = models::make_projection_head(
      encoder_.feature_dim, config_.proj_hidden, config_.proj_dim, rng_);
}

PretrainStats SimClrCqTrainer::train(const data::Dataset& dataset) {
  CQ_CHECK(dataset.size() >= config_.batch_size);
  Timer timer;
  PretrainStats stats;
  AllocTracker alloc_tracker;

  encoder_.backbone->set_mode(nn::Mode::kTrain);
  projection_->set_mode(nn::Mode::kTrain);
  encoder_.policy->set_full_precision();

  auto params = encoder_.backbone->parameters();
  for (nn::Parameter* p : projection_->parameters()) params.push_back(p);
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
  const bool quantized = config_.variant != CqVariant::kVanilla;

  std::int64_t step = 0;
  for (std::int64_t epoch = 0; epoch < config_.epochs && !stats.diverged;
       ++epoch) {
    const double epoch_start = timer.seconds();
    const auto epoch_iter_start = stats.iterations;
    double epoch_loss = 0.0;
    for (std::int64_t it = 0; it < iters_per_epoch; ++it, ++step) {
      CQ_TRACE_SCOPE_N("simclr.iteration", step);
      sgd.set_lr(schedule.lr_at(step));
      const auto idx = batcher.next();

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

      // Build views and the branch plan: (view, bits) per encoder pass.
      struct Branch {
        Tensor view;
        int bits;
        Tensor z;       // projection output
        Tensor grad_z;  // accumulated dL/dz
      };
      std::vector<Branch> branches;
      Tensor v1, v2;
      {
        CQ_TRACE_SCOPE("simclr.augment");
        v1 = augment.batch(dataset, idx, rng_);
        v2 = augment.batch(dataset, idx, rng_);
      }
      switch (config_.variant) {
        case CqVariant::kVanilla:
          branches.push_back({v1, quant::kFullPrecisionBits, {}, {}});
          branches.push_back({v2, quant::kFullPrecisionBits, {}, {}});
          break;
        case CqVariant::kCqA:
          branches.push_back({v1, q1, {}, {}});
          branches.push_back({v2, q2, {}, {}});
          break;
        case CqVariant::kCqB:
        case CqVariant::kCqC:
          // f1, f1+, f2, f2+ (Eq. 6-7): index 0..3.
          branches.push_back({v1, q1, {}, {}});
          branches.push_back({v2, q1, {}, {}});
          branches.push_back({v1, q2, {}, {}});
          branches.push_back({v2, q2, {}, {}});
          break;
        case CqVariant::kCqQuant:
          // Identity augmentation: both branches see the same input.
          branches.push_back({v1, q1, {}, {}});
          branches.push_back({v1, q2, {}, {}});
          break;
      }

      // Branch forwards (cache stacks build up in order).
      for (auto& branch : branches) {
        CQ_TRACE_SCOPE_N("simclr.forward", branch.bits);
        encoder_.policy->set_bits(branch.bits);
        branch.z = projection_->forward(encoder_.forward(branch.view));
        branch.grad_z = Tensor::zeros(branch.z.shape());
      }
      encoder_.policy->set_full_precision();

      // Assemble the variant's NT-Xent terms.
      float loss = 0.0f;
      auto add_term = [&](std::size_t a, std::size_t b) {
        PairLoss term =
            nt_xent(branches[a].z, branches[b].z, config_.tau);
        loss += term.value;
        branches[a].grad_z.add_(term.grad_a);
        branches[b].grad_z.add_(term.grad_b);
      };
      {
        CQ_TRACE_SCOPE("simclr.loss");
        switch (config_.variant) {
          case CqVariant::kVanilla:
          case CqVariant::kCqA:
          case CqVariant::kCqQuant:
            add_term(0, 1);
            break;
          case CqVariant::kCqB:
            add_term(0, 1);  // NCE(f1, f1+)
            add_term(2, 3);  // NCE(f2, f2+)
            break;
          case CqVariant::kCqC:
            add_term(0, 1);  // NCE(f1, f1+)
            add_term(2, 3);  // NCE(f2, f2+)
            add_term(0, 2);  // NCE(f1, f2)
            add_term(1, 3);  // NCE(f1+, f2+)
            break;
        }
      }

      // Branch backwards in reverse order (LIFO cache contract).
      {
        CQ_TRACE_SCOPE("simclr.backward");
        for (auto it_b = branches.rbegin(); it_b != branches.rend(); ++it_b)
          encoder_.backbone->backward(projection_->backward(it_b->grad_z));
      }

      {
        CQ_TRACE_SCOPE("simclr.step");
        sgd.step();
      }
      stats.max_grad_norm = std::max(stats.max_grad_norm,
                                     sgd.last_grad_norm());
      epoch_loss += loss;
      ++stats.iterations;
      if (stats.iterations == 1) alloc_tracker.end_first_iteration();
      if (!is_finite(loss) || sgd.last_grad_norm() > kDivergenceGradNorm) {
        stats.diverged = true;
        CQ_LOG_WARN << variant_name(config_.variant)
                    << " diverged at step " << step << " (loss=" << loss
                    << ", grad_norm=" << sgd.last_grad_norm() << ")";
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
  encoder_.policy->set_full_precision();
  encoder_.backbone->clear_cache();
  projection_->clear_cache();
  return stats;
}

}  // namespace cq::core
