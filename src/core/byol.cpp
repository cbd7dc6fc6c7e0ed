#include "core/byol.hpp"

#include "core/losses.hpp"
#include "core/pretrain_loop.hpp"
#include "core/trace.hpp"
#include "models/heads.hpp"

namespace cq::core {

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
  const data::AugmentPipeline augment(config_.augment);
  const bool quantized = config_.variant == CqVariant::kCqC;

  const auto iteration = [&](const PretrainStep& s) {
    Tensor v1, v2;
    {
      CQ_TRACE_SCOPE("byol.augment");
      v1 = augment.batch(dataset, s.batch, rng_);
      v2 = augment.batch(dataset, s.batch, rng_);
    }

    // BYOL draws (q1, q2) after its views.
    std::vector<int> precisions = {quant::kFullPrecisionBits};
    if (quantized) {
      const auto [q1, q2] = precision_pair(config_, rng_, s);
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
      if (quantized) {
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
      s.sgd.step();
      nn::ema_update(*online_.backbone, *target_.backbone, config_.byol_ema);
      nn::ema_update(*proj_online_, *proj_target_, config_.byol_ema);
    }
    return loss;
  };

  PretrainStats stats = run_pretraining("byol", config_, dataset, rng_,
                                        std::move(params), iteration);
  online_.policy->set_full_precision();
  online_.backbone->clear_cache();
  proj_online_->clear_cache();
  predictor_->clear_cache();
  return stats;
}

}  // namespace cq::core
