#include "core/simclr.hpp"

#include "core/losses.hpp"
#include "core/pretrain_loop.hpp"
#include "core/trace.hpp"
#include "models/heads.hpp"

namespace cq::core {

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
  encoder_.backbone->set_mode(nn::Mode::kTrain);
  projection_->set_mode(nn::Mode::kTrain);
  encoder_.policy->set_full_precision();

  auto params = encoder_.backbone->parameters();
  for (nn::Parameter* p : projection_->parameters()) params.push_back(p);
  const data::AugmentPipeline augment(config_.augment);

  const auto iteration = [&](const PretrainStep& s) {
    // SimCLR draws (q1, q2) before its views (the draw order is part of
    // the trajectory).
    const auto [q1, q2] = precision_pair(config_, rng_, s);

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
      v1 = augment.batch(dataset, s.batch, rng_);
      v2 = augment.batch(dataset, s.batch, rng_);
    }
    switch (config_.variant) {
      case CqVariant::kVanilla:
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
      PairLoss term = nt_xent(branches[a].z, branches[b].z, config_.tau);
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
      s.sgd.step();
    }
    return loss;
  };

  PretrainStats stats = run_pretraining("simclr", config_, dataset, rng_,
                                        std::move(params), iteration);
  encoder_.policy->set_full_precision();
  encoder_.backbone->clear_cache();
  projection_->clear_cache();
  return stats;
}

}  // namespace cq::core
