#include "core/moco.hpp"

#include "core/losses.hpp"
#include "core/pretrain_loop.hpp"
#include "core/trace.hpp"
#include "models/heads.hpp"
#include "tensor/ops.hpp"

namespace cq::core {

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
  query_.backbone->set_mode(nn::Mode::kTrain);
  proj_query_->set_mode(nn::Mode::kTrain);
  key_.backbone->set_mode(nn::Mode::kEval);  // inference-only EMA network
  proj_key_->set_mode(nn::Mode::kEval);

  auto params = query_.backbone->parameters();
  for (nn::Parameter* p : proj_query_->parameters()) params.push_back(p);
  const data::AugmentPipeline augment(config_.augment);

  const auto iteration = [&](const PretrainStep& s) {
    Tensor v_query, v_key;
    {
      CQ_TRACE_SCOPE("moco.augment");
      v_query = augment.batch(dataset, s.batch, rng_);
      v_key = augment.batch(dataset, s.batch, rng_);
    }

    // MoCo draws (q1, q2) after its views.
    const auto [q1, q2] = precision_pair(config_, rng_, s);
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
      s.sgd.step();
      nn::ema_update(*query_.backbone, *key_.backbone, config_.byol_ema);
      nn::ema_update(*proj_query_, *proj_key_, config_.byol_ema);
      enqueue_keys(ops::l2_normalize_rows(k));
    }
    return loss.value;
  };

  PretrainStats stats = run_pretraining("moco", config_, dataset, rng_,
                                        std::move(params), iteration);
  query_.policy->set_full_precision();
  query_.backbone->clear_cache();
  proj_query_->clear_cache();
  return stats;
}

}  // namespace cq::core
