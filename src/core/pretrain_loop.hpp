// The pretraining loop shared by the SimCLR, BYOL and MoCo trainers.
//
// The three pipelines differ only in their iteration body: which views and
// branches they build, which loss terms they sum, and which EMA or queue
// update follows the optimizer step. Everything around that body lives
// here: SGD over the trainable parameters, a drop-last Batcher, the warmup +
// cosine learning-rate schedule, the epoch/iteration loop and its
// `<family>.iteration` span, loss and gradient-norm bookkeeping, divergence
// detection, and the allocation accounting PretrainStats reports.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/cq.hpp"
#include "data/dataset.hpp"
#include "nn/module.hpp"
#include "optim/sgd.hpp"

namespace cq::core {

/// What the loop hands a family's iteration body.
struct PretrainStep {
  std::int64_t step;         // global step, 0-based
  std::int64_t total_steps;  // epochs * batches per epoch
  const std::vector<std::int64_t>& batch;  // dataset indices
  optim::Sgd& sgd;  // the body calls step() once, after its backward
};

/// One iteration of a family: views, branch forwards, loss terms, backward,
/// sgd.step() plus any EMA/queue update, each inside the family's own
/// spans. Returns the iteration's loss.
using IterationBody = std::function<float(const PretrainStep&)>;

/// Runs config.epochs epochs of `body` over `dataset`, stopping early on
/// divergence. `family` ("simclr", "byol", "moco") names the iteration span
/// and the divergence warning. The Batcher shuffles with `rng`, the
/// trainer's generator, which the body draws from too.
PretrainStats run_pretraining(const char* family, const PretrainConfig& config,
                              const data::Dataset& dataset, Rng& rng,
                              std::vector<nn::Parameter*> params,
                              const IterationBody& body);

/// The step's (q1, q2): full precision for kVanilla, else a kRandomPair draw
/// from `rng` or the kCyclic schedule. The body picks when to call it, since
/// the draw's place in the RNG stream is part of every trajectory.
std::pair<int, int> precision_pair(const PretrainConfig& config, Rng& rng,
                                   const PretrainStep& step);

}  // namespace cq::core
