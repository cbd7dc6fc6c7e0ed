// CPT-V-style contrastive post-training quantization (Frumkin et al.; see
// PAPERS.md): calibrate the per-output-channel weight scales of a compiled
// int8 plan WITHOUT backprop, by perturbing one layer's scales at a time
// and accepting a proposal only when it lowers the InfoNCE loss between the
// quantized embeddings and the frozen fp32 embeddings over a calibration
// batch. The contrastive objective — each calibration sample's fp32
// embedding is the positive, every other sample's the negatives — directly
// preserves the *relative geometry* retrieval consumes, where a plain MSE
// objective would spend its budget on absolute coordinates.
//
// The loop drives graph::CompiledModel::requantize_node, so the accepted
// scales land on the exact igemm path serving runs; the emitted
// ScaleTable re-applies byte-identically to any plan compiled from the same
// checkpoint (label-matched), including serve::ModelInstance::compiled().
//
// Everything is deterministic from PtqConfig::seed: fixed proposal stream,
// bitwise-reproducible forwards (the executor's thread-invariance contract),
// therefore byte-identical scale tables run to run (tests/test_ptq.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/executor.hpp"
#include "tensor/tensor.hpp"

namespace cq::quant {

struct PtqConfig {
  int rounds = 2;        // full sweeps over the int8 layers
  int candidates = 6;    // scale proposals per layer per sweep
  float spread = 0.15f;  // per-layer jitter: scales *= (1 + U(-spread, spread))
  float tau = 0.2f;      // InfoNCE temperature (paper Eq. 1 form)
  /// A proposal must beat the incumbent loss by this relative margin on
  /// BOTH halves of the calibration batch. Near an already-good operating
  /// point (per-channel min-max at int8) the loss differences are noise;
  /// without the margin the greedy search accepts them and drifts away
  /// from the optimum. Real headroom (e.g. a per-tensor starting point)
  /// clears the margin easily.
  float min_rel_improvement = 1e-3f;
  std::uint64_t seed = 0x517ac5ULL;
};

/// Accepted per-output-channel scales for every int8 node, label-keyed, in
/// execution order. The on-disk form (save/load) is the checkpoint binary
/// format with a record count, so foreign/truncated files fail loudly.
struct ScaleTable {
  std::vector<std::string> labels;
  std::vector<std::vector<float>> scales;

  void save(const std::string& path) const;
  static ScaleTable load(const std::string& path);
};

struct PtqResult {
  ScaleTable table;
  float initial_loss = 0.0f;  // InfoNCE at the min-max scales
  float final_loss = 0.0f;    // after calibration
  int proposed = 0;
  int accepted = 0;
};

/// L2-normalize each row of a [N, D] feature matrix (copy). The calibration
/// loss and the recall study both compare in cosine space.
Tensor l2_normalize_rows(const Tensor& features);

/// Calibrate `qm` (an int8-lowered compiled plan) against frozen fp32
/// reference embeddings `zfp` ([N, D], rows matching `calib`'s samples) over
/// the calibration batch `calib` ([N, ...sample dims], N >= 2, N <=
/// qm.max_batch()). Mutates qm's quantization state in place (accepted
/// proposals stay applied; rejected ones are rolled back) and returns the
/// accepted scale table plus the loss trajectory.
PtqResult calibrate(graph::CompiledModel& qm, const Tensor& calib,
                    const Tensor& zfp, const PtqConfig& config);

/// Re-apply a calibrated table to a plan compiled from the same checkpoint:
/// every table entry must match an int8 node by label and channel count.
void apply(graph::CompiledModel& qm, const ScaleTable& table);

}  // namespace cq::quant
