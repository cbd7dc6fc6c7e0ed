// Compiled model instances the serving workers run.
//
// A ModelInstance wraps one compiled plan (fp32 or int8 precision) behind a
// uniform batched-forward interface. Both kinds lower through the graph
// compiler (graph/executor.hpp): trace -> pass pipeline -> arena plan at
// the engine's max batch -> prepacked executor. Instances own a mutable
// arena and are NOT thread-safe: the engine compiles one instance per
// worker thread from the same loaded encoder, trading memory for lock-free
// forwards. The plans' bitwise contracts (optimized == passes-off plan,
// batched == serial) are pinned in tests/test_graph.cpp.
#pragma once

#include <cstdint>
#include <memory>

#include "graph/executor.hpp"
#include "nn/sequential.hpp"

namespace cq::serve {

enum class InstanceKind : std::uint8_t {
  kFp32,  // BN-folded, fused-epilogue fp32 plan
  kInt8,  // dynamic per-sample int8 plan
};

inline const char* instance_kind_name(InstanceKind k) {
  return k == InstanceKind::kFp32 ? "fp32" : "int8";
}

class ModelInstance {
 public:
  virtual ~ModelInstance() = default;
  /// Forward an [N, C, H, W] batch to [N, feature_dim]. The reference stays
  /// valid until the next forward on this instance.
  virtual const Tensor& forward(const Tensor& batch) = 0;
  /// Bytes of the instance's planned arena (0 if the instance has none).
  virtual std::int64_t arena_bytes() const = 0;
  /// The underlying compiled plan, or null for instances that do not run
  /// one. Lets callers retarget quantization state in place — e.g. apply a
  /// CPT-V calibrated scale table (quant/ptq.hpp) to an int8 instance.
  virtual graph::CompiledModel* compiled() { return nullptr; }
};

/// Compile `backbone` (eval-mode semantics) into a fresh instance whose
/// arena is planned for batches up to `max_batch` samples of `sample_shape`.
/// Called once per worker at engine construction, on the construction
/// thread.
std::unique_ptr<ModelInstance> make_instance(InstanceKind kind,
                                             nn::Sequential& backbone,
                                             const Shape& sample_shape,
                                             std::int64_t max_batch);

}  // namespace cq::serve
