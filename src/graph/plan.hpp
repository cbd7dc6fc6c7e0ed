// Liveness-based arena planner: every intermediate value AND every node
// scratch buffer (one image's im2col columns, int8 packing buffers) gets an
// offset into ONE preallocated arena, sized for the plan's max batch width.
//
// Liveness is trivial on a topologically-ordered node list: a value is live
// from its producing step to its last consuming step; node scratch is live
// for exactly its own step. Placement is greedy best-fit in decreasing size
// order — for each buffer, scan the gaps left by already-placed,
// lifetime-overlapping buffers and take the lowest offset that fits. The
// greedy planner is not optimal, but on the ResNet chain (long thin
// lifetime chains, a few residual overlaps) it lands well under half the
// naive sum-of-buffers footprint; plan_arena() reports both numbers so the
// bench and README can state planned-vs-naive honestly.
//
// The graph input and output are EXTERNAL: the caller owns them (the serve
// batcher's collate buffer and the instance's output tensor), so they take
// no arena space and never alias intermediates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/ir.hpp"

namespace cq::graph {

inline constexpr std::int64_t kArenaAlign = 64;  // cache line
/// value_offset entry for buffers the arena does not own (graph input /
/// output, values dead-code-eliminated before planning).
inline constexpr std::int64_t kExternalOffset = -1;

struct PlannedBuffer {
  std::int64_t bytes = 0;
  std::int64_t first = 0;       // first live step (producing node index)
  std::int64_t last = 0;        // last live step (last consumer)
  ValueId value = kNoValue;     // kNoValue: node scratch
  std::int64_t node = -1;       // producer (values) / owner (scratch)
  std::int64_t slot = -1;       // scratch slot index within the node
  std::int64_t offset = -1;     // assigned by assign_offsets
};

/// Greedy size-descending best-fit placement over the buffers' live
/// intervals; fills every `offset` and returns the peak (unaligned) byte
/// watermark. Exposed separately so the randomized-lifetime no-overlap
/// property test can drive it without a graph.
std::int64_t assign_offsets(std::vector<PlannedBuffer>& buffers,
                            std::int64_t align);

struct ArenaPlan {
  std::vector<PlannedBuffer> buffers;
  /// Per ValueId arena offset; kExternalOffset for input/output/orphans.
  std::vector<std::int64_t> value_offset;
  /// Per ValueId offset of the max_batch per-image maxima its producer
  /// publishes (publishes_absmax), stored right after the value's batch;
  /// kExternalOffset when it publishes none or the value is external.
  std::vector<std::int64_t> absmax_offset;
  /// Per node: arena offset of each scratch slot (node_scratch_bytes order).
  std::vector<std::vector<std::int64_t>> scratch_offset;
  std::int64_t arena_bytes = 0;  // planned peak, kArenaAlign-rounded
  std::int64_t naive_bytes = 0;  // every buffer allocated privately
};

/// Does node n's epilogue publish its output's per-image max (|x| max of a
/// NaN-free, non-negative activation)? True for int8 convs that end in
/// ReLU/ReLU6; the consuming int8 conv then skips its range pass.
bool publishes_absmax(const Node& n);

/// Per-slot scratch bytes node `i` needs at batch width `batch`. Slot order
/// is the executor's contract:
///  * fp32 conv {cols}: one image's column matrix; images run one after
///    another through nn::detail::conv2d_forward, whose GEMM writes NCHW;
///  * int8 conv {col_scale, img_inv, act, pad, packed_b}: act and pad hold
///    one group's channel-quad input bytes, reused across groups; the
///    epilogue writes NCHW;
///  * int8 linear {in_scale, in_inv, packed_b}: its epilogue writes
///    [rows, out] directly;
///  * patch embed {patches}; attention {per-image q/k/v + scores};
///    everything else none.
std::vector<std::int64_t> node_scratch_bytes(const Graph& g, std::size_t i,
                                             std::int64_t batch);

ArenaPlan plan_arena(const Graph& g, std::int64_t max_batch);

/// dump() with per-node arena offsets appended.
std::string dump(const Graph& g, const ArenaPlan& plan);

}  // namespace cq::graph
