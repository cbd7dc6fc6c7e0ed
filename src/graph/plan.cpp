#include "graph/plan.hpp"

#include <algorithm>
#include <numeric>

#include "core/trace.hpp"
#include "models/vit.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels/igemm.hpp"
#include "util/check.hpp"

namespace cq::graph {

bool publishes_absmax(const Node& n) {
  return n.op == Op::kConv2d && n.precision == Precision::kInt8 &&
         n.act != gemm::Epilogue::Act::kNone;
}

std::vector<std::int64_t> node_scratch_bytes(const Graph& g, std::size_t i,
                                             std::int64_t batch) {
  const Node& n = g.nodes[i];
  constexpr std::int64_t kF = sizeof(float);
  switch (n.op) {
    case Op::kConv2d: {
      const Shape& in = g.value(n.inputs[0]).shape;
      const ConvGeometry geo = n.conv.group_geometry(in.dim(1), in.dim(2));
      const std::int64_t cols = batch * geo.col_cols();
      if (n.precision == Precision::kInt8)  // the epilogue writes NCHW
        return {cols * kF,   // col_scale
                batch * kF,  // img_inv
                // one group's channel-quad activation bytes, then its
                // per-image pad bytes
                igemm::round_up(geo.in_channels, igemm::kKU) * batch *
                    geo.in_h * geo.in_w,
                batch,
                igemm::packed_b_bytes(igemm::conv_k(geo), cols)};
      // One image's columns: images run one after another and reuse them.
      return {geo.col_rows() * geo.col_cols() * kF};
    }
    case Op::kLinear: {
      if (n.precision != Precision::kInt8) return {};
      const std::int64_t in = n.weight.dim(1);
      // Rank-2 per-sample inputs ([seq, in], the ViT token Linears) are just
      // more GEMM rows: seq per-sample rows, each its own igemm column.
      const std::int64_t rows =
          batch * (g.value(n.inputs[0]).shape.numel() / in);
      return {rows * kF,  // in_scale
              rows * kF,  // in_inv
              igemm::packed_b_bytes(in, rows)};
    }
    case Op::kPatchEmbed: {
      const std::int64_t seq = g.value(n.output).shape.dim(0);
      const std::int64_t krows = n.weight.dim(1);
      return {batch * seq * krows * kF};  // im2row patch matrix [n*seq, krows]
    }
    case Op::kAttnCore: {
      // One head's attention map; heads and images run one after another
      // and reuse it.
      const std::int64_t seq = g.value(n.output).shape.dim(0);
      return {models::detail::attention_scratch_floats(seq) * kF};
    }
    default:
      return {};
  }
}

std::int64_t assign_offsets(std::vector<PlannedBuffer>& buffers,
                            std::int64_t align) {
  CQ_CHECK(align > 0);
  std::vector<std::size_t> order(buffers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Largest first; ties broken by start step then index for determinism.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (buffers[a].bytes != buffers[b].bytes)
      return buffers[a].bytes > buffers[b].bytes;
    if (buffers[a].first != buffers[b].first)
      return buffers[a].first < buffers[b].first;
    return a < b;
  });

  struct Span {
    std::int64_t begin, end;
  };
  std::vector<std::size_t> placed;
  std::vector<Span> spans;
  std::int64_t peak = 0;
  for (std::size_t idx : order) {
    PlannedBuffer& b = buffers[idx];
    CQ_CHECK(b.bytes > 0 && b.first <= b.last);
    spans.clear();
    for (std::size_t p : placed) {
      const PlannedBuffer& o = buffers[p];
      if (o.last < b.first || o.first > b.last) continue;  // disjoint lives
      spans.push_back(Span{o.offset, o.offset + o.bytes});
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& x, const Span& y) { return x.begin < y.begin; });
    std::int64_t cand = 0;
    for (const Span& s : spans) {
      if (cand + b.bytes <= s.begin) break;  // fits in the gap below s
      cand = std::max(cand, igemm::round_up(s.end, align));
    }
    b.offset = cand;
    peak = std::max(peak, cand + b.bytes);
    placed.push_back(idx);
  }
  return peak;
}

ArenaPlan plan_arena(const Graph& g, std::int64_t max_batch) {
  CQ_TRACE_SCOPE_N("graph.plan", static_cast<std::int64_t>(g.nodes.size()));
  CQ_CHECK(max_batch >= 1);
  ArenaPlan plan;
  plan.value_offset.assign(g.values.size(), kExternalOffset);
  plan.absmax_offset.assign(g.values.size(), kExternalOffset);
  plan.scratch_offset.resize(g.nodes.size());

  // One forward sweep fixes producers and last consumers.
  std::vector<std::int64_t> producer(g.values.size(), -1);
  std::vector<std::int64_t> last_use(g.values.size(), -1);
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const Node& n = g.nodes[i];
    for (ValueId in : n.inputs)
      last_use[static_cast<std::size_t>(in)] = static_cast<std::int64_t>(i);
    if (n.output != kNoValue)
      producer[static_cast<std::size_t>(n.output)] =
          static_cast<std::int64_t>(i);
  }

  for (std::size_t v = 0; v < g.values.size(); ++v) {
    const ValueId id = static_cast<ValueId>(v);
    if (id == g.input || id == g.output) continue;  // caller-owned
    if (producer[v] < 0) continue;                  // orphan (pre-DCE input)
    if (last_use[v] < 0) continue;                  // dead value, never read
    PlannedBuffer b;
    b.bytes = g.values[v].shape.numel() * max_batch *
              static_cast<std::int64_t>(sizeof(float));
    // A published per-image max rides behind the batch, as live as it.
    if (publishes_absmax(g.nodes[static_cast<std::size_t>(producer[v])]))
      b.bytes += max_batch * static_cast<std::int64_t>(sizeof(float));
    b.first = producer[v];
    b.last = last_use[v];
    b.value = id;
    b.node = producer[v];
    plan.buffers.push_back(b);
  }
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const auto slots = node_scratch_bytes(g, i, max_batch);
    plan.scratch_offset[i].assign(slots.size(), kExternalOffset);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      PlannedBuffer b;
      b.bytes = slots[s];
      b.first = b.last = static_cast<std::int64_t>(i);
      b.node = static_cast<std::int64_t>(i);
      b.slot = static_cast<std::int64_t>(s);
      plan.buffers.push_back(b);
    }
  }

  const std::int64_t peak = assign_offsets(plan.buffers, kArenaAlign);
  plan.arena_bytes = igemm::round_up(peak, kArenaAlign);
  plan.naive_bytes = 0;
  for (const PlannedBuffer& b : plan.buffers) {
    plan.naive_bytes += b.bytes;
    if (b.value != kNoValue) {
      const auto v = static_cast<std::size_t>(b.value);
      plan.value_offset[v] = b.offset;
      if (publishes_absmax(g.nodes[static_cast<std::size_t>(b.node)]))
        plan.absmax_offset[v] =
            b.offset + g.values[v].shape.numel() * max_batch *
                           static_cast<std::int64_t>(sizeof(float));
    } else {
      plan.scratch_offset[static_cast<std::size_t>(b.node)]
                         [static_cast<std::size_t>(b.slot)] = b.offset;
    }
  }
  return plan;
}

std::string dump(const Graph& g, const ArenaPlan& plan) {
  std::string s = "arena " + std::to_string(plan.arena_bytes) +
                  " bytes (naive " + std::to_string(plan.naive_bytes) +
                  ")\n" + dump(g);
  // Re-walk: annotate each node line with its output / scratch offsets.
  std::string out;
  out.reserve(s.size() * 2);
  std::size_t node = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    std::string line = s.substr(pos, nl - pos);
    if (line.size() > 0 && line[0] == '%' && node < g.nodes.size()) {
      const Node& n = g.nodes[node];
      if (n.output != kNoValue) {
        const std::int64_t off =
            plan.value_offset[static_cast<std::size_t>(n.output)];
        line += off == kExternalOffset ? " @external"
                                       : " @arena+" + std::to_string(off);
      }
      const auto& scratch = plan.scratch_offset[node];
      if (!scratch.empty()) {
        line += " scratch[";
        for (std::size_t i = 0; i < scratch.size(); ++i) {
          if (i) line += ",";
          line += std::to_string(scratch[i]);
        }
        line += "]";
      }
      ++node;
    }
    out += line;
    out += "\n";
    pos = nl == std::string::npos ? s.size() : nl + 1;
  }
  return out;
}

}  // namespace cq::graph
