#include "graph/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/trace.hpp"
#include "graph/tracer.hpp"
#include "models/vit.hpp"
#include "nn/layernorm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels/igemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/check.hpp"

namespace cq::graph {

namespace {

ConvGeometry conv_geometry(const Node& n, const Shape& in) {
  ConvGeometry g;
  g.in_channels = n.conv.in_channels / n.conv.groups;
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.kernel_h = g.kernel_w = n.conv.kernel;
  g.stride = n.conv.stride;
  g.pad = n.conv.pad;
  return g;
}

// dst[i] = clamp(round(src[i] * inv_scale), -127, 127): the symmetric int8
// weight quantizer.
void quantize_buffer(const float* src, std::int64_t n, float inv_scale,
                     std::int8_t* dst) {
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] = static_cast<std::int8_t>(
        std::clamp<long>(std::lround(src[i] * inv_scale), -127L, 127L));
}

// Symmetric activation scale from a sample's max |x|.
float scale_from_max(float max_abs) {
  return std::max(max_abs / 127.0f, 1e-12f);
}

// Per-sample symmetric activation scale max(max|x| / 127, 1e-12): the range
// pass covers only this sample, so a batched forward is bitwise identical to
// N single-sample forwards.
float sample_scale(const float* src, std::int64_t n) {
  float lo, hi;
  kernels::minmax(src, n, &lo, &hi);
  return scale_from_max(std::max(std::fabs(lo), std::fabs(hi)));
}

}  // namespace

CompiledModel::CompiledModel(Graph g, std::int64_t max_batch)
    : graph_(std::move(g)), max_batch_(max_batch) {
  CQ_CHECK(max_batch_ >= 1);
  for (const Node& n : graph_.nodes)
    CQ_CHECK_MSG(n.op != Op::kBatchNorm && n.op != Op::kIdentity,
                 "CompiledModel: graph still contains " << op_name(n.op)
                     << " (" << n.label << ") — run the pass pipeline first");
  plan_ = plan_arena(graph_, max_batch_);
  arena_.resize(static_cast<std::size_t>(plan_.arena_bytes + kArenaAlign));
  base_ = arena_.data();
  const auto misalign =
      reinterpret_cast<std::uintptr_t>(base_) % kArenaAlign;
  if (misalign != 0) base_ += kArenaAlign - misalign;

  // Prepack weights: the compiled plan never touches raw weight bytes on
  // the forward path (fp32 conv weights stay row-major — gemm packs them
  // per cache block internally, amortized across the whole batch).
  state_.resize(graph_.nodes.size());
  for (std::size_t i = 0; i < graph_.nodes.size(); ++i) {
    const Node& node = graph_.nodes[i];
    NodeState& st = state_[i];
    if (node.op != Op::kConv2d && node.op != Op::kLinear &&
        node.op != Op::kPatchEmbed)
      continue;
    const Tensor& w = node.weight;
    const std::int64_t rows = w.dim(0), cols = w.dim(1);
    st.bias = node.bias;
    if (st.bias.empty()) st.bias.assign(static_cast<std::size_t>(rows), 0.0f);

    if (node.precision == Precision::kInt8) {
      quantize_int8_weights(i, nullptr);
    } else if (node.op == Op::kLinear || node.op == Op::kPatchEmbed) {
      // Single-k-panel shapes prepack into gemm's sliver layout once;
      // gemm_prepacked_b is bit-identical to gemm(kNT) on the raw weight.
      if (cols <= gemm::kKC && rows <= gemm::kNC) {
        st.packed_b.resize(
            static_cast<std::size_t>(gemm::packed_b_floats(cols, rows)));
        gemm::detail::pack_block_b(gemm::Trans::kNT, cols, rows, w.data(),
                                   st.packed_b.data(), nullptr);
      }
    }
  }
}

void CompiledModel::quantize_int8_weights(std::size_t i, const float* scales) {
  // Per-output-channel symmetric weights, igemm-packed per group with row
  // sums. The scale is the min-max default unless the caller (CPT-V
  // calibration) supplies one.
  const Node& node = graph_.nodes[i];
  NodeState& st = state_[i];
  const Tensor& w = node.weight;
  const std::int64_t rows = w.dim(0), cols = w.dim(1);
  const std::int64_t groups = node.op == Op::kConv2d ? node.conv.groups : 1;
  const std::int64_t rows_g = rows / groups;
  st.scales.resize(static_cast<std::size_t>(rows));
  st.rowsum.resize(static_cast<std::size_t>(rows));
  std::vector<std::int8_t> wq(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    float scale;
    if (scales != nullptr) {
      scale = scales[r];
    } else {
      float max_abs = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c)
        max_abs = std::max(max_abs, std::fabs(w.data()[r * cols + c]));
      scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    }
    CQ_CHECK_MSG(scale > 0.0f, "non-positive weight scale for channel " << r
                                   << " of " << node.label);
    st.scales[static_cast<std::size_t>(r)] = scale;
    quantize_buffer(w.data() + r * cols, cols, 1.0f / scale,
                    wq.data() + r * cols);
  }
  std::int64_t kq = cols;
  if (node.op == Op::kConv2d) {
    // The plan's conv lowering runs k in (tap, cq, ci) order (igemm.hpp).
    ConvGeometry g;
    g.in_channels = node.conv.in_channels / groups;
    g.kernel_h = g.kernel_w = node.conv.kernel;
    kq = igemm::conv_k(g);
    std::vector<std::int8_t> reordered(static_cast<std::size_t>(rows * kq));
    igemm::reorder_conv_weights(wq.data(), rows, g, reordered.data());
    wq.swap(reordered);
  }
  st.pa_group = igemm::packed_a_bytes(rows_g, kq);
  st.packed_a.resize(static_cast<std::size_t>(groups * st.pa_group));
  for (std::int64_t grp = 0; grp < groups; ++grp)
    igemm::pack_a_s8(wq.data() + grp * rows_g * kq, rows_g, kq,
                     st.packed_a.data() + grp * st.pa_group,
                     st.rowsum.data() + grp * rows_g);
}

std::vector<std::size_t> CompiledModel::int8_nodes() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < graph_.nodes.size(); ++i) {
    const Node& n = graph_.nodes[i];
    if ((n.op == Op::kConv2d || n.op == Op::kLinear) &&
        n.precision == Precision::kInt8)
      out.push_back(i);
  }
  return out;
}

void CompiledModel::requantize_node(std::size_t i,
                                    const std::vector<float>& scales) {
  CQ_CHECK_MSG(i < graph_.nodes.size(), "requantize_node: bad index " << i);
  const Node& node = graph_.nodes[i];
  CQ_CHECK_MSG((node.op == Op::kConv2d || node.op == Op::kLinear) &&
                   node.precision == Precision::kInt8,
               "requantize_node: " << node.label << " is not an int8 node");
  CQ_CHECK_MSG(static_cast<std::int64_t>(scales.size()) == node.weight.dim(0),
               "requantize_node: " << node.label << " expects "
                                   << node.weight.dim(0) << " scales, got "
                                   << scales.size());
  quantize_int8_weights(i, scales.data());
}

const float* CompiledModel::in_ptr(ValueId id, const Tensor& x) const {
  if (id == graph_.input) return x.data();
  if (id == graph_.output) return out_.data();
  const std::int64_t off = plan_.value_offset[static_cast<std::size_t>(id)];
  CQ_CHECK_MSG(off != kExternalOffset,
               "unplanned value %" << id << " read by the executor");
  return reinterpret_cast<const float*>(base_ + off);
}

float* CompiledModel::absmax_ptr(ValueId id) {
  const std::int64_t off = plan_.absmax_offset[static_cast<std::size_t>(id)];
  return off == kExternalOffset ? nullptr : arena_ptr(off);
}

float* CompiledModel::out_value_ptr(ValueId id) {
  if (id == graph_.output) return out_.data();
  const std::int64_t off = plan_.value_offset[static_cast<std::size_t>(id)];
  CQ_CHECK_MSG(off != kExternalOffset,
               "unplanned value %" << id << " written by the executor");
  return arena_ptr(off);
}

const Tensor& CompiledModel::forward(const Tensor& x) {
  const std::int64_t n = x.dim(0);
  CQ_CHECK_MSG(n >= 1 && n <= max_batch_,
               "compiled plan built for max_batch " << max_batch_
                   << ", got batch " << n);
  CQ_CHECK(x.numel() == n * graph_.value(graph_.input).shape.numel());
  CQ_TRACE_SCOPE_N("graph.forward", n);

  {
    const Shape& os = graph_.value(graph_.output).shape;
    std::vector<std::int64_t> dims;
    dims.reserve(os.rank() + 1);
    dims.push_back(n);
    for (std::size_t d = 0; d < os.rank(); ++d)
      dims.push_back(os.dim(static_cast<std::int64_t>(d)));
    out_.resize(Shape{std::move(dims)});
  }

  for (std::size_t i = 0; i < graph_.nodes.size(); ++i) {
    const Node& node = graph_.nodes[i];
    const NodeState& st = state_[i];
    const auto& scratch = plan_.scratch_offset[i];
    const Shape& ishape = graph_.value(node.inputs[0]).shape;
    const float* in_p = in_ptr(node.inputs[0], x);
    float* out_p = out_value_ptr(node.output);

    switch (node.op) {
      case Op::kConv2d: {
        const ConvGeometry geo = conv_geometry(node, ishape);
        const auto oh = geo.out_h(), ow = geo.out_w();
        const auto spatial = oh * ow;
        const auto krows = geo.col_rows();
        const auto cout_g = node.conv.out_channels / node.conv.groups;
        const auto cin_g = geo.in_channels;
        const auto cols = n * spatial;
        const auto in_h = geo.in_h, in_w = geo.in_w;
        const std::int64_t sample_in = node.conv.in_channels * in_h * in_w;

        if (node.precision == Precision::kInt8) {
          CQ_TRACE_SCOPE_N("graph.node.conv_int8", n);
          float* col_scale = arena_ptr(scratch[0]);
          float* img_inv = arena_ptr(scratch[1]);
          auto* act = reinterpret_cast<std::uint8_t*>(base_ + scratch[2]);
          auto* pad = reinterpret_cast<std::uint8_t*>(base_ + scratch[3]);
          auto* bp = reinterpret_cast<std::uint8_t*>(base_ + scratch[4]);
          // The producer's epilogue may have published each input image's
          // max (ReLU output: NaN-free, >= 0, so it is max(|lo|, |hi|)).
          const float* in_max = absmax_ptr(node.inputs[0]);
          float* out_max = absmax_ptr(node.output);
          if (out_max != nullptr) std::fill_n(out_max, n, 0.0f);

          // Image i owns columns [i*spatial, (i+1)*spatial): every one of
          // its columns quantizes with that image's scale, whatever the
          // batch width.
          for (std::int64_t img = 0; img < n; ++img) {
            const float in_scale =
                in_max != nullptr
                    ? scale_from_max(in_max[img])
                    : sample_scale(in_p + img * sample_in, sample_in);
            img_inv[img] = 1.0f / in_scale;
            std::fill_n(col_scale + img * spatial, spatial, in_scale);
          }
          // The epilogue writes the finished NCHW activation: residual,
          // ReLU/ReLU6 and the per-image max included.
          const float* residual =
              node.inputs.size() > 1 ? in_ptr(node.inputs[1], x) : nullptr;
          igemm::Epilogue ep;
          ep.col_scale = col_scale;
          ep.pixels = spatial;
          ep.image_stride = node.conv.out_channels * spatial;
          ep.residual_first = node.residual_first;
          ep.act = node.act;
          ep.cap = node.act_cap;
          ep.absmax = out_max;
          for (std::int64_t grp = 0; grp < node.conv.groups; ++grp) {
            // Quantize the group's input once into channel-quad bytes, then
            // lower it by copying dwords into the packed-B slivers; the
            // weights were permuted to the same (tap, cq, ci) k order.
            igemm::quantize_conv_input(in_p + grp * cin_g * in_h * in_w, n,
                                       sample_in, cin_g, in_h * in_w, img_inv,
                                       act, pad);
            igemm::pack_b_conv_c4(act, pad, n, geo, bp);
            const std::int64_t grp_off = grp * cout_g * spatial;
            ep.row_scale = st.scales.data() + grp * cout_g;
            ep.bias = st.bias.data() + grp * cout_g;
            ep.residual = residual != nullptr ? residual + grp_off : nullptr;
            igemm::gemm(cout_g, cols, igemm::conv_k(geo),
                        st.packed_a.data() + grp * st.pa_group,
                        st.rowsum.data() + grp * cout_g, bp, out_p + grp_off,
                        /*ldc=*/spatial, ep);
          }
          break;
        }

        CQ_TRACE_SCOPE_N("graph.node.conv", n);
        const bool patch_major = node.lowering == ConvLowering::kIm2row;
        float* cols_buf = arena_ptr(scratch[0]);
        float* gout = arena_ptr(scratch[1]);
        gemm::Epilogue ep;
        ep.bias_kind = gemm::Epilogue::Bias::kPerRow;
        ep.act = node.act;
        ep.cap = node.act_cap;
        for (std::int64_t grp = 0; grp < node.conv.groups; ++grp) {
          {
            CQ_TRACE_SCOPE_N("serve.lower", n);
            // Image img writes cols_buf slice img*spatial*krows (im2row) or
            // the img*spatial column band (im2col).
            for (std::int64_t img = 0; img < n; ++img) {
              const float* src =
                  in_p + img * sample_in + grp * cin_g * in_h * in_w;
              if (patch_major)
                im2row(src, geo, cols_buf + img * spatial * krows);
              else
                im2col(src, geo, cols_buf + img * spatial, cols);
            }
          }
          ep.bias = st.bias.data() + grp * cout_g;
          gemm::gemm(patch_major ? gemm::Trans::kNT : gemm::Trans::kNN,
                     cout_g, cols, krows,
                     node.weight.data() + grp * cout_g * krows, cols_buf,
                     gout, /*accumulate=*/false, ep);
          for (std::int64_t oc_local = 0; oc_local < cout_g; ++oc_local) {
            const float* src = gout + oc_local * cols;
            const std::int64_t oc = grp * cout_g + oc_local;
            if (spatial == 1) {
              for (std::int64_t img = 0; img < n; ++img)
                out_p[img * node.conv.out_channels + oc] = src[img];
            } else {
              for (std::int64_t img = 0; img < n; ++img)
                std::memcpy(
                    out_p + (img * node.conv.out_channels + oc) * spatial,
                    src + img * spatial,
                    static_cast<std::size_t>(spatial) * sizeof(float));
            }
          }
        }
        break;
      }

      case Op::kLinear: {
        const std::int64_t in = node.weight.dim(1), out = node.weight.dim(0);
        // Rank-2 per-sample inputs ([seq, in], the ViT token Linears) are
        // just more GEMM rows; rank-1 feature rows keep rows == n. Every row
        // lives inside one sample, so per-row scales stay batch-invariant.
        const std::int64_t rows = n * (ishape.numel() / in);
        if (node.precision == Precision::kInt8) {
          CQ_TRACE_SCOPE_N("graph.node.linear_int8", n);
          float* in_scale = arena_ptr(scratch[0]);
          float* in_inv = arena_ptr(scratch[1]);
          auto* bp = reinterpret_cast<std::uint8_t*>(base_ + scratch[2]);
          for (std::int64_t s = 0; s < rows; ++s) {
            in_scale[s] = sample_scale(in_p + s * in, in);
            in_inv[s] = 1.0f / in_scale[s];
          }
          igemm::pack_b_quantized(in_p, /*rs=*/1, /*cs=*/in, in, rows, in_inv,
                                  bp);
          // GEMM column s is output row s: the epilogue writes [rows, out]
          // directly (one "pixel" per image, images `out` floats apart).
          igemm::Epilogue ep;
          ep.row_scale = st.scales.data();
          ep.col_scale = in_scale;
          ep.bias = st.bias.data();
          ep.pixels = 1;
          ep.image_stride = out;
          igemm::gemm(out, rows, in, st.packed_a.data(), st.rowsum.data(), bp,
                      out_p, /*ldc=*/1, ep);
          break;
        }
        CQ_TRACE_SCOPE_N("graph.node.linear", n);
        gemm::Epilogue ep;
        ep.bias = st.bias.data();
        ep.bias_kind = gemm::Epilogue::Bias::kPerCol;
        ep.act = node.act;
        ep.cap = node.act_cap;
        if (!st.packed_b.empty())
          gemm::gemm_prepacked_b(rows, out, in, in_p, st.packed_b.data(),
                                 out_p, /*accumulate=*/false, ep);
        else
          gemm::gemm(gemm::Trans::kNT, rows, out, in, in_p, node.weight.data(),
                     out_p, /*accumulate=*/false, ep);
        break;
      }

      case Op::kPatchEmbed: {
        CQ_TRACE_SCOPE_N("graph.node.patch_embed", n);
        const ConvGeometry geo = conv_geometry(node, ishape);
        const std::int64_t seq = geo.col_cols();
        const std::int64_t krows = geo.col_rows();
        const std::int64_t dim = node.conv.out_channels;
        const std::int64_t sample_in =
            node.conv.in_channels * geo.in_h * geo.in_w;
        float* patches = arena_ptr(scratch[0]);
        // Image img owns patch rows [img*seq, (img+1)*seq).
        for (std::int64_t img = 0; img < n; ++img) {
          im2row(in_p + img * sample_in, geo, patches + img * seq * krows);
        }
        gemm::Epilogue ep;
        ep.bias = st.bias.data();
        ep.bias_kind = gemm::Epilogue::Bias::kPerCol;
        const std::int64_t rows = n * seq;
        if (!st.packed_b.empty())
          gemm::gemm_prepacked_b(rows, dim, krows, patches,
                                 st.packed_b.data(), out_p,
                                 /*accumulate=*/false, ep);
        else
          gemm::gemm(gemm::Trans::kNT, rows, dim, krows, patches,
                     node.weight.data(), out_p, /*accumulate=*/false, ep);
        const float* pos = node.pos_embed.data();
        for (std::int64_t img = 0; img < n; ++img) {
          float* dst = out_p + img * seq * dim;
          for (std::int64_t j = 0; j < seq * dim; ++j) dst[j] += pos[j];
        }
        break;
      }

      case Op::kLayerNorm: {
        CQ_TRACE_SCOPE_N("graph.node.layernorm", n);
        const std::int64_t cols = node.bn_gamma.numel();
        const std::int64_t rows_per = ishape.numel() / cols;
        const float* gamma = node.bn_gamma.data();
        const float* beta = node.bn_beta.data();
        // Row-independent arithmetic: per-image calls match the eager
        // whole-batch call bit for bit (shared nn::detail::layernorm_rows).
        for (std::int64_t img = 0; img < n; ++img) {
          nn::detail::layernorm_rows(in_p + img * rows_per * cols,
                                     out_p + img * rows_per * cols, rows_per,
                                     cols, gamma, beta, node.bn_eps,
                                     /*xhat=*/nullptr, /*inv_std=*/nullptr);
        }
        break;
      }

      case Op::kGelu: {
        CQ_TRACE_SCOPE_N("graph.node.gelu", n);
        kernels::gelu(in_p, out_p, n * ishape.numel());
        break;
      }

      case Op::kAttnCore: {
        CQ_TRACE_SCOPE_N("graph.node.attn", n);
        const Shape& oshape = graph_.value(node.output).shape;
        const std::int64_t seq = oshape.dim(0), dim = oshape.dim(1);
        const std::int64_t heads = node.attn_heads;
        // Images reuse one q/k/v + score scratch; the shared
        // attention_forward helper keeps compiled == eager bitwise.
        float* qh = arena_ptr(scratch[0]);
        float* kh = qh + seq * dim;
        float* vh = kh + seq * dim;
        float* sc = vh + seq * dim;
        for (std::int64_t img = 0; img < n; ++img)
          models::detail::attention_forward(in_p + img * seq * 3 * dim, seq,
                                            dim, heads, qh, kh, vh,
                                            /*probs=*/nullptr, sc,
                                            out_p + img * seq * dim);
        break;
      }

      case Op::kSeqMean: {
        CQ_TRACE_SCOPE_N("graph.node.seq_mean", n);
        const std::int64_t seq = ishape.dim(0), dim = ishape.dim(1);
        for (std::int64_t img = 0; img < n; ++img) {
          models::detail::seq_mean_forward(in_p + img * seq * dim, seq, dim,
                                           out_p + img * dim);
        }
        break;
      }

      case Op::kRelu: {
        CQ_TRACE_SCOPE_N("graph.node.relu", n);
        const std::int64_t count = n * ishape.numel();
        if (node.relu_cap > 0.0f)
          kernels::relu_cap(in_p, out_p, count, node.relu_cap);
        else
          kernels::relu(in_p, out_p, count);
        break;
      }

      case Op::kGlobalAvgPool: {
        CQ_TRACE_SCOPE_N("graph.node.gap", n);
        const auto c = ishape.dim(0), spatial = ishape.dim(1) * ishape.dim(2);
        // One double accumulator per plane.
        for (std::int64_t pl = 0; pl < n * c; ++pl) {
          const float* plane = in_p + pl * spatial;
          double s = 0.0;
          for (std::int64_t j = 0; j < spatial; ++j) s += plane[j];
          out_p[pl] = static_cast<float>(s / spatial);
        }
        break;
      }

      case Op::kAdd: {
        CQ_TRACE_SCOPE_N("graph.node.add", n);
        const float* a = in_p;
        const float* b = in_ptr(node.inputs[1], x);
        const std::int64_t count = n * ishape.numel();
        // Which NaN survives NaN + NaN is pinned rather than left to the
        // compiler's operand order: b's, the bytes this node has served.
        for (std::int64_t j = 0; j < count; ++j)
          out_p[j] = kernels::add_first(b[j], a[j]);
        if (node.add_relu) kernels::relu(out_p, out_p, count);
        break;
      }

      default:
        CQ_CHECK_MSG(false, "executor: unexpected op " << op_name(node.op));
    }
  }
  return out_;
}

CompiledModel compile(nn::Sequential& net, const Shape& sample_shape,
                      const CompileOptions& opts) {
  CQ_TRACE_SCOPE("graph.compile");
  Graph g = trace(net, sample_shape);
  std::vector<PassResult> log;
  if (opts.run_passes) log = run_default_passes(g, opts.precision);
  CompiledModel model(std::move(g), opts.max_batch);
  model.pass_log_ = std::move(log);
  return model;
}

}  // namespace cq::graph
