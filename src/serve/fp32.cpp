#include "serve/fp32.hpp"

#include <cstring>
#include <limits>

#include "core/trace.hpp"
#include "deploy/int8.hpp"  // fold_batchnorm
#include "models/mobilenetv2.hpp"
#include "models/resnet.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "quant/actquant.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace cq::serve {

namespace {

/// Conv with folded BN bias and an optionally fused trailing ReLU. Lowers
/// the whole batch into one [krows, N*spatial] column matrix per group and
/// runs a single fused-epilogue GEMM over it, amortizing the packed weight
/// panel across the batch.
class ConvOp : public Fp32Op {
 public:
  ConvOp(const nn::Conv2dSpec& spec, Tensor weight, std::vector<float> bias,
         gemm::Epilogue::Act act, float cap)
      : spec_(spec),
        weight_(std::move(weight)),
        bias_(std::move(bias)),
        act_(act),
        cap_(cap) {}

  const Tensor& forward(const Tensor& x) const override {
    CQ_CHECK(x.shape().rank() == 4 && x.dim(1) == spec_.in_channels);
    const auto n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
    ConvGeometry g;
    g.in_channels = spec_.in_channels / spec_.groups;
    g.in_h = in_h;
    g.in_w = in_w;
    g.kernel_h = g.kernel_w = spec_.kernel;
    g.stride = spec_.stride;
    g.pad = spec_.pad;
    const auto oh = g.out_h(), ow = g.out_w();
    const auto spatial = oh * ow;
    const auto krows = g.col_rows();
    const auto cout_g = spec_.out_channels / spec_.groups;
    const auto cin_g = g.in_channels;
    const auto cols = n * spatial;  // all images side by side

    // Deep stages on thumbnail inputs run a handful of output pixels per
    // image; there the row-major im2col walk is per-element bookkeeping
    // while the patch-major transpose (im2row + kNT) writes each patch as
    // one contiguous run. The blocked GEMM's micro-kernel and k-panel order
    // are identical across transpose variants, so both lowerings are
    // bitwise-equal — and the choice depends only on layer geometry, never
    // on batch size, preserving batched-vs-serial bitwise equivalence.
    const bool patch_major = spatial <= 16;
    // Wide-spatial layers use the split pipeline (im2col row writes, then
    // pack_b's streaming read). An fp32 lowering straight into packed-B
    // slivers measured slower at serving batch widths (its sliver-scattered
    // writes cost more than the pack_b pass they delete) and was removed;
    // the int8 plan lowers from bytes quantized once per input element
    // (igemm::pack_b_conv_c4), where the pack is a dword copy.

    out_.resize(Shape{n, spec_.out_channels, oh, ow});
    cols_.resize(patch_major ? Shape{cols, krows} : Shape{krows, cols});
    gout_.resize(Shape{cout_g, cols});

    gemm::Epilogue ep;
    ep.bias_kind = gemm::Epilogue::Bias::kPerRow;
    ep.act = act_;
    ep.cap = cap_;

    const std::int64_t sample_in = spec_.in_channels * in_h * in_w;
    for (std::int64_t grp = 0; grp < spec_.groups; ++grp) {
      // Batched lowering: image i occupies columns [i*spatial, (i+1)*spatial)
      // of the shared column matrix (rows of the patch matrix).
      {
        CQ_TRACE_SCOPE_N("serve.lower", n);
        for (std::int64_t img = 0; img < n; ++img) {
          const float* src =
              x.data() + img * sample_in + grp * cin_g * in_h * in_w;
          if (patch_major)
            im2row(src, g, cols_.data() + img * spatial * krows);
          else
            im2col(src, g, cols_.data() + img * spatial, cols);
        }
      }
      ep.bias = bias_.data() + grp * cout_g;
      gemm::gemm(patch_major ? gemm::Trans::kNT : gemm::Trans::kNN, cout_g,
                 cols, krows, weight_.data() + grp * cout_g * krows,
                 cols_.data(), gout_.data(), /*accumulate=*/false, ep);
      // GEMM output is channel-major over the whole batch; scatter each
      // (channel, image) plane back to NCHW. One-pixel planes are a plain
      // [cout_g, n] transpose — skip the per-plane memcpy machinery.
      if (spatial == 1) {
        for (std::int64_t oc_local = 0; oc_local < cout_g; ++oc_local) {
          const float* src = gout_.data() + oc_local * cols;
          const std::int64_t oc = grp * cout_g + oc_local;
          for (std::int64_t img = 0; img < n; ++img)
            out_.data()[img * spec_.out_channels + oc] = src[img];
        }
      } else {
        for (std::int64_t oc_local = 0; oc_local < cout_g; ++oc_local) {
          const float* src = gout_.data() + oc_local * cols;
          const std::int64_t oc = grp * cout_g + oc_local;
          for (std::int64_t img = 0; img < n; ++img)
            std::memcpy(
                out_.data() + (img * spec_.out_channels + oc) * spatial,
                src + img * spatial,
                static_cast<std::size_t>(spatial) * sizeof(float));
        }
      }
    }
    return out_;
  }

  const char* name() const override { return "fp32_conv"; }

 private:
  nn::Conv2dSpec spec_;
  Tensor weight_;  // [Cout, krows], BN pre-folded
  std::vector<float> bias_;
  gemm::Epilogue::Act act_;
  float cap_;
  mutable Tensor out_, cols_, gout_;  // retained scratch (zero-alloc steady)
};

class LinearOp : public Fp32Op {
 public:
  LinearOp(Tensor weight, std::vector<float> bias)
      : weight_(std::move(weight)), bias_(std::move(bias)) {}

  const Tensor& forward(const Tensor& x) const override {
    CQ_CHECK(x.shape().rank() == 2 && x.dim(1) == weight_.dim(1));
    const auto n = x.dim(0), out = weight_.dim(0);
    out_.resize(Shape{n, out});
    gemm::Epilogue ep;
    ep.bias = bias_.data();
    ep.bias_kind = gemm::Epilogue::Bias::kPerCol;
    gemm::gemm(gemm::Trans::kNT, n, out, weight_.dim(1), x.data(),
               weight_.data(), out_.data(), /*accumulate=*/false, ep);
    return out_;
  }

  const char* name() const override { return "fp32_linear"; }

 private:
  Tensor weight_;  // [out, in]
  std::vector<float> bias_;
  mutable Tensor out_;
};

class ReluOp : public Fp32Op {
 public:
  explicit ReluOp(float cap) : cap_(cap) {}
  const Tensor& forward(const Tensor& x) const override {
    out_.resize_as(x);
    const float* src = x.data();
    float* dst = out_.data();
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      float v = src[i] > 0.0f ? src[i] : 0.0f;
      if (cap_ > 0.0f && v > cap_) v = cap_;
      dst[i] = v;
    }
    return out_;
  }
  const char* name() const override { return "fp32_relu"; }

 private:
  float cap_;
  mutable Tensor out_;
};

class MaxPoolOp : public Fp32Op {
 public:
  MaxPoolOp(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
      : kernel_(kernel), stride_(stride), pad_(pad) {}
  const Tensor& forward(const Tensor& x) const override {
    const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const auto oh = (h + 2 * pad_ - kernel_) / stride_ + 1;
    const auto ow = (w + 2 * pad_ - kernel_) / stride_ + 1;
    out_.resize(Shape{n, c, oh, ow});
    float* dst = out_.data();
    std::int64_t o = 0;
    for (std::int64_t img = 0; img < n; ++img)
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float* plane = x.data() + (img * c + ch) * h * w;
        for (std::int64_t oy = 0; oy < oh; ++oy)
          for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::int64_t ky = 0; ky < kernel_; ++ky)
              for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                const auto iy = oy * stride_ + ky - pad_;
                const auto ix = ox * stride_ + kx - pad_;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                best = std::max(best, plane[iy * w + ix]);
              }
            dst[o] = best;
          }
      }
    return out_;
  }
  const char* name() const override { return "fp32_maxpool"; }

 private:
  std::int64_t kernel_, stride_, pad_;
  mutable Tensor out_;
};

class GlobalAvgPoolOp : public Fp32Op {
 public:
  const Tensor& forward(const Tensor& x) const override {
    const auto n = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
    out_.resize(Shape{n, c});
    float* dst = out_.data();
    for (std::int64_t img = 0; img < n; ++img)
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float* plane = x.data() + (img * c + ch) * spatial;
        double s = 0.0;
        for (std::int64_t i = 0; i < spatial; ++i) s += plane[i];
        dst[img * c + ch] = static_cast<float>(s / spatial);
      }
    return out_;
  }
  const char* name() const override { return "fp32_gap"; }

 private:
  mutable Tensor out_;
};

class FlattenOp : public Fp32Op {
 public:
  const Tensor& forward(const Tensor& x) const override {
    const auto n = x.dim(0);
    out_ = x.reshape(Shape{n, x.numel() / n});  // shares storage, no copy
    return out_;
  }
  const char* name() const override { return "fp32_flatten"; }

 private:
  mutable Tensor out_;
};

class ResidualOp : public Fp32Op {
 public:
  ResidualOp(std::vector<std::unique_ptr<Fp32Op>> body,
             std::vector<std::unique_ptr<Fp32Op>> shortcut, bool relu_after)
      : body_(std::move(body)),
        shortcut_(std::move(shortcut)),
        relu_after_(relu_after) {}

  const Tensor& forward(const Tensor& x) const override {
    const Tensor* main = &x;
    for (const auto& op : body_) main = &op->forward(*main);
    const Tensor* skip = &x;
    for (const auto& op : shortcut_) skip = &op->forward(*skip);
    CQ_CHECK(main->same_shape(*skip));
    out_.resize_as(*main);
    const float* a = main->data();
    const float* b = skip->data();
    float* dst = out_.data();
    if (relu_after_) {
      for (std::int64_t i = 0; i < out_.numel(); ++i) {
        const float v = a[i] + b[i];
        dst[i] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (std::int64_t i = 0; i < out_.numel(); ++i) dst[i] = a[i] + b[i];
    }
    return out_;
  }
  const char* name() const override { return "fp32_residual"; }

 private:
  std::vector<std::unique_ptr<Fp32Op>> body_;
  std::vector<std::unique_ptr<Fp32Op>> shortcut_;
  bool relu_after_;
  mutable Tensor out_;
};

void compile_into(nn::Sequential& seq,
                  std::vector<std::unique_ptr<Fp32Op>>& ops);

/// Compile one child; returns how many children were consumed.
std::size_t compile_child(nn::Sequential& seq, std::size_t index,
                          std::vector<std::unique_ptr<Fp32Op>>& ops) {
  nn::Module& child = seq.child(index);
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&child)) {
    Tensor weight = conv->weight().value;
    std::vector<float> bias;
    std::size_t consumed = 1;
    if (index + 1 < seq.size()) {
      if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&seq.child(index + 1))) {
        deploy::fold_batchnorm(*bn, weight, bias);
        consumed = 2;
      }
    }
    if (bias.empty())
      bias.assign(static_cast<std::size_t>(conv->spec().out_channels), 0.0f);
    // Peephole: fuse an immediately following ReLU into the GEMM epilogue
    // (bit-identical to a separate pass; see gemm.hpp).
    auto act = gemm::Epilogue::Act::kNone;
    float cap = 0.0f;
    if (index + consumed < seq.size()) {
      if (auto* relu =
              dynamic_cast<nn::ReLU*>(&seq.child(index + consumed))) {
        act = relu->cap() > 0.0f ? gemm::Epilogue::Act::kReluCap
                                 : gemm::Epilogue::Act::kRelu;
        cap = relu->cap();
        ++consumed;
      }
    }
    ops.push_back(std::make_unique<ConvOp>(conv->spec(), std::move(weight),
                                           std::move(bias), act, cap));
    return consumed;
  }
  if (auto* linear = dynamic_cast<nn::Linear*>(&child)) {
    std::vector<float> bias(
        static_cast<std::size_t>(linear->out_features()), 0.0f);
    if (linear->bias() != nullptr)
      for (std::int64_t i = 0; i < linear->out_features(); ++i)
        bias[static_cast<std::size_t>(i)] = linear->bias()->value[i];
    ops.push_back(std::make_unique<LinearOp>(linear->weight().value,
                                             std::move(bias)));
    return 1;
  }
  if (auto* relu = dynamic_cast<nn::ReLU*>(&child)) {
    ops.push_back(std::make_unique<ReluOp>(relu->cap()));
    return 1;
  }
  if (dynamic_cast<quant::ActQuant*>(&child) != nullptr) {
    return 1;  // full-precision serving drops fake quantization
  }
  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&child)) {
    ops.push_back(std::make_unique<MaxPoolOp>(pool->kernel(), pool->stride(),
                                              pool->pad()));
    return 1;
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&child) != nullptr) {
    ops.push_back(std::make_unique<GlobalAvgPoolOp>());
    return 1;
  }
  if (dynamic_cast<nn::Flatten*>(&child) != nullptr) {
    ops.push_back(std::make_unique<FlattenOp>());
    return 1;
  }
  if (auto* block = dynamic_cast<models::BasicBlock*>(&child)) {
    std::vector<std::unique_ptr<Fp32Op>> body, shortcut;
    compile_into(block->main_path(), body);
    if (block->shortcut_path() != nullptr)
      compile_into(*block->shortcut_path(), shortcut);
    ops.push_back(std::make_unique<ResidualOp>(
        std::move(body), std::move(shortcut), /*relu_after=*/true));
    return 1;
  }
  if (auto* block = dynamic_cast<models::InvertedResidual*>(&child)) {
    std::vector<std::unique_ptr<Fp32Op>> body;
    compile_into(block->body(), body);
    if (block->uses_residual()) {
      ops.push_back(std::make_unique<ResidualOp>(
          std::move(body), std::vector<std::unique_ptr<Fp32Op>>{},
          /*relu_after=*/false));
    } else {
      for (auto& op : body) ops.push_back(std::move(op));
    }
    return 1;
  }
  CQ_CHECK_MSG(false, "fp32 compiler: unsupported module at index " << index);
}

void compile_into(nn::Sequential& seq,
                  std::vector<std::unique_ptr<Fp32Op>>& ops) {
  std::size_t index = 0;
  while (index < seq.size()) index += compile_child(seq, index, ops);
}

}  // namespace

const Tensor& Fp32Network::forward(const Tensor& x) const {
  CQ_CHECK_MSG(!ops_.empty(), "empty compiled network");
  const Tensor* h = &x;
  for (const auto& op : ops_) h = &op->forward(*h);
  return *h;
}

Fp32Network compile_fp32(nn::Sequential& net) {
  Fp32Network compiled;
  compile_into(net, compiled.ops_);
  return compiled;
}

}  // namespace cq::serve
