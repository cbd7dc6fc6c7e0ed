#include "models/vit.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace cq::models {

namespace detail {

std::int64_t attention_scratch_floats(std::int64_t seq) { return seq * seq; }

void attention_forward(const float* qkv, std::int64_t seq, std::int64_t dim,
                       std::int64_t heads, float* probs, float* scratch,
                       float* out) {
  const std::int64_t dh = dim / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (std::int64_t h = 0; h < heads; ++h) {
    const float* q = qkv + h * dh;
    kernels::attention_head(q, q + dim, q + 2 * dim, 3 * dim, seq, dh, scale,
                            probs != nullptr ? probs + h * seq * seq : scratch,
                            out + h * dh, dim);
  }
}

void seq_mean_forward(const float* x, std::int64_t seq, std::int64_t dim,
                      float* out) {
  for (std::int64_t d = 0; d < dim; ++d) out[d] = 0.0f;
  for (std::int64_t s = 0; s < seq; ++s) {
    const float* row = x + s * dim;
    for (std::int64_t d = 0; d < dim; ++d) out[d] += row[d];
  }
  const float inv = 1.0f / static_cast<float>(seq);
  for (std::int64_t d = 0; d < dim; ++d) out[d] *= inv;
}

}  // namespace detail

namespace {

/// Copies each head's strided q, k and v columns of one sample's fused
/// [seq, 3*dim] rows into contiguous [heads, seq, dh] matrices, which the
/// backward GEMMs read.
void gather_heads(const float* qkv, std::int64_t seq, std::int64_t dim,
                  std::int64_t heads, float* qh, float* kh, float* vh) {
  const std::int64_t dh = dim / heads;
  for (std::int64_t h = 0; h < heads; ++h) {
    for (std::int64_t s = 0; s < seq; ++s) {
      const float* row = qkv + s * 3 * dim + h * dh;
      const std::int64_t at = (h * seq + s) * dh;
      std::memcpy(qh + at, row, dh * sizeof(float));
      std::memcpy(kh + at, row + dim, dh * sizeof(float));
      std::memcpy(vh + at, row + 2 * dim, dh * sizeof(float));
    }
  }
}

void install_fake_quant(nn::Linear& linear,
                        std::shared_ptr<const quant::QuantPolicy> policy) {
  linear.set_weight_transform(
      std::make_shared<quant::FakeQuantWeight>(std::move(policy)));
}

}  // namespace

// ---- PatchEmbed ------------------------------------------------------------

PatchEmbed::PatchEmbed(std::int64_t in_channels, std::int64_t image_size,
                       std::int64_t patch, std::int64_t dim,
                       std::shared_ptr<const quant::QuantPolicy> policy,
                       Rng& rng, const std::string& name)
    : geo_{.in_channels = in_channels,
           .in_h = image_size,
           .in_w = image_size,
           .kernel_h = patch,
           .kernel_w = patch,
           .stride = patch,
           .pad = 0},
      seq_(geo_.col_cols()),
      dim_(dim),
      proj_(geo_.col_rows(), dim, rng, /*bias=*/true, name + ".proj"),
      pos_(Tensor::randn(Shape{seq_, dim}, rng, 0.0f, 0.02f), name + ".pos",
           /*decay=*/false) {
  CQ_CHECK_MSG(image_size % patch == 0,
               "patch " << patch << " must divide image size " << image_size);
  install_fake_quant(proj_, std::move(policy));
}

Tensor PatchEmbed::forward(const Tensor& x) {
  CQ_CHECK_MSG(x.shape().rank() == 4 && x.dim(1) == geo_.in_channels &&
                   x.dim(2) == geo_.in_h && x.dim(3) == geo_.in_w,
               "patch embed input " << x.shape().str() << " expects [N, "
                                    << geo_.in_channels << ", " << geo_.in_h
                                    << ", " << geo_.in_w << "]");
  const auto n = x.dim(0);
  const auto krows = geo_.col_rows();
  const auto sample = geo_.in_channels * geo_.in_h * geo_.in_w;
  Tensor patches = Tensor::empty(Shape{n * seq_, krows});
  for (std::int64_t i = 0; i < n; ++i)
    im2row(x.data() + i * sample, geo_, patches.data() + i * seq_ * krows);
  Tensor emb = proj_.forward(patches);  // [N*seq, dim]
  float* e = emb.data();
  const float* pos = pos_.value.data();
  for (std::int64_t row = 0; row < n * seq_; ++row) {
    const float* p = pos + (row % seq_) * dim_;
    float* dst = e + row * dim_;
    for (std::int64_t d = 0; d < dim_; ++d) dst[d] += p[d];
  }
  if (mode_ == nn::Mode::kTrain) shapes_.push_back(x.shape());
  return emb.reshape(Shape{n, seq_, dim_});
}

Tensor PatchEmbed::backward(const Tensor& grad_out) {
  CQ_CHECK_MSG(!shapes_.empty(),
               "patch embed backward without matching forward");
  Shape in_shape = std::move(shapes_.back());
  shapes_.pop_back();
  const auto n = grad_out.dim(0);
  CQ_CHECK(grad_out.shape().rank() == 3 && grad_out.dim(1) == seq_ &&
           grad_out.dim(2) == dim_);
  float* dpos = pos_.grad.data();
  const float* g = grad_out.data();
  for (std::int64_t row = 0; row < n * seq_; ++row) {
    float* p = dpos + (row % seq_) * dim_;
    const float* src = g + row * dim_;
    for (std::int64_t d = 0; d < dim_; ++d) p[d] += src[d];
  }
  Tensor gp = proj_.backward(grad_out.reshape(Shape{n * seq_, dim_}));
  const auto krows = geo_.col_rows();
  const auto sample = geo_.in_channels * geo_.in_h * geo_.in_w;
  Tensor dx = Tensor::zeros(in_shape);
  Tensor colsT = Tensor::empty(Shape{krows, seq_});
  for (std::int64_t i = 0; i < n; ++i) {
    // gp holds patch-major rows [seq, krows]; col2im wants [krows, seq].
    const float* rows = gp.data() + i * seq_ * krows;
    for (std::int64_t s = 0; s < seq_; ++s)
      for (std::int64_t r = 0; r < krows; ++r)
        colsT.data()[r * seq_ + s] = rows[s * krows + r];
    col2im(colsT.data(), geo_, dx.data() + i * sample);
  }
  return dx;
}

void PatchEmbed::collect_parameters(std::vector<nn::Parameter*>& out) {
  proj_.collect_parameters(out);
  out.push_back(&pos_);
}

void PatchEmbed::visit_children(const std::function<void(Module&)>& fn) {
  fn(proj_);
}

// ---- VitBlock --------------------------------------------------------------

VitBlock::VitBlock(std::int64_t dim, std::int64_t heads, std::int64_t mlp_dim,
                   std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
                   const std::string& name)
    : dim_(dim),
      heads_(heads),
      ln1_(dim, 1e-5f, name + ".ln1"),
      qkv_(dim, 3 * dim, rng, /*bias=*/true, name + ".qkv"),
      proj_(dim, dim, rng, /*bias=*/true, name + ".proj"),
      ln2_(dim, 1e-5f, name + ".ln2"),
      fc1_(dim, mlp_dim, rng, /*bias=*/true, name + ".fc1"),
      fc2_(mlp_dim, dim, rng, /*bias=*/true, name + ".fc2"),
      actq_(policy) {
  CQ_CHECK_MSG(dim % heads == 0,
               "heads " << heads << " must divide dim " << dim);
  install_fake_quant(qkv_, policy);
  install_fake_quant(proj_, policy);
  install_fake_quant(fc1_, policy);
  install_fake_quant(fc2_, policy);
}

Tensor VitBlock::forward(const Tensor& x) {
  CQ_CHECK_MSG(x.shape().rank() == 3 && x.dim(2) == dim_,
               "vit block input " << x.shape().str() << " expects [N, seq, "
                                  << dim_ << "]");
  const auto n = x.dim(0), seq = x.dim(1);
  const auto dh = dim_ / heads_;
  const bool train = mode_ == nn::Mode::kTrain;

  Tensor h1 = ln1_.forward(x);
  Tensor qkv = qkv_.forward(h1.reshape(Shape{n * seq, dim_}));

  Cache c;
  if (train) {
    c.qh = Tensor::empty(Shape{n, heads_, seq, dh});
    c.kh = Tensor::empty(Shape{n, heads_, seq, dh});
    c.vh = Tensor::empty(Shape{n, heads_, seq, dh});
    c.probs = Tensor::empty(Shape{n, heads_, seq, seq});
  }
  Tensor scratch = Tensor::empty(Shape{detail::attention_scratch_floats(seq)});
  Tensor attn = Tensor::empty(Shape{n * seq, dim_});
  const auto head_block = heads_ * seq * dh;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* rows = qkv.data() + i * seq * 3 * dim_;
    detail::attention_forward(
        rows, seq, dim_, heads_,
        train ? c.probs.data() + i * heads_ * seq * seq : nullptr,
        scratch.data(), attn.data() + i * seq * dim_);
    if (train)
      gather_heads(rows, seq, dim_, heads_, c.qh.data() + i * head_block,
                   c.kh.data() + i * head_block, c.vh.data() + i * head_block);
  }

  Tensor proj_out = proj_.forward(attn);
  Tensor x2 = ops::add(x, proj_out.reshape(Shape{n, seq, dim_}));

  Tensor h2 = ln2_.forward(x2);
  Tensor m = fc1_.forward(h2.reshape(Shape{n * seq, dim_}));
  m = gelu_.forward(m);
  m = fc2_.forward(m);
  Tensor y = ops::add(x2, m.reshape(Shape{n, seq, dim_}));

  if (train) cache_.push_back(std::move(c));
  return actq_.forward(y);
}

Tensor VitBlock::backward(const Tensor& grad_out) {
  CQ_CHECK_MSG(!cache_.empty(), "vit block backward without matching forward");
  Cache c = std::move(cache_.back());
  cache_.pop_back();
  const auto n = grad_out.dim(0), seq = grad_out.dim(1);
  const auto dh = dim_ / heads_;

  Tensor g = actq_.backward(grad_out);  // [N, seq, dim]

  // y = x2 + mlp(ln2(x2)): the same gradient feeds both paths.
  Tensor gm = fc2_.backward(g.reshape(Shape{n * seq, dim_}));
  gm = gelu_.backward(gm);
  gm = fc1_.backward(gm);
  Tensor gln2 = ln2_.backward(gm.reshape(Shape{n, seq, dim_}));
  Tensor gx2 = ops::add(g, gln2);

  // x2 = x + proj(attn(ln1(x))).
  Tensor gattn = proj_.backward(gx2.reshape(Shape{n * seq, dim_}));

  Tensor dqkv = Tensor::empty(Shape{n * seq, 3 * dim_});
  Tensor dctx = Tensor::empty(Shape{seq, dh});
  Tensor dP = Tensor::empty(Shape{seq, seq});
  Tensor dQ = Tensor::empty(Shape{seq, dh});
  Tensor dK = Tensor::empty(Shape{seq, dh});
  Tensor dV = Tensor::empty(Shape{seq, dh});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      const float* P = c.probs.data() + (i * heads_ + h) * seq * seq;
      const float* Q = c.qh.data() + (i * heads_ + h) * seq * dh;
      const float* K = c.kh.data() + (i * heads_ + h) * seq * dh;
      const float* V = c.vh.data() + (i * heads_ + h) * seq * dh;
      for (std::int64_t s = 0; s < seq; ++s)
        std::memcpy(dctx.data() + s * dh,
                    gattn.data() + (i * seq + s) * dim_ + h * dh,
                    dh * sizeof(float));
      // dV = P^T dctx; dP = dctx V^T.
      gemm::gemm(gemm::Trans::kTN, seq, dh, seq, P, dctx.data(), dV.data(),
                 /*accumulate=*/false);
      gemm::gemm(gemm::Trans::kNT, seq, seq, dh, dctx.data(), V, dP.data(),
                 /*accumulate=*/false);
      // Softmax backward, then the 1/sqrt(dh) scale applied before softmax.
      for (std::int64_t s = 0; s < seq; ++s) {
        float* dp = dP.data() + s * seq;
        const float* p = P + s * seq;
        double dot = 0.0;
        for (std::int64_t t = 0; t < seq; ++t)
          dot += static_cast<double>(dp[t]) * p[t];
        const float d = static_cast<float>(dot);
        for (std::int64_t t = 0; t < seq; ++t)
          dp[t] = p[t] * (dp[t] - d) * scale;
      }
      gemm::gemm(gemm::Trans::kNN, seq, dh, seq, dP.data(), K, dQ.data(),
                 /*accumulate=*/false);
      gemm::gemm(gemm::Trans::kTN, seq, dh, seq, dP.data(), Q, dK.data(),
                 /*accumulate=*/false);
      for (std::int64_t s = 0; s < seq; ++s) {
        float* row = dqkv.data() + (i * seq + s) * 3 * dim_ + h * dh;
        std::memcpy(row, dQ.data() + s * dh, dh * sizeof(float));
        std::memcpy(row + dim_, dK.data() + s * dh, dh * sizeof(float));
        std::memcpy(row + 2 * dim_, dV.data() + s * dh, dh * sizeof(float));
      }
    }
  }

  Tensor gq = qkv_.backward(dqkv);
  Tensor gln1 = ln1_.backward(gq.reshape(Shape{n, seq, dim_}));
  return ops::add(gx2, gln1);
}

void VitBlock::visit_children(const std::function<void(Module&)>& fn) {
  fn(ln1_);
  fn(qkv_);
  fn(proj_);
  fn(ln2_);
  fn(fc1_);
  fn(gelu_);
  fn(fc2_);
  fn(actq_);
}

// ---- SeqMeanPool -----------------------------------------------------------

Tensor SeqMeanPool::forward(const Tensor& x) {
  CQ_CHECK_MSG(x.shape().rank() == 3,
               "seq mean pool input " << x.shape().str()
                                      << " expects [N, seq, dim]");
  const auto n = x.dim(0), seq = x.dim(1), dim = x.dim(2);
  Tensor y = Tensor::empty(Shape{n, dim});
  for (std::int64_t i = 0; i < n; ++i)
    detail::seq_mean_forward(x.data() + i * seq * dim, seq, dim,
                             y.data() + i * dim);
  if (mode_ == nn::Mode::kTrain) seqs_.push_back(seq);
  return y;
}

Tensor SeqMeanPool::backward(const Tensor& grad_out) {
  CQ_CHECK_MSG(!seqs_.empty(),
               "seq mean pool backward without matching forward");
  const auto seq = seqs_.back();
  seqs_.pop_back();
  const auto n = grad_out.dim(0), dim = grad_out.dim(1);
  Tensor dx = Tensor::empty(Shape{n, seq, dim});
  const float inv = 1.0f / static_cast<float>(seq);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t s = 0; s < seq; ++s)
      for (std::int64_t d = 0; d < dim; ++d)
        dx.data()[(i * seq + s) * dim + d] =
            grad_out.data()[i * dim + d] * inv;
  return dx;
}

// ---- builder ---------------------------------------------------------------

VitConfig vit_tiny_config() { return {}; }

std::unique_ptr<nn::Sequential> build_vit(
    const VitConfig& config,
    std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
    std::int64_t* feature_dim_out) {
  CQ_CHECK(config.dim > 0 && config.depth > 0 && config.heads > 0);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<PatchEmbed>(config.in_channels, config.image_size, config.patch,
                           config.dim, policy, rng, "patch");
  for (std::int64_t b = 0; b < config.depth; ++b)
    net->emplace<VitBlock>(config.dim, config.heads,
                           config.dim * config.mlp_ratio, policy, rng,
                           "blk" + std::to_string(b));
  net->emplace<nn::LayerNorm>(config.dim, 1e-5f, "ln_f");
  net->emplace<SeqMeanPool>();
  if (feature_dim_out != nullptr) *feature_dim_out = config.dim;
  return net;
}

}  // namespace cq::models
