// ViT-style transformer encoder — the third backbone family.
//
// Patchify is a strided im2row + Linear (one GEMM), attention is one
// kernels::attention_head call per head, and the MLP is two
// Linears around kernels::gelu. Every Linear carries the encoder's
// FakeQuantWeight transform and every block ends in ActQuant, so the shared
// QuantPolicy quantizes the whole backbone exactly like the conv families
// (paper Eq. 4) — and the graph compiler lowers the same Linears onto the
// int8 VNNI path for serving.
//
// Activations flow as [N, seq, dim]; blocks reshape to [N*seq, dim] around
// the token-wise Linears (zero-copy, the GEMM just sees more rows).
#pragma once

#include <memory>

#include "nn/activations.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "quant/actquant.hpp"
#include "quant/policy.hpp"
#include "tensor/im2col.hpp"

namespace cq::models {

namespace detail {

/// Scratch floats attention_forward needs without `probs`: one head's
/// [seq, seq] attention map.
std::int64_t attention_scratch_floats(std::int64_t seq);

/// Mean over the sequence axis for ONE sample: x [seq, dim] -> out [dim],
/// fixed-order float accumulation. Shared by SeqMeanPool and the graph
/// executor (compiled == eager bitwise).
void seq_mean_forward(const float* x, std::int64_t seq, std::int64_t dim,
                      float* out);

/// Multi-head self-attention over ONE sample's fused-QKV activations.
/// `qkv` is [seq, 3*dim] with each row laid out [q(dim) | k(dim) | v(dim)];
/// head h owns columns [h*dh, (h+1)*dh) of each third (dh = dim/heads).
/// Each head is one kernels::attention_head call, softmax(Q K^T / sqrt(dh))
/// V read in place from the fused rows, written into its columns of out
/// [seq, dim]. When `probs` is non-null it receives the attention maps
/// ([heads, seq, seq]) for the backward pass; otherwise each head's map
/// lives in `scratch` (attention_scratch_floats(seq) floats). Shared by the
/// eager module and the graph executor, so compiled == eager bitwise.
void attention_forward(const float* qkv, std::int64_t seq, std::int64_t dim,
                       std::int64_t heads, float* probs, float* scratch,
                       float* out);

}  // namespace detail

/// Patchify: strided im2row (kernel = stride = patch, pad 0) feeding a
/// Linear [dim, C*patch*patch], then learned positional embeddings.
/// [N, C, H, W] -> [N, seq, dim] with seq = (H/patch)*(W/patch).
class PatchEmbed : public nn::Module {
 public:
  PatchEmbed(std::int64_t in_channels, std::int64_t image_size,
             std::int64_t patch, std::int64_t dim,
             std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
             const std::string& name);

  const char* type_name() const override { return "PatchEmbed"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;
  void visit_children(const std::function<void(Module&)>& fn) override;
  std::size_t pending_caches() const override { return shapes_.size(); }

  const ConvGeometry& geometry() const { return geo_; }
  std::int64_t seq() const { return seq_; }
  std::int64_t dim() const { return dim_; }
  nn::Linear& proj() { return proj_; }
  nn::Parameter& pos() { return pos_; }

 protected:
  void on_clear_cache() override { shapes_.clear(); }

 private:
  ConvGeometry geo_;
  std::int64_t seq_;
  std::int64_t dim_;
  nn::Linear proj_;
  nn::Parameter pos_;  // [seq, dim]
  std::vector<Shape> shapes_;
};

/// One pre-LN transformer block:
///   x  + proj(attn(ln1(x)))  ->  x2;  x2 + fc2(gelu(fc1(ln2(x2))))
/// followed by ActQuant. qkv is one fused Linear [3*dim, dim].
class VitBlock : public nn::Module {
 public:
  VitBlock(std::int64_t dim, std::int64_t heads, std::int64_t mlp_dim,
           std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
           const std::string& name);

  const char* type_name() const override { return "VitBlock"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void visit_children(const std::function<void(Module&)>& fn) override;
  std::size_t pending_caches() const override { return cache_.size(); }

  std::int64_t dim() const { return dim_; }
  std::int64_t heads() const { return heads_; }
  nn::LayerNorm& ln1() { return ln1_; }
  nn::Linear& qkv() { return qkv_; }
  nn::Linear& proj() { return proj_; }
  nn::LayerNorm& ln2() { return ln2_; }
  nn::Linear& fc1() { return fc1_; }
  nn::Linear& fc2() { return fc2_; }

 protected:
  void on_clear_cache() override { cache_.clear(); }

 private:
  struct Cache {
    Tensor qh, kh, vh;  // [N, heads, seq, dh]
    Tensor probs;       // [N, heads, seq, seq]
  };

  std::int64_t dim_;
  std::int64_t heads_;
  nn::LayerNorm ln1_;
  nn::Linear qkv_;
  nn::Linear proj_;
  nn::LayerNorm ln2_;
  nn::Linear fc1_;
  nn::GELU gelu_;
  nn::Linear fc2_;
  quant::ActQuant actq_;
  std::vector<Cache> cache_;
};

/// Mean over the sequence axis: [N, seq, dim] -> [N, dim].
class SeqMeanPool : public nn::Module {
 public:
  const char* type_name() const override { return "SeqMeanPool"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::size_t pending_caches() const override { return seqs_.size(); }

 protected:
  void on_clear_cache() override { seqs_.clear(); }

 private:
  std::vector<std::int64_t> seqs_;
};

struct VitConfig {
  std::int64_t image_size = 16;  // square inputs
  std::int64_t in_channels = 3;
  std::int64_t patch = 4;        // seq = (image_size / patch)^2
  std::int64_t dim = 32;
  std::int64_t depth = 2;
  std::int64_t heads = 4;
  std::int64_t mlp_ratio = 2;
};

/// The thumbnail-scale default, sized for the 16x16 SynthVision images the
/// conv families train on: seq 16, dim 32, 2 blocks, 4 heads.
VitConfig vit_tiny_config();

/// Builds [N, C, H, W] -> [N, dim]: PatchEmbed, `depth` VitBlocks, a final
/// LayerNorm, and SeqMeanPool. Writes `dim` to feature_dim_out.
std::unique_ptr<nn::Sequential> build_vit(
    const VitConfig& config,
    std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
    std::int64_t* feature_dim_out);

}  // namespace cq::models
