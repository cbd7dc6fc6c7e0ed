// im2col / col2im lowering for convolution.
//
// Layout convention: the column matrix for one image has shape
// [C_in * KH * KW, OH * OW]; conv forward is then a single matmul with the
// [C_out, C_in*KH*KW] weight matrix.
#pragma once

#include "tensor/tensor.hpp"

namespace cq {

struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0, in_w = 0;
  std::int64_t kernel_h = 0, kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  std::int64_t col_rows() const { return in_channels * kernel_h * kernel_w; }
  std::int64_t col_cols() const { return out_h() * out_w(); }
};

/// Lower one CHW image into its column matrix [col_rows, col_cols].
/// `image` must be the contiguous CHW block (C*H*W floats).
void im2col(const float* image, const ConvGeometry& g, float* cols);

/// Batched lowering: lowers `n` images (spaced `sample_stride` floats
/// apart) side by side into a [col_rows, n * col_cols] column matrix with
/// row stride `col_stride` (>= n * col_cols); image i owns columns
/// [i * col_cols, (i+1) * col_cols), bit-identical to im2col of that image.
/// The per-row source-range geometry is computed once for every image. No
/// library path lowers a batch side by side (convs run one image at a time,
/// nn::detail::conv2d_forward); the int8 conv tests build their reference
/// columns with it.
void im2col_batched(const float* images, std::int64_t n,
                    std::int64_t sample_stride, const ConvGeometry& g,
                    float* cols, std::int64_t col_stride);

/// Patch-major lowering (im2row): the TRANSPOSE of the im2col matrix,
/// shape [col_cols, col_rows] — one contiguous (c, kh, kw)-ordered patch
/// per output pixel, matching the weight row layout, so each patch is one
/// GEMM row. The ViT patch embedding (eager models::ViT and the compiled
/// kPatchEmbed node) lowers its strided patchify this way; convs use im2col.
void im2row(const float* image, const ConvGeometry& g, float* rows);

/// Scatter-add a column matrix back into a CHW image gradient.
/// `image_grad` must be zero-initialized by the caller (or hold an existing
/// gradient to accumulate into).
void col2im(const float* cols, const ConvGeometry& g, float* image_grad);

}  // namespace cq
