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

/// Strided variant: writes row r of the column matrix at
/// cols[r * col_stride .. r * col_stride + col_cols). With
/// col_stride > col_cols this lowers one image into a slice of a wider
/// batched column matrix [col_rows, batch * col_cols] — the serving engine
/// lowers every image of a dynamic batch side by side and runs ONE GEMM over
/// all of them, amortizing the weight-packing pass across the batch.
/// Requires col_stride >= col_cols.
void im2col(const float* image, const ConvGeometry& g, float* cols,
            std::int64_t col_stride);

/// Batched lowering: lowers `n` images (spaced `sample_stride` floats
/// apart) side by side into a [col_rows, n * col_cols] column matrix with
/// row stride `col_stride` (>= n * col_cols); image i owns columns
/// [i * col_cols, (i+1) * col_cols). Bit-identical to n strided im2col
/// calls, but the per-row source-range geometry (several integer divisions
/// per patch row) is computed once and reused for every image — on
/// thumbnail inputs that bookkeeping rivals the copies themselves, which is
/// exactly the regime the serving engine's dynamic batches live in.
void im2col_batched(const float* images, std::int64_t n,
                    std::int64_t sample_stride, const ConvGeometry& g,
                    float* cols, std::int64_t col_stride);

/// Patch-major lowering (im2row): the TRANSPOSE of the im2col matrix,
/// shape [col_cols, col_rows] — one contiguous (c, kh, kw)-ordered patch
/// per output pixel, matching the weight row layout. Paired with
/// gemm::Trans::kNT this is interchangeable with im2col + kNN: the blocked
/// GEMM shares one micro-kernel and k-panel order across transpose
/// variants, so the two lowerings give bit-identical outputs.
/// Worth it when out_h*out_w is small (deep stages on
/// thumbnail inputs): the row-major walk then degenerates into
/// per-element bookkeeping, while patch writes stay contiguous.
void im2row(const float* image, const ConvGeometry& g, float* rows);

/// Scatter-add a column matrix back into a CHW image gradient.
/// `image_grad` must be zero-initialized by the caller (or hold an existing
/// gradient to accumulate into).
void col2im(const float* cols, const ConvGeometry& g, float* image_grad);

}  // namespace cq
