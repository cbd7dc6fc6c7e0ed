#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "core/trace.hpp"

namespace cq {

void im2col(const float* image, const ConvGeometry& g, float* cols) {
  im2col(image, g, cols, g.col_cols());
}

void im2col(const float* image, const ConvGeometry& g, float* cols,
            std::int64_t col_stride) {
  const auto oh = g.out_h(), ow = g.out_w();
  CQ_TRACE_SCOPE_BYTES("im2col", g.col_rows() * oh * ow * sizeof(float));
  CQ_DCHECK(col_stride >= oh * ow);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* chan = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out_row = cols + row * col_stride;
        // The x positions with an in-bounds source pixel form one contiguous
        // run: 0 <= x*stride + kw - pad < in_w. Hoisting that range out of
        // the pixel loop turns the interior into a straight copy (memcpy for
        // stride 1) framed by zero fills — im2col is the hottest pre-GEMM
        // pass, and the per-element bounds test defeats vectorization.
        const std::int64_t off = kw - g.pad;
        std::int64_t x0 = off < 0 ? (-off + g.stride - 1) / g.stride : 0;
        std::int64_t x1 =  // inclusive; negative when the whole row is pad
            off < g.in_w ? (g.in_w - 1 - off) / g.stride : -1;
        x0 = std::min(x0, ow);
        x1 = std::min(x1, ow - 1);
        // Same hoist for y: rows outside [y0, y1] read only padding.
        const std::int64_t yoff = kh - g.pad;
        std::int64_t y0 = yoff < 0 ? (-yoff + g.stride - 1) / g.stride : 0;
        std::int64_t y1 = yoff < g.in_h ? (g.in_h - 1 - yoff) / g.stride : -1;
        y0 = std::min(y0, oh);
        y1 = std::min(y1, oh - 1);
        std::fill(out_row, out_row + y0 * ow, 0.0f);
        std::fill(out_row + (y1 + 1) * ow, out_row + oh * ow, 0.0f);
        if (g.stride == 1 && ow == g.in_w && y1 >= y0 && x1 >= x0) {
          // Width-preserving stride-1 conv: consecutive y rows advance both
          // source and destination by exactly `ow`, so the whole valid
          // region [y0..y1] x [x0..x1] is ONE contiguous copy (it also
          // overwrites the pad columns in between with stale neighbours —
          // the per-row edge fills below fix those up).
          std::memcpy(out_row + y0 * ow + x0,
                      chan + (y0 + yoff) * g.in_w + off + x0,
                      static_cast<std::size_t>((y1 - y0) * ow + x1 - x0 + 1) *
                          sizeof(float));
          for (std::int64_t y = y0; y <= y1; ++y) {
            float* dst = out_row + y * ow;
            for (std::int64_t x = 0; x < x0; ++x) dst[x] = 0.0f;
            for (std::int64_t x = x1 + 1; x < ow; ++x) dst[x] = 0.0f;
          }
          continue;
        }
        for (std::int64_t y = y0; y <= y1; ++y) {
          const std::int64_t iy = y * g.stride + yoff;
          float* dst = out_row + y * ow;
          const float* src = chan + iy * g.in_w + off;
          std::fill(dst, dst + x0, 0.0f);
          if (g.stride == 1) {
            if (x1 >= x0)
              std::memcpy(dst + x0, src + x0,
                          static_cast<std::size_t>(x1 - x0 + 1) *
                              sizeof(float));
          } else {
            for (std::int64_t x = x0; x <= x1; ++x) dst[x] = src[x * g.stride];
          }
          if (x1 + 1 < ow) std::fill(dst + x1 + 1, dst + ow, 0.0f);
        }
      }
    }
  }
}

void im2col_batched(const float* images, std::int64_t n,
                    std::int64_t sample_stride, const ConvGeometry& g,
                    float* cols, std::int64_t col_stride) {
  const auto oh = g.out_h(), ow = g.out_w();
  const auto spatial = oh * ow;
  CQ_TRACE_SCOPE_BYTES("im2col",
                       g.col_rows() * n * spatial * sizeof(float));
  CQ_DCHECK(col_stride >= n * spatial);
  // Patch row `row` (one (c, kh, kw) triple) writes only cols[row *
  // col_stride ...).
  const std::int64_t kk = g.kernel_h * g.kernel_w;
  for (std::int64_t row = 0; row < g.col_rows(); ++row) {
    const std::int64_t c = row / kk;
    const std::int64_t kh = (row % kk) / g.kernel_w;
    const std::int64_t kw = row % g.kernel_w;
    const std::int64_t chan_off = c * g.in_h * g.in_w;
    // Identical range hoist to the strided single-image overload above
    // (same copy/fill structure, so the bytes match bit for bit) —
    // computed once per patch row here instead of once per (row, image).
    const std::int64_t off = kw - g.pad;
    std::int64_t x0 = off < 0 ? (-off + g.stride - 1) / g.stride : 0;
    std::int64_t x1 = off < g.in_w ? (g.in_w - 1 - off) / g.stride : -1;
    x0 = std::min(x0, ow);
    x1 = std::min(x1, ow - 1);
    const std::int64_t yoff = kh - g.pad;
    std::int64_t y0 = yoff < 0 ? (-yoff + g.stride - 1) / g.stride : 0;
    std::int64_t y1 = yoff < g.in_h ? (g.in_h - 1 - yoff) / g.stride : -1;
    y0 = std::min(y0, oh);
    y1 = std::min(y1, oh - 1);
    const bool contiguous =
        g.stride == 1 && ow == g.in_w && y1 >= y0 && x1 >= x0;
    for (std::int64_t img = 0; img < n; ++img) {
      const float* chan = images + img * sample_stride + chan_off;
      float* out_row = cols + row * col_stride + img * spatial;
      std::fill(out_row, out_row + y0 * ow, 0.0f);
      std::fill(out_row + (y1 + 1) * ow, out_row + oh * ow, 0.0f);
      if (contiguous) {
        std::memcpy(out_row + y0 * ow + x0,
                    chan + (y0 + yoff) * g.in_w + off + x0,
                    static_cast<std::size_t>((y1 - y0) * ow + x1 - x0 + 1) *
                        sizeof(float));
        for (std::int64_t y = y0; y <= y1; ++y) {
          float* dst = out_row + y * ow;
          for (std::int64_t x = 0; x < x0; ++x) dst[x] = 0.0f;
          for (std::int64_t x = x1 + 1; x < ow; ++x) dst[x] = 0.0f;
        }
        continue;
      }
      for (std::int64_t y = y0; y <= y1; ++y) {
        const std::int64_t iy = y * g.stride + yoff;
        float* dst = out_row + y * ow;
        const float* src = chan + iy * g.in_w + off;
        std::fill(dst, dst + x0, 0.0f);
        if (g.stride == 1) {
          if (x1 >= x0)
            std::memcpy(dst + x0, src + x0,
                        static_cast<std::size_t>(x1 - x0 + 1) * sizeof(float));
        } else {
          for (std::int64_t x = x0; x <= x1; ++x) dst[x] = src[x * g.stride];
        }
        if (x1 + 1 < ow) std::fill(dst + x1 + 1, dst + ow, 0.0f);
      }
    }
  }
}

void im2row(const float* image, const ConvGeometry& g, float* rows) {
  const auto oh = g.out_h(), ow = g.out_w();
  CQ_TRACE_SCOPE_BYTES("im2row", g.col_rows() * oh * ow * sizeof(float));
  float* dst = rows;
  for (std::int64_t y = 0; y < oh; ++y) {
    for (std::int64_t x = 0; x < ow; ++x) {
      // The kw positions reading an in-bounds pixel form one contiguous run
      // (ix = x*stride - pad + kw steps by 1 in kw), so each (c, kh) slice
      // of the patch is a zero-framed memcpy regardless of stride.
      const std::int64_t ix0 = x * g.stride - g.pad;
      const std::int64_t kw0 = std::max<std::int64_t>(0, -ix0);
      const std::int64_t kw1 =
          std::min<std::int64_t>(g.kernel_w - 1, g.in_w - 1 - ix0);
      for (std::int64_t c = 0; c < g.in_channels; ++c) {
        const float* chan = image + c * g.in_h * g.in_w;
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh, dst += g.kernel_w) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          // Hand loops, not memcpy/fill: spans here are kernel_w floats
          // (typically 3), where libc call overhead dwarfs the copy.
          if (iy < 0 || iy >= g.in_h || kw1 < kw0) {
            for (std::int64_t i = 0; i < g.kernel_w; ++i) dst[i] = 0.0f;
            continue;
          }
          const float* src = chan + iy * g.in_w + ix0;
          for (std::int64_t i = 0; i < kw0; ++i) dst[i] = 0.0f;
          for (std::int64_t i = kw0; i <= kw1; ++i) dst[i] = src[i];
          for (std::int64_t i = kw1 + 1; i < g.kernel_w; ++i) dst[i] = 0.0f;
        }
      }
    }
  }
}

void col2im(const float* cols, const ConvGeometry& g, float* image_grad) {
  const auto oh = g.out_h(), ow = g.out_w();
  CQ_TRACE_SCOPE_BYTES("col2im", g.col_rows() * oh * ow * sizeof(float));
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* chan = image_grad + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in_row = cols + row * oh * ow;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* out_row = chan + iy * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kw - g.pad;
            if (ix >= 0 && ix < g.in_w) out_row[ix] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace cq
