// int8 GEMM micro-kernels. Like tensor/gemm.cpp this TU is compiled with
// -march=native -ffp-contract=off (see src/CMakeLists.txt): the packing and
// epilogue float math must not be contracted to FMA, and the integer core
// wants the widest SIMD available. Under CQ_FORCE_SCALAR the default
// namespace collapses onto the portable loops — bit-identical results, per
// the determinism contract in igemm.hpp.
//
// There is no KC/NC cache blocking here on purpose: serving-shape operands
// are 4x smaller than fp32 (int8 vs float), the whole packed A is prepacked
// once at network-compile time, and the full-k register accumulation is what
// guarantees "no intermediate rounding" without an int32 C scratch. A B
// sliver is kNR * padded_k bytes — L1/L2-resident for every shape the
// deploy path produces (k <= kMaxK keeps even the worst case ~0.5 MB).
#include "tensor/kernels/igemm.hpp"

#include <algorithm>
#include <cmath>

#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"

#if !defined(CQ_FORCE_SCALAR) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define CQ_IGEMM_VNNI 1
#include <immintrin.h>
#else
#define CQ_IGEMM_VNNI 0
#endif

namespace cq::igemm {
namespace {

constexpr std::int64_t MR = kMR;
constexpr std::int64_t NR = kNR;
constexpr std::int64_t KU = kKU;

// ---------------------------------------------------------------------------
// Portable implementations. These ARE igemm::scalar, and also the default
// backend when the build has no VNNI.
// ---------------------------------------------------------------------------

// One shared quantize formula (igemm.hpp documents it); the VNNI pack path
// below reproduces it lane-for-lane with max/min/cvtps, which share x86's
// NaN-takes-the-second-operand and round-half-even semantics.
std::int32_t quantize_impl(float v, float inv_scale) {
  float t = v * inv_scale;
  t = t > -127.0f ? t : -127.0f;  // NaN compares false -> clamps to -127
  t = t < 127.0f ? t : 127.0f;
  return static_cast<std::int32_t>(std::nearbyintf(t));
}

// Pack B slivers [sv0, sv1) (sliver sv covers columns [sv*NR, sv*NR+NR)).
// Each sliver writes a disjoint kp*NR byte region, so ranges split across
// pool workers bitwise-identically to the serial full-range call.
void pack_b_scalar(const float* b, std::int64_t rs, std::int64_t cs,
                   std::int64_t k, std::int64_t n, const float* col_inv_scale,
                   std::uint8_t* bp, std::int64_t sv0, std::int64_t sv1) {
  const std::int64_t kp = padded_k(k);
  for (std::int64_t sv = sv0; sv < sv1; ++sv) {
    const std::int64_t jr = sv * NR;
    const std::int64_t nr = std::min(NR, n - jr);
    std::uint8_t* sliver = bp + sv * (kp * NR);
    // Byte slot for (k-index p, sliver column j): quad-grouped per
    // igemm.hpp — (p / KU) * (NR * KU) + j * KU + p % KU.
    if (cs == 1) {
      // Row-major source (im2col output): k-outer order reads each source
      // row once, contiguously.
      for (std::int64_t p = 0; p < kp; ++p) {
        const float* src = p < k ? b + p * rs + jr : b;  // pad rows unread
        std::uint8_t* dst = sliver + (p / KU) * (NR * KU) + p % KU;
        for (std::int64_t j = 0; j < NR; ++j) {
          const bool live = j < nr && p < k;
          const std::int32_t q =
              live ? quantize_impl(src[j], col_inv_scale[jr + j]) : 0;
          dst[j * KU] = static_cast<std::uint8_t>(q + 128);
        }
      }
    } else {
      // Column-strided source (linear layer reading x[n, k] transposed):
      // each logical column is a contiguous source row, so walk j-outer.
      // Same bytes into the same slots as the k-outer order above.
      for (std::int64_t j = 0; j < NR; ++j) {
        const float* src = j < nr ? b + (jr + j) * cs : b;  // pad cols unread
        const float inv = j < nr ? col_inv_scale[jr + j] : 0.0f;
        for (std::int64_t p = 0; p < kp; ++p) {
          const std::int32_t q =
              (j < nr && p < k) ? quantize_impl(src[p * rs], inv) : 0;
          sliver[(p / KU) * (NR * KU) + j * KU + p % KU] =
              static_cast<std::uint8_t>(q + 128);
        }
      }
    }
  }
}

// Column geometry of one fused-conv sliver. Lane j (column jr + j) reads
// its (c, kh, kw) = (0, 0, 0) tap at source offset base[j], whose image
// coordinates are (iy0[j], ix0[j]); tap (c, kh, kw) adds c*in_h*in_w +
// kh*in_w + kw and is a padding tap unless 0 <= iy0+kh < in_h and
// 0 <= ix0+kw < in_w. Lanes [nr, NR) are dead (past the last column).
struct ConvCols {
  std::int64_t base[NR] = {}, iy0[NR] = {}, ix0[NR] = {};
  std::int64_t nr = 0;
};

ConvCols conv_cols(const ConvGeometry& g, std::int64_t sample_stride,
                   std::int64_t ncols, std::int64_t jr) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  ConvCols cc;
  cc.nr = std::min(NR, ncols - jr);
  std::int64_t img = jr / (oh * ow), y = (jr % (oh * ow)) / ow, x = jr % ow;
  for (std::int64_t j = 0; j < cc.nr; ++j) {
    cc.iy0[j] = y * g.stride - g.pad;
    cc.ix0[j] = x * g.stride - g.pad;
    cc.base[j] = img * sample_stride + cc.iy0[j] * g.in_w + cc.ix0[j];
    if (++x == ow) {
      x = 0;
      if (++y == oh) y = 0, ++img;
    }
  }
  return cc;
}

// Fused conv pack over slivers [sv0, sv1): im2col's zero fill and
// pack_b_scalar's quantize, per element, in pack_b_scalar's byte order.
void pack_b_conv_scalar(const float* images, std::int64_t sample_stride,
                        const ConvGeometry& g, std::int64_t ncols,
                        const float* col_inv_scale, std::uint8_t* bp,
                        std::int64_t sv0, std::int64_t sv1) {
  const std::int64_t k = g.col_rows(), kp = padded_k(k);
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  for (std::int64_t sv = sv0; sv < sv1; ++sv) {
    const std::int64_t jr = sv * NR;
    const ConvCols cc = conv_cols(g, sample_stride, ncols, jr);
    std::uint8_t* sliver = bp + sv * (kp * NR);
    for (std::int64_t p = 0; p < kp; ++p) {
      const std::int64_t c = p / taps, kh = (p % taps) / g.kernel_w,
                         kw = p % g.kernel_w;
      const std::int64_t row_off = c * g.in_h * g.in_w + kh * g.in_w + kw;
      std::uint8_t* dst = sliver + (p / KU) * (NR * KU) + p % KU;
      for (std::int64_t j = 0; j < NR; ++j) {
        const bool live = j < cc.nr && p < k;
        const bool tap = live &&
                         static_cast<std::uint64_t>(cc.iy0[j] + kh) <
                             static_cast<std::uint64_t>(g.in_h) &&
                         static_cast<std::uint64_t>(cc.ix0[j] + kw) <
                             static_cast<std::uint64_t>(g.in_w);
        const float v = tap ? images[cc.base[j] + row_off] : 0.0f;
        const float inv = live ? col_inv_scale[jr + j] : 0.0f;
        dst[j * KU] = static_cast<std::uint8_t>(quantize_impl(v, inv) + 128);
      }
    }
  }
}

// Per-tile write-back shared by both portable paths: fold the offset
// correction and scales exactly as documented in igemm.hpp. `acc` holds the
// raw u8*s8 sums for tile rows [ir, ir+mr) x columns [jr, jr+nr).
void write_back_scalar(const std::int32_t acc[MR][NR], std::int64_t ir,
                       std::int64_t jr, std::int64_t mr, std::int64_t nr,
                       const std::int32_t* rowsum, float* c, std::int64_t ldc,
                       const Epilogue& ep) {
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + (ir + i) * ldc + jr;
    const float rscale = ep.row_scale[ir + i];
    const float bias = ep.bias != nullptr ? ep.bias[ir + i] : 0.0f;
    for (std::int64_t j = 0; j < nr; ++j) {
      const std::int32_t off =
          128 + (ep.col_zp != nullptr ? ep.col_zp[jr + j] : 0);
      const std::int32_t eff = acc[i][j] - off * rowsum[ir + i];
      crow[j] = detail::epilogue_value(eff, rscale, ep.col_scale[jr + j], bias);
    }
  }
}

// Compute output tiles [t0, t1) of the flat jr-major tile grid (tile t is
// jr strip t / nir, ir strip t % nir, nir = ceil(m / MR)). Each tile owns
// its full-k accumulator and a disjoint C region, so any partition of the
// grid produces bitwise-identical output.
void gemm_scalar_tiles(std::int64_t m, std::int64_t n, std::int64_t k,
                       const std::int8_t* ap, const std::int32_t* rowsum,
                       const std::uint8_t* bp, float* c, std::int64_t ldc,
                       const Epilogue& ep, std::int64_t t0, std::int64_t t1) {
  const std::int64_t kp = padded_k(k);
  const std::int64_t k4 = kp / KU;
  const std::int64_t nir = (m + MR - 1) / MR;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int64_t jr = (t / nir) * NR;
    const std::int64_t ir = (t % nir) * MR;
    const std::int64_t nr = std::min(NR, n - jr);
    const std::int64_t mr = std::min(MR, m - ir);
    const std::uint8_t* bpp = bp + (jr / NR) * (kp * NR);
    const std::int8_t* app = ap + (ir / MR) * (kp * MR);
    std::int32_t acc[MR][NR] = {};
    for (std::int64_t p = 0; p < k4; ++p) {
      const std::int8_t* aq = app + p * MR * KU;
      const std::uint8_t* bq = bpp + p * NR * KU;
      for (std::int64_t i = 0; i < MR; ++i) {
        for (std::int64_t u = 0; u < KU; ++u) {
          const std::int32_t av = aq[i * KU + u];
          if (av == 0) continue;  // zero A bytes (incl. all pads) are inert
          const std::uint8_t* bu = bq + u;
          for (std::int64_t j = 0; j < NR; ++j)
            acc[i][j] += av * static_cast<std::int32_t>(bu[j * KU]);
        }
      }
    }
    write_back_scalar(acc, ir, jr, mr, nr, rowsum, c, ldc, ep);
  }
}

void gemm_scalar(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* ap, const std::int32_t* rowsum,
                 const std::uint8_t* bp, float* c, std::int64_t ldc,
                 const Epilogue& ep) {
  const std::int64_t ntiles = ((n + NR - 1) / NR) * ((m + MR - 1) / MR);
  gemm_scalar_tiles(m, n, k, ap, rowsum, bp, c, ldc, ep, 0, ntiles);
}

// ---------------------------------------------------------------------------
// AVX-512 VNNI backend.
// ---------------------------------------------------------------------------
#if CQ_IGEMM_VNNI

// Quantize 16 lanes to offset-binary int32 ([1, 255]) with quantize_impl's
// formula, lane for lane.
inline __m512i quantize_vec(__m512 v, __m512 inv) {
  __m512 t = _mm512_mul_ps(v, inv);
  t = _mm512_max_ps(t, _mm512_set1_ps(-127.0f));  // NaN -> -127, like scalar
  t = _mm512_min_ps(t, _mm512_set1_ps(127.0f));
  return _mm512_add_epi32(_mm512_cvtps_epi32(t), _mm512_set1_epi32(128));
}

// Quantize one 16-wide row slice. Masked-off lanes read v = 0 with inv = 0
// and produce the pad byte 128 — identical to what pack_b_scalar writes, so
// packed buffers match bitwise.
inline __m512i quantize_row(const float* src, __mmask16 mask, __m512 inv) {
  return quantize_vec(_mm512_maskz_loadu_ps(mask, src), inv);
}

inline __mmask16 lane_mask(std::int64_t nr) {
  return nr == NR ? static_cast<__mmask16>(0xFFFF)
                  : static_cast<__mmask16>((1u << nr) - 1u);
}

// Largest kernel (kernel_h * kernel_w taps) the VNNI conv pack keeps
// per-sliver tap masks for; larger kernels take the scalar walk.
constexpr std::int64_t kMaxTaps = 256;

// Fused conv pack, VNNI form of pack_b_conv_scalar. Each k-row of a sliver
// is one 16-lane load of taps: a masked contiguous load when the sliver's
// live columns read consecutive source floats (stride 1 with out_w == in_w,
// or a sliver inside one output row), else a masked gather. Masked-off
// lanes (padding taps, dead columns) read 0.0f, and dead lanes and k-pad
// rows quantize with inv = 0, so the bytes equal pack_b_vnni's on im2col's
// output. Requires kernel taps <= kMaxTaps and int32 source offsets.
void pack_b_conv_vnni(const float* images, std::int64_t sample_stride,
                      const ConvGeometry& g, std::int64_t ncols,
                      const float* col_inv_scale, std::uint8_t* bp,
                      std::int64_t sv0, std::int64_t sv1) {
  const std::int64_t k = g.col_rows(), kp = padded_k(k);
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t plane = g.in_h * g.in_w;
  const __m512i hv = _mm512_set1_epi32(static_cast<std::int32_t>(g.in_h));
  const __m512i wv = _mm512_set1_epi32(static_cast<std::int32_t>(g.in_w));
  const __m512 zero = _mm512_setzero_ps();
  const __m512i dead = quantize_vec(zero, zero);
  // Row p = c * taps + t reads source offset base + c * plane + tap_off[t].
  std::int32_t tap_off[kMaxTaps];
  for (std::int64_t t = 0; t < taps; ++t)
    tap_off[t] = static_cast<std::int32_t>((t / g.kernel_w) * g.in_w +
                                           t % g.kernel_w);
  for (std::int64_t sv = sv0; sv < sv1; ++sv) {
    const ConvCols cc = conv_cols(g, sample_stride, ncols, sv * NR);
    alignas(64) std::int32_t base[NR], iy0[NR], ix0[NR];
    bool contiguous = true;
    for (std::int64_t j = 0; j < NR; ++j) {
      base[j] = static_cast<std::int32_t>(cc.base[j]);
      iy0[j] = static_cast<std::int32_t>(cc.iy0[j]);
      ix0[j] = static_cast<std::int32_t>(cc.ix0[j]);
      if (j < cc.nr) contiguous &= cc.base[j] == cc.base[0] + j;
    }
    const __m512i basev = _mm512_load_si512(base);
    const __m512i iy0v = _mm512_load_si512(iy0);
    const __m512i ix0v = _mm512_load_si512(ix0);
    const __mmask16 live = lane_mask(cc.nr);
    const __m512 inv = _mm512_maskz_loadu_ps(live, col_inv_scale + sv * NR);
    // Lanes whose tap t is inside the image — the same for every channel.
    // Unsigned compares: a negative coordinate wraps high, so one test
    // covers both edges.
    __mmask16 tap_ok[kMaxTaps];
    for (std::int64_t t = 0; t < taps; ++t) {
      const __m512i iy = _mm512_add_epi32(
          iy0v, _mm512_set1_epi32(static_cast<std::int32_t>(t / g.kernel_w)));
      const __m512i ix = _mm512_add_epi32(
          ix0v, _mm512_set1_epi32(static_cast<std::int32_t>(t % g.kernel_w)));
      tap_ok[t] = live & _mm512_cmplt_epu32_mask(iy, hv) &
                  _mm512_cmplt_epu32_mask(ix, wv);
    }
    // Rows stream in (c, t) order.
    std::int64_t t = 0, chan = 0, p = 0;
    auto next_row = [&]() -> __m512i {
      if (p++ >= k) return dead;  // k pad
      const auto off = static_cast<std::int32_t>(chan + tap_off[t]);
      const __m512 v =
          contiguous
              ? _mm512_maskz_loadu_ps(tap_ok[t], images + base[0] + off)
              : _mm512_mask_i32gather_ps(
                    zero, tap_ok[t],
                    _mm512_add_epi32(basev, _mm512_set1_epi32(off)), images,
                    4);
      if (++t == taps) t = 0, chan += plane;
      return quantize_vec(v, inv);
    };
    std::uint8_t* dst = bp + sv * (kp * NR);
    for (std::int64_t q = 0; q < kp; q += KU, dst += NR * KU) {
      // Four k-rows -> one 64-byte quad block. Each offset-binary value
      // fits in 8 bits, so shift-and-or assembles the bytes exactly.
      const __m512i r0 = next_row(), r1 = next_row(), r2 = next_row(),
                    r3 = next_row();
      const __m512i lo = _mm512_or_si512(r0, _mm512_slli_epi32(r1, 8));
      const __m512i hi = _mm512_or_si512(_mm512_slli_epi32(r2, 16),
                                         _mm512_slli_epi32(r3, 24));
      _mm512_storeu_si512(dst, _mm512_or_si512(lo, hi));
    }
  }
}

void pack_b_vnni(const float* b, std::int64_t rs, std::int64_t cs,
                 std::int64_t k, std::int64_t n, const float* col_inv_scale,
                 std::uint8_t* bp, std::int64_t sv0, std::int64_t sv1) {
  if (cs != 1) {  // strided gather: the scalar walk is already column-local
    pack_b_scalar(b, rs, cs, k, n, col_inv_scale, bp, sv0, sv1);
    return;
  }
  const std::int64_t kp = padded_k(k);
  const __m512i zero128 = _mm512_set1_epi32(128);
  for (std::int64_t sv = sv0; sv < sv1; ++sv) {
    const std::int64_t jr = sv * NR;
    const std::int64_t nr = std::min(NR, n - jr);
    const __mmask16 mask =
        nr == NR ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << nr) - 1u);
    const __m512 inv = _mm512_maskz_loadu_ps(mask, col_inv_scale + jr);
    std::uint8_t* sliver = bp + sv * (kp * NR);
    for (std::int64_t p = 0; p < kp; p += KU) {
      // Four k-rows -> one 64-byte quad block. Each offset-binary value
      // fits in 8 bits, so shift-and-or assembles the bytes exactly.
      __m512i q[KU];
      for (std::int64_t u = 0; u < KU; ++u)
        q[u] = p + u < k ? quantize_row(b + (p + u) * rs + jr, mask, inv)
                         : zero128;  // k pad: the offset-binary zero byte
      const __m512i lo =
          _mm512_or_si512(q[0], _mm512_slli_epi32(q[1], 8));
      const __m512i hi =
          _mm512_or_si512(_mm512_slli_epi32(q[2], 16),
                          _mm512_slli_epi32(q[3], 24));
      _mm512_storeu_si512(sliver + (p / KU) * (NR * KU),
                          _mm512_or_si512(lo, hi));
    }
  }
}

// Tile-range form mirroring gemm_scalar_tiles: same flat jr-major grid,
// per-tile register accumulation, disjoint C writes.
void gemm_vnni_tiles(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* ap, const std::int32_t* rowsum,
                     const std::uint8_t* bp, float* c, std::int64_t ldc,
                     const Epilogue& ep, std::int64_t t0, std::int64_t t1) {
  const std::int64_t kp = padded_k(k);
  const std::int64_t k4 = kp / KU;
  const std::int64_t nir = (m + MR - 1) / MR;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int64_t jr = (t / nir) * NR;
    const std::int64_t ir = (t % nir) * MR;
    const std::int64_t nr = std::min(NR, n - jr);
    {
      const __mmask16 mask =
          nr == NR ? static_cast<__mmask16>(0xFFFF)
                   : static_cast<__mmask16>((1u << nr) - 1u);
      const std::uint8_t* bpp = bp + (jr / NR) * (kp * NR);
      // Per-column epilogue operands for this tile. Masked-off lanes are
      // zero; they are never stored.
      const __m512i zpv =
          ep.col_zp != nullptr
              ? _mm512_maskz_loadu_epi32(mask, ep.col_zp + jr)
              : _mm512_setzero_si512();
      const __m512i offv = _mm512_add_epi32(zpv, _mm512_set1_epi32(128));
      const __m512 csv = _mm512_maskz_loadu_ps(mask, ep.col_scale + jr);
      const std::int64_t mr = std::min(MR, m - ir);
      const std::int8_t* app = ap + (ir / MR) * (kp * MR);
      __m512i acc[MR] = {};
      for (std::int64_t p = 0; p < k4; ++p) {
        // One zmm of B (16 columns x 4 k-values) against a broadcast dword
        // (4 k-values of one A row): vpdpbusd accumulates the u8*s8 quad
        // products straight into the int32 lanes.
        const __m512i bv = _mm512_loadu_si512(bpp + p * NR * KU);
        const std::int8_t* aq = app + p * MR * KU;
        for (std::int64_t i = 0; i < MR; ++i) {
          std::int32_t adw;
          __builtin_memcpy(&adw, aq + i * KU, sizeof(adw));
          acc[i] = _mm512_dpbusd_epi32(acc[i], bv, _mm512_set1_epi32(adw));
        }
      }
      for (std::int64_t i = 0; i < mr; ++i) {
        // eff = acc - (128 + zp_j) * rowsum_i, then the two-step float fold
        // (mul, add — explicit intrinsics, never contracted) matching
        // detail::epilogue_value lane-for-lane.
        const __m512i corr =
            _mm512_mullo_epi32(offv, _mm512_set1_epi32(rowsum[ir + i]));
        const __m512i eff = _mm512_sub_epi32(acc[i], corr);
        const __m512 sv =
            _mm512_mul_ps(_mm512_set1_ps(ep.row_scale[ir + i]), csv);
        const __m512 out = _mm512_add_ps(
            _mm512_mul_ps(_mm512_cvtepi32_ps(eff), sv),
            _mm512_set1_ps(ep.bias != nullptr ? ep.bias[ir + i] : 0.0f));
        _mm512_mask_storeu_ps(c + (ir + i) * ldc + jr, mask, out);
      }
    }
  }
}

void gemm_vnni(std::int64_t m, std::int64_t n, std::int64_t k,
               const std::int8_t* ap, const std::int32_t* rowsum,
               const std::uint8_t* bp, float* c, std::int64_t ldc,
               const Epilogue& ep) {
  const std::int64_t ntiles = ((n + NR - 1) / NR) * ((m + MR - 1) / MR);
  gemm_vnni_tiles(m, n, k, ap, rowsum, bp, c, ldc, ep, 0, ntiles);
}

#endif  // CQ_IGEMM_VNNI

}  // namespace

const char* backend() {
#if CQ_IGEMM_VNNI
  return "avx512-vnni";
#else
  return "scalar";
#endif
}

void pack_a_s8(const std::int8_t* a, std::int64_t m, std::int64_t k,
               std::int8_t* ap, std::int32_t* rowsum) {
  CQ_TRACE_SCOPE_HOT_BYTES("igemm.pack_a", m * k);
  const std::int64_t kp = padded_k(k);
  for (std::int64_t ir = 0; ir < m; ir += MR) {
    const std::int64_t mr = std::min(MR, m - ir);
    std::int8_t* sliver = ap + (ir / MR) * (kp * MR);
    for (std::int64_t i = 0; i < MR; ++i) {
      const std::int8_t* src = a + (ir + i) * k;
      std::int32_t sum = 0;
      for (std::int64_t p = 0; p < kp; ++p) {
        const std::int8_t v = (i < mr && p < k) ? src[p] : std::int8_t{0};
        sliver[(p / KU) * (MR * KU) + i * KU + (p % KU)] = v;
        sum += v;
      }
      if (i < mr) rowsum[ir + i] = sum;
    }
  }
}

void pack_b_quantized(const float* b, std::int64_t rs, std::int64_t cs,
                      std::int64_t k, std::int64_t n,
                      const float* col_inv_scale, std::uint8_t* bp) {
  CQ_TRACE_SCOPE_HOT_BYTES("igemm.pack_b", k * n * sizeof(float));
  const std::int64_t nsv = (n + NR - 1) / NR;
  auto range = [&](std::int64_t sv0, std::int64_t sv1) {
#if CQ_IGEMM_VNNI
    pack_b_vnni(b, rs, cs, k, n, col_inv_scale, bp, sv0, sv1);
#else
    pack_b_scalar(b, rs, cs, k, n, col_inv_scale, bp, sv0, sv1);
#endif
  };
  // Quantize-on-pack is arithmetic-dense enough to split; small packs run
  // inline (same bytes either way — slivers are partition-independent).
  if (core::ThreadPool::instance().size() > 1 && k * n >= 1 << 16)
    core::parallel_for(nsv, 1, range);
  else
    range(0, nsv);
}

void pack_b_conv_quantized(const float* images, std::int64_t n,
                           std::int64_t sample_stride, const ConvGeometry& g,
                           const float* col_inv_scale, std::uint8_t* bp) {
  const std::int64_t k = g.col_rows(), ncols = n * g.col_cols();
  CQ_TRACE_SCOPE_HOT_BYTES("igemm.pack_b_conv", k * ncols * sizeof(float));
  const std::int64_t nsv = (ncols + NR - 1) / NR;
#if CQ_IGEMM_VNNI
  // Gather indices are int32 lanes; tap masks live in a fixed array.
  const bool vnni = g.kernel_h * g.kernel_w <= kMaxTaps &&
                    n * sample_stride + g.in_channels * g.in_h * g.in_w <
                        (std::int64_t{1} << 31);
#endif
  auto range = [&](std::int64_t sv0, std::int64_t sv1) {
#if CQ_IGEMM_VNNI
    if (vnni) {
      pack_b_conv_vnni(images, sample_stride, g, ncols, col_inv_scale, bp,
                       sv0, sv1);
      return;
    }
#endif
    pack_b_conv_scalar(images, sample_stride, g, ncols, col_inv_scale, bp,
                       sv0, sv1);
  };
  // Same split bar as pack_b_quantized; slivers are partition-independent.
  if (core::ThreadPool::instance().size() > 1 && k * ncols >= 1 << 16)
    core::parallel_for(nsv, 1, range);
  else
    range(0, nsv);
}

void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          const std::int8_t* ap, const std::int32_t* rowsum,
          const std::uint8_t* bp, float* c, std::int64_t ldc,
          const Epilogue& ep) {
  if (m <= 0 || n <= 0) return;
  CQ_TRACE_SCOPE_BYTES("igemm", m * k + k * n + m * n * sizeof(float));
  CQ_CHECK(k >= 0 && k <= kMaxK);
  CQ_CHECK(ldc >= n);
  CQ_CHECK(ep.row_scale != nullptr && ep.col_scale != nullptr);
  const std::int64_t ntiles = ((n + NR - 1) / NR) * ((m + MR - 1) / MR);
  auto tiles = [&](std::int64_t t0, std::int64_t t1) {
#if CQ_IGEMM_VNNI
    gemm_vnni_tiles(m, n, k, ap, rowsum, bp, c, ldc, ep, t0, t1);
#else
    gemm_scalar_tiles(m, n, k, ap, rowsum, bp, c, ldc, ep, t0, t1);
#endif
  };
  // Same bar as the fp32 path: ~2 MFLOP of MAC work before fan-out pays.
  if (core::ThreadPool::instance().size() > 1 && 2 * m * n * k >= 2'000'000)
    core::parallel_for(ntiles, 1, tiles);
  else
    tiles(0, ntiles);
}

namespace detail {

float epilogue_value(std::int32_t eff, float row_scale, float col_scale,
                     float bias) {
  // Exactly two float roundings after the one int->float conversion:
  // (1) the folded scale product, (2) the multiply; the add is the third.
  // This TU builds with -ffp-contract=off, so mul+add never fuses — the
  // sequence is what the VNNI epilogue performs per lane with explicit
  // mul_ps/add_ps intrinsics.
  return static_cast<float>(eff) * (row_scale * col_scale) + bias;
}

std::int32_t quantize_value(float v, float inv_scale) {
  return quantize_impl(v, inv_scale);
}

}  // namespace detail

namespace scalar {

void pack_b_quantized(const float* b, std::int64_t rs, std::int64_t cs,
                      std::int64_t k, std::int64_t n,
                      const float* col_inv_scale, std::uint8_t* bp) {
  pack_b_scalar(b, rs, cs, k, n, col_inv_scale, bp, 0, (n + NR - 1) / NR);
}

void pack_b_conv_quantized(const float* images, std::int64_t n,
                           std::int64_t sample_stride, const ConvGeometry& g,
                           const float* col_inv_scale, std::uint8_t* bp) {
  const std::int64_t ncols = n * g.col_cols();
  pack_b_conv_scalar(images, sample_stride, g, ncols, col_inv_scale, bp, 0,
                     (ncols + NR - 1) / NR);
}

void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          const std::int8_t* ap, const std::int32_t* rowsum,
          const std::uint8_t* bp, float* c, std::int64_t ldc,
          const Epilogue& ep) {
  if (m <= 0 || n <= 0) return;
  CQ_CHECK(k >= 0 && k <= kMaxK);
  CQ_CHECK(ldc >= n);
  CQ_CHECK(ep.row_scale != nullptr && ep.col_scale != nullptr);
  gemm_scalar(m, n, k, ap, rowsum, bp, c, ldc, ep);
}

}  // namespace scalar
}  // namespace cq::igemm
