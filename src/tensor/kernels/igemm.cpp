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
#include <atomic>
#include <bit>
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

// Quantize images [i0, i1) of one conv group into the channel-quad layout
// documented at quantize_conv_input. Channels past `channels` take the
// image's pad byte, quantize(0.0f, inv) + 128.
void quantize_act_scalar(const float* x, std::int64_t n,
                         std::int64_t sample_stride, std::int64_t channels,
                         std::int64_t hw, const float* img_inv,
                         std::uint8_t* q, std::uint8_t* pad, std::int64_t i0,
                         std::int64_t i1) {
  const std::int64_t cq4 = (channels + KU - 1) / KU;
  for (std::int64_t img = i0; img < i1; ++img) {
    const float inv = img_inv[img];
    auto byte = [inv](float v) {
      return static_cast<std::uint8_t>(quantize_impl(v, inv) + 128);
    };
    pad[img] = byte(0.0f);
    const float* src = x + img * sample_stride;
    for (std::int64_t cq = 0; cq < cq4; ++cq) {
      std::uint8_t* dst = q + (cq * n + img) * hw * KU;
      for (std::int64_t ci = 0; ci < KU; ++ci) {
        const std::int64_t c = cq * KU + ci;
        for (std::int64_t s = 0; s < hw; ++s)
          dst[s * KU + ci] = c < channels ? byte(src[c * hw + s]) : pad[img];
      }
    }
  }
}

// Output-pixel walk over the columns of a channel-quad conv pack. A range
// of slivers divides once for its first column, then steps lane by lane.
struct ConvWalk {
  std::int64_t oh, ow, img = 0, y = 0, x = 0;
  ConvWalk(const ConvGeometry& g, std::int64_t col)
      : oh(g.out_h()), ow(g.out_w()) {
    img = col / (oh * ow);
    y = (col % (oh * ow)) / ow;
    x = col % ow;
  }
  void next() {
    if (++x == ow) {
      x = 0;
      if (++y == oh) y = 0, ++img;
    }
  }
};

// Channel-quad conv pack over slivers [sv0, sv1): quad block (t, cq) of
// column j is the 4 bytes of channel quad cq at the column's tap-t pixel,
// the image's pad byte in all 4 lanes for a tap outside the image, and
// 0x80 for a dead column.
void pack_b_c4_scalar(const std::uint8_t* q, const std::uint8_t* pad,
                      std::int64_t n, const ConvGeometry& g, std::uint8_t* bp,
                      std::int64_t sv0, std::int64_t sv1) {
  const std::int64_t kp = conv_k(g), ncols = n * g.col_cols();
  const std::int64_t cq4 = (g.in_channels + KU - 1) / KU;
  const std::int64_t plane = g.in_h * g.in_w;
  ConvWalk walk(g, sv0 * NR);
  for (std::int64_t sv = sv0; sv < sv1; ++sv) {
    std::int64_t img[NR], iy0[NR], ix0[NR];
    const std::int64_t nr = std::min(NR, ncols - sv * NR);
    for (std::int64_t j = 0; j < nr; ++j, walk.next()) {
      img[j] = walk.img;
      iy0[j] = walk.y * g.stride - g.pad;
      ix0[j] = walk.x * g.stride - g.pad;
    }
    std::uint8_t* block = bp + sv * (kp * NR);
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        for (std::int64_t cq = 0; cq < cq4; ++cq, block += NR * KU) {
          for (std::int64_t j = 0; j < NR; ++j) {
            std::uint8_t* dst = block + j * KU;
            if (j >= nr) {
              std::fill(dst, dst + KU, std::uint8_t{0x80});
              continue;
            }
            const std::int64_t iy = iy0[j] + kh, ix = ix0[j] + kw;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
              std::fill(dst, dst + KU, pad[img[j]]);
              continue;
            }
            const std::uint8_t* src =
                q + ((cq * n + img[j]) * plane + iy * g.in_w + ix) * KU;
            std::copy(src, src + KU, dst);
          }
        }
      }
    }
  }
}

// Where tile columns [jr, jr + nr) land (Epilogue addressing): lane j of
// matrix row i is element off[j] + i * ldc of c, in image img[j]. Returns
// true when every lane sits in one image (the common case); then only
// off[0] and img[0] are set, and lane j is element off[0] + j.
bool tile_lanes(const Epilogue& ep, std::int64_t n, std::int64_t jr,
                std::int64_t nr, std::int64_t off[NR], std::int64_t img[NR]) {
  const std::int64_t px = ep.pixels > 0 ? ep.pixels : n;
  std::int64_t im = jr / px, s = jr - im * px;
  off[0] = im * ep.image_stride + s;
  img[0] = im;
  if (s + nr <= px) return true;
  for (std::int64_t j = 0; j < nr; ++j) {
    img[j] = im;
    off[j] = im * ep.image_stride + s;
    if (++s == px) s = 0, ++im;
  }
  return false;
}

// a + b under x86's NaN rule, made explicit: a NaN `a` comes back quieted
// whatever `b` is. A plain `a + b` leaves the operand order, and so which
// payload survives NaN + NaN, to the compiler (it treats + as commutative).
inline float add_first(float a, float b) {
  if (a != a)
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) | 0x400000u);
  return a + b;
}

// kernels::relu / relu_cap on one value (their scalar-tail form).
inline float activate(float v, const Epilogue& ep) {
  if (ep.act == Act::kNone) return v;
  v = v > 0.0f ? v : 0.0f;
  if (ep.act == Act::kReluCap) v = v < ep.cap ? v : ep.cap;
  return v;
}

// Running per-image max of one tile range (Epilogue::absmax). Tiles run
// jr-major, so a range meets an image in one stretch, or a few where
// slivers cross images; each stretch raises the image's shared slot once,
// with an atomic max. Activated values are >= +0 and NaN-free, so the slot
// ends at the exact maximum whatever order ranges publish in.
struct ImageMax {
  float* slots = nullptr;  // null: the epilogue publishes nothing
  std::int64_t img = -1;
  float max = 0.0f;

  void add(std::int64_t im, float v) {
    if (im != img) {
      publish();
      img = im;
      max = 0.0f;
    }
    max = std::max(max, v);
  }
  // Call once the range's last tile is written.
  void publish() const {
    if (slots == nullptr || img < 0) return;
    std::atomic_ref<float> ref(slots[img]);
    float cur = ref.load(std::memory_order_relaxed);
    while (cur < max &&
           !ref.compare_exchange_weak(cur, max, std::memory_order_relaxed)) {
    }
  }
};

// Per-tile write-back shared by both portable paths: fold the offset
// correction and scales, then residual and activation, exactly as documented
// in igemm.hpp. `acc` holds the raw u8*s8 sums for tile rows [ir, ir+mr) x
// columns [jr, jr+nr).
void write_back_scalar(const std::int32_t acc[MR][NR], std::int64_t ir,
                       std::int64_t jr, std::int64_t mr, std::int64_t nr,
                       std::int64_t n, const std::int32_t* rowsum, float* c,
                       std::int64_t ldc, const Epilogue& ep, ImageMax& maxes) {
  std::int64_t off[NR], img[NR];
  if (tile_lanes(ep, n, jr, nr, off, img))
    for (std::int64_t j = 1; j < nr; ++j) off[j] = off[0] + j, img[j] = img[0];
  float colmax[NR] = {};
  for (std::int64_t i = 0; i < mr; ++i) {
    const float rscale = ep.row_scale[ir + i];
    const float bias = ep.bias != nullptr ? ep.bias[ir + i] : 0.0f;
    for (std::int64_t j = 0; j < nr; ++j) {
      const std::int32_t zp = ep.col_zp != nullptr ? ep.col_zp[jr + j] : 0;
      const std::int32_t eff = acc[i][j] - (128 + zp) * rowsum[ir + i];
      float v = detail::epilogue_value(eff, rscale, ep.col_scale[jr + j], bias);
      const std::int64_t at = off[j] + (ir + i) * ldc;
      if (ep.residual != nullptr) {
        const float r = ep.residual[at];
        v = ep.residual_first ? add_first(r, v) : add_first(v, r);
      }
      v = activate(v, ep);
      c[at] = v;
      colmax[j] = std::max(colmax[j], v);
    }
  }
  if (ep.absmax != nullptr)
    for (std::int64_t j = 0; j < nr; ++j) maxes.add(img[j], colmax[j]);
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
  ImageMax maxes{ep.absmax};
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
    write_back_scalar(acc, ir, jr, mr, nr, n, rowsum, c, ldc, ep, maxes);
  }
  maxes.publish();
}

void gemm_scalar(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* ap, const std::int32_t* rowsum,
                 const std::uint8_t* bp, float* c, std::int64_t ldc,
                 const Epilogue& ep) {
  const std::int64_t ntiles = ((n + NR - 1) / NR) * ((m + MR - 1) / MR);
  gemm_scalar_tiles(m, n, k, ap, rowsum, bp, c, ldc, ep, 0, ntiles);
}

void check_gemm_args(std::int64_t n, std::int64_t k, std::int64_t ldc,
                     const Epilogue& ep) {
  CQ_CHECK(k >= 0 && k <= kMaxK);
  CQ_CHECK(ep.row_scale != nullptr && ep.col_scale != nullptr);
  CQ_CHECK(ep.absmax == nullptr || ep.act != Act::kNone);
  if (ep.pixels == 0) {
    CQ_CHECK(ldc >= n);
    return;
  }
  CQ_CHECK(ep.pixels > 0 && ldc >= ep.pixels);
  // A sliver spans at most NR + 1 images; its lane offsets are int32.
  CQ_CHECK(ep.image_stride >= 0 &&
           (NR + 1) * ep.image_stride < (std::int64_t{1} << 31));
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

// add_first, lane for lane.
inline __m512 add_first(__m512 a, __m512 b) {
  const __mmask16 nan = _mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q);
  const __m512 quiet = _mm512_castsi512_ps(_mm512_or_si512(
      _mm512_castps_si512(a), _mm512_set1_epi32(0x400000)));
  return _mm512_mask_mov_ps(_mm512_add_ps(a, b), nan, quiet);
}

inline __mmask16 lane_mask(std::int64_t nr) {
  return nr == NR ? static_cast<__mmask16>(0xFFFF)
                  : static_cast<__mmask16>((1u << nr) - 1u);
}

// VNNI form of quantize_act_scalar: four 16-pixel channel rows quantize
// with quantize_vec and interleave into 16 channel-quad dwords. Channels
// past `channels` take quantize_vec(0, inv), the pad byte.
void quantize_act_vnni(const float* x, std::int64_t n,
                       std::int64_t sample_stride, std::int64_t channels,
                       std::int64_t hw, const float* img_inv, std::uint8_t* q,
                       std::uint8_t* pad, std::int64_t i0, std::int64_t i1) {
  const std::int64_t cq4 = (channels + KU - 1) / KU;
  for (std::int64_t img = i0; img < i1; ++img) {
    const __m512 inv = _mm512_set1_ps(img_inv[img]);
    const __m512i padv = quantize_vec(_mm512_setzero_ps(), inv);
    pad[img] =
        static_cast<std::uint8_t>(quantize_impl(0.0f, img_inv[img]) + 128);
    const float* src = x + img * sample_stride;
    for (std::int64_t cq = 0; cq < cq4; ++cq) {
      std::uint8_t* dst = q + (cq * n + img) * hw * KU;
      for (std::int64_t s = 0; s < hw; s += NR) {
        const __mmask16 mask = lane_mask(std::min(NR, hw - s));
        __m512i r[KU];
        for (std::int64_t ci = 0; ci < KU; ++ci) {
          const std::int64_t c = cq * KU + ci;
          r[ci] = c < channels ? quantize_row(src + c * hw + s, mask, inv)
                               : padv;
        }
        // Each offset-binary value fits in 8 bits, so shift-and-or
        // assembles the channel bytes of each pixel exactly.
        const __m512i lo = _mm512_or_si512(r[0], _mm512_slli_epi32(r[1], 8));
        const __m512i hi = _mm512_or_si512(_mm512_slli_epi32(r[2], 16),
                                           _mm512_slli_epi32(r[3], 24));
        _mm512_mask_storeu_epi32(dst + s * KU, mask, _mm512_or_si512(lo, hi));
      }
    }
  }
}

// VNNI form of pack_b_c4_scalar: every quad block is 16 dwords of the
// channel-quad bytes. A sliver whose live columns read consecutive pixels
// (one output row at stride 1, or whole rows when out_w == in_w) copies
// each block with one masked 64-byte load; any other sliver gathers its
// dwords. Masked-off lanes keep the lane's fill dword: the image's pad
// bytes, or 0x80808080 for a dead column. Requires int32 dword indices.
void pack_b_c4_vnni(const std::uint8_t* q, const std::uint8_t* pad,
                    std::int64_t n, const ConvGeometry& g, std::uint8_t* bp,
                    std::int64_t sv0, std::int64_t sv1) {
  const std::int64_t kp = conv_k(g), ncols = n * g.col_cols();
  const std::int64_t cq4 = (g.in_channels + KU - 1) / KU;
  const std::int64_t plane = g.in_h * g.in_w;
  const auto* q32 = reinterpret_cast<const std::int32_t*>(q);
  const __m512i hv = _mm512_set1_epi32(static_cast<std::int32_t>(g.in_h));
  const __m512i wv = _mm512_set1_epi32(static_cast<std::int32_t>(g.in_w));
  ConvWalk walk(g, sv0 * NR);
  for (std::int64_t sv = sv0; sv < sv1; ++sv) {
    alignas(64) std::int32_t base[NR], iy0[NR], ix0[NR], fill[NR];
    const std::int64_t nr = std::min(NR, ncols - sv * NR);
    bool contiguous = true;
    for (std::int64_t j = 0; j < NR; ++j) {
      if (j >= nr) {
        base[j] = iy0[j] = ix0[j] = 0;
        fill[j] = static_cast<std::int32_t>(0x80808080u);
        continue;
      }
      iy0[j] = static_cast<std::int32_t>(walk.y * g.stride - g.pad);
      ix0[j] = static_cast<std::int32_t>(walk.x * g.stride - g.pad);
      base[j] = static_cast<std::int32_t>(walk.img * plane +
                                          iy0[j] * g.in_w + ix0[j]);
      fill[j] = static_cast<std::int32_t>(pad[walk.img] * 0x01010101u);
      contiguous &= base[j] == base[0] + j;
      walk.next();
    }
    const __m512i basev = _mm512_load_si512(base);
    const __m512i iy0v = _mm512_load_si512(iy0);
    const __m512i ix0v = _mm512_load_si512(ix0);
    const __m512i fillv = _mm512_load_si512(fill);
    const __mmask16 live = lane_mask(nr);
    std::uint8_t* block = bp + sv * (kp * NR);
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const __m512i iy = _mm512_add_epi32(
          iy0v, _mm512_set1_epi32(static_cast<std::int32_t>(kh)));
      // Unsigned compares: a negative coordinate wraps high, so one test
      // covers both edges.
      const __mmask16 row_ok = live & _mm512_cmplt_epu32_mask(iy, hv);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const __m512i ix = _mm512_add_epi32(
            ix0v, _mm512_set1_epi32(static_cast<std::int32_t>(kw)));
        const __mmask16 ok = row_ok & _mm512_cmplt_epu32_mask(ix, wv);
        const auto tap_off = static_cast<std::int32_t>(kh * g.in_w + kw);
        for (std::int64_t cq = 0; cq < cq4; ++cq, block += NR * KU) {
          const auto off = static_cast<std::int32_t>(cq * n * plane) + tap_off;
          const __m512i idx = _mm512_add_epi32(basev, _mm512_set1_epi32(off));
          const __m512i v =
              contiguous
                  ? _mm512_mask_loadu_epi32(fillv, ok, q32 + base[0] + off)
                  : _mm512_mask_i32gather_epi32(fillv, ok, idx, q32, 4);
          _mm512_storeu_si512(block, v);
        }
      }
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
  ImageMax maxes{ep.absmax};
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
      // Output lanes: one masked row store when the tile sits in one image,
      // else a scatter through per-lane offsets (an image boundary inside
      // the sliver, e.g. outputs of 2x2 or 3x3 pixels).
      std::int64_t off[NR], img[NR];
      const bool one_image = tile_lanes(ep, n, jr, nr, off, img);
      __m512i relv = _mm512_setzero_si512();
      if (!one_image) {
        alignas(64) std::int32_t rel[NR] = {};
        for (std::int64_t j = 0; j < nr; ++j)
          rel[j] = static_cast<std::int32_t>(off[j] - off[0]);
        relv = _mm512_load_si512(rel);
      }
      const __m512 zero = _mm512_setzero_ps();
      __m512 colmax = zero;
      for (std::int64_t i = 0; i < mr; ++i) {
        // eff = acc - (128 + zp_j) * rowsum_i, then the two-step float fold
        // (mul, add — explicit intrinsics, never contracted) matching
        // detail::epilogue_value lane-for-lane; residual and activation as
        // write_back_scalar orders them.
        const __m512i corr =
            _mm512_mullo_epi32(offv, _mm512_set1_epi32(rowsum[ir + i]));
        const __m512i eff = _mm512_sub_epi32(acc[i], corr);
        const __m512 sv =
            _mm512_mul_ps(_mm512_set1_ps(ep.row_scale[ir + i]), csv);
        __m512 out = _mm512_add_ps(
            _mm512_mul_ps(_mm512_cvtepi32_ps(eff), sv),
            _mm512_set1_ps(ep.bias != nullptr ? ep.bias[ir + i] : 0.0f));
        const std::int64_t row = off[0] + (ir + i) * ldc;
        if (ep.residual != nullptr) {
          const float* src = ep.residual + row;
          const __m512 r =
              one_image ? _mm512_maskz_loadu_ps(mask, src)
                        : _mm512_mask_i32gather_ps(zero, mask, relv, src, 4);
          out = ep.residual_first ? add_first(r, out) : add_first(out, r);
        }
        if (ep.act != Act::kNone) {
          out = _mm512_max_ps(out, zero);  // NaN -> 0, like kernels::relu
          if (ep.act == Act::kReluCap)
            out = _mm512_min_ps(out, _mm512_set1_ps(ep.cap));
        }
        if (one_image)
          _mm512_mask_storeu_ps(c + row, mask, out);
        else
          _mm512_mask_i32scatter_ps(c + row, mask, relv, out, 4);
        colmax = _mm512_max_ps(colmax, out);
      }
      if (ep.absmax != nullptr && one_image) {
        maxes.add(img[0], _mm512_mask_reduce_max_ps(mask, colmax));
      } else if (ep.absmax != nullptr) {
        for (std::int64_t j = 0; j < nr;) {
          const std::int64_t im = img[j];
          __mmask16 lanes = 0;
          for (; j < nr && img[j] == im; ++j)
            lanes |= static_cast<__mmask16>(1u << j);
          maxes.add(im, _mm512_mask_reduce_max_ps(lanes, colmax));
        }
      }
    }
  }
  maxes.publish();
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

std::int64_t conv_k(const ConvGeometry& g) {
  return g.kernel_h * g.kernel_w * round_up(g.in_channels, KU);
}

void reorder_conv_weights(const std::int8_t* w, std::int64_t m,
                          const ConvGeometry& g, std::int8_t* out) {
  const std::int64_t taps = g.kernel_h * g.kernel_w, k = g.col_rows();
  const std::int64_t kq = conv_k(g), c4 = kq / taps;
  std::fill(out, out + m * kq, std::int8_t{0});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t c = 0; c < g.in_channels; ++c)
      for (std::int64_t t = 0; t < taps; ++t)
        out[i * kq + t * c4 + c] = w[i * k + c * taps + t];
}

void quantize_conv_input(const float* x, std::int64_t n,
                         std::int64_t sample_stride, std::int64_t channels,
                         std::int64_t hw, const float* img_inv,
                         std::uint8_t* q, std::uint8_t* pad) {
  CQ_TRACE_SCOPE_HOT_BYTES("igemm.quantize_act",
                           n * channels * hw * sizeof(float));
  auto range = [&](std::int64_t i0, std::int64_t i1) {
#if CQ_IGEMM_VNNI
    quantize_act_vnni(x, n, sample_stride, channels, hw, img_inv, q, pad, i0,
                      i1);
#else
    quantize_act_scalar(x, n, sample_stride, channels, hw, img_inv, q, pad,
                        i0, i1);
#endif
  };
  // Images write disjoint bytes, so any split matches the serial call.
  if (core::ThreadPool::instance().size() > 1 && n * channels * hw >= 1 << 16)
    core::parallel_for(n, 1, range);
  else
    range(0, n);
}

void pack_b_conv_c4(const std::uint8_t* q, const std::uint8_t* pad,
                    std::int64_t n, const ConvGeometry& g, std::uint8_t* bp) {
  const std::int64_t k = conv_k(g), ncols = n * g.col_cols();
  CQ_TRACE_SCOPE_HOT_BYTES("igemm.pack_b_conv", k * ncols);
  const std::int64_t nsv = (ncols + NR - 1) / NR;
#if CQ_IGEMM_VNNI
  // Every dword index a lane forms lies in [-pad * (in_w + 1),
  // (cq4 * n + 1) * plane + pad * (in_w + 1)); gathers take int32 lanes.
  const std::int64_t cq4 = (g.in_channels + KU - 1) / KU;
  const bool vnni = (cq4 * n + 1) * g.in_h * g.in_w + g.pad * (g.in_w + 1) <
                    (std::int64_t{1} << 31);
#endif
  auto range = [&](std::int64_t sv0, std::int64_t sv1) {
#if CQ_IGEMM_VNNI
    if (vnni) {
      pack_b_c4_vnni(q, pad, n, g, bp, sv0, sv1);
      return;
    }
#endif
    pack_b_c4_scalar(q, pad, n, g, bp, sv0, sv1);
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
  check_gemm_args(n, k, ldc, ep);
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

void quantize_conv_input(const float* x, std::int64_t n,
                         std::int64_t sample_stride, std::int64_t channels,
                         std::int64_t hw, const float* img_inv,
                         std::uint8_t* q, std::uint8_t* pad) {
  quantize_act_scalar(x, n, sample_stride, channels, hw, img_inv, q, pad, 0, n);
}

void pack_b_conv_c4(const std::uint8_t* q, const std::uint8_t* pad,
                    std::int64_t n, const ConvGeometry& g, std::uint8_t* bp) {
  pack_b_c4_scalar(q, pad, n, g, bp, 0, (n * g.col_cols() + NR - 1) / NR);
}

void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          const std::int8_t* ap, const std::int32_t* rowsum,
          const std::uint8_t* bp, float* c, std::int64_t ldc,
          const Epilogue& ep) {
  if (m <= 0 || n <= 0) return;
  check_gemm_args(n, k, ldc, ep);
  gemm_scalar(m, n, k, ap, rowsum, bp, c, ldc, ep);
}

}  // namespace scalar
}  // namespace cq::igemm
