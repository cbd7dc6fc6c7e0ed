// True int8 GEMM micro-kernel family: the integer-arithmetic compute path
// behind the graph compiler's int8 plans (DESIGN.md §12).
//
// Shapes follow the deployment orientation everywhere: A is the STATIC
// operand (per-output-channel int8 weights, [m, k] row-major, packed once at
// network-compile time), B is the DYNAMIC operand (fp32 activations,
// quantized to int8 *as they are packed* — the int8 analogue of the fp32
// path's quantize-on-pack; a conv's input is instead quantized once per
// image by quantize_conv_input and lowered by pack_b_conv_c4, which only
// moves bytes). C is written back in fp32 by an
// epilogue that folds the per-output-channel weight scales, the per-column
// (= per-sample) activation scales and the activation zero points into the
// int32 accumulators at register write-back. A conv's epilogue also writes
// NCHW directly, adds a residual, applies ReLU/ReLU6 and publishes each
// image's max for the next conv's activation scale (Epilogue below).
//
// Register tile: kMR x kNR int32 accumulators over k grouped in kKU=4
// quads — the AVX-512 VNNI shape (`vpdpbusd` consumes one u8x4·s8x4 quad per
// int32 lane). B is stored offset-binary (u8 = q + 128) so the unsigned
// operand requirement of vpdpbusd is met for arbitrary-sign activations; the
// epilogue subtracts (128 + zero_point[j]) * rowsum_a[i], computed from the
// A row sums collected during packing, which makes the offset (and any
// per-column zero point) exact — integer arithmetic has no rounding, so
//   acc - (128 + zp_j) * rowsum_i  ==  sum_k a[i,k] * (q[k,j] - zp_j)
// bit-for-bit.
//
// DETERMINISM CONTRACT (mirrors kernels.hpp): igemm::* is the compile-time
// detected backend (AVX-512 VNNI when the build machine has it), and
// igemm::scalar::* is a portable plain-loop twin that is ALWAYS built. The
// integer accumulation is exact in any order, and the float epilogue steps
// (scale multiply and bias add — never contracted to fma; this TU builds
// with -ffp-contract=off — then the residual add and the clamp) are
// specified per element, so the two backends are
// BIT-IDENTICAL — asserted by tests/test_int8_gemm.cpp. A scalar-only build
// (-DCQ_SCALAR_KERNELS=ON) reproduces the VNNI build's serving outputs
// exactly, and a batch-N forward equals N batch-1 forwards bitwise (the
// property the serving engine's dynamic batcher relies on).
#pragma once

#include <cstdint>

#include "tensor/gemm.hpp"

namespace cq {
struct ConvGeometry;  // tensor/im2col.hpp
}

namespace cq::igemm {

/// Register tile and k-grouping. kKU is the number of k values fused into
/// one accumulator step (the vpdpbusd quad); packed buffers pad k up to a
/// multiple of kKU with zeros (zero A bytes contribute nothing).
inline constexpr std::int64_t kMR = 8;
inline constexpr std::int64_t kNR = 16;
inline constexpr std::int64_t kKU = 4;

/// Largest supported k. Bounds every int32 intermediate:
/// |acc| <= k * 255 * 128 and |correction| <= k * 255 * 128, so their
/// difference stays inside int32 for k <= 30000 (checked by gemm()).
inline constexpr std::int64_t kMaxK = 30000;

/// Name of the compiled-in default backend: "avx512-vnni" or "scalar".
const char* backend();

inline std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}
/// k padded to a whole number of kKU quads.
inline std::int64_t padded_k(std::int64_t k) { return round_up(k, kKU); }
/// Bytes of packed-A storage for an [m, k] operand (MR-row slivers,
/// zero-padded short edges).
inline std::int64_t packed_a_bytes(std::int64_t m, std::int64_t k) {
  return round_up(m, kMR) * padded_k(k);
}
/// Bytes of packed-B storage for a [k, n] operand (NR-column slivers).
inline std::int64_t packed_b_bytes(std::int64_t k, std::int64_t n) {
  return round_up(n, kNR) * padded_k(k);
}

/// Pack a signed-int8 A [m, k] (row-major) into MR-row slivers with k
/// grouped in kKU quads: within sliver s, the quad of values
/// a[s*kMR + i, 4p .. 4p+3] lives at bytes ((p * kMR) + i) * 4. Also emits
/// rowsum[i] = sum_k a[i, k] for each of the m rows — the epilogue's offset
/// correction. Pure data movement plus exact integer sums, so there is one
/// shared implementation across backends (like im2col).
void pack_a_s8(const std::int8_t* a, std::int64_t m, std::int64_t k,
               std::int8_t* ap, std::int32_t* rowsum);

/// Quantize-on-pack for the dynamic operand: reads the fp32 matrix with
/// op(B)(p, j) = b[p * rs + j * cs] (rs/cs cover both the im2col [k, n]
/// row-major layout and the linear-layer transposed [n, k] walk), quantizes
/// each element with its column's scale,
///   q = clamp(nearbyint(v * col_inv_scale[j]), -127, 127)
/// (round half to even — matches _mm512_cvtps_epi32 under the default FP
/// environment; NaN clamps to -127), and stores q + 128 as u8 in NR-column
/// slivers: within sliver t, the quad of values for column t*kNR + j at
/// k = 4p .. 4p+3 lives at bytes ((p * kNR) + j) * 4. A zero inv-scale
/// encodes a zero-range column: every element quantizes to 0. Short edges
/// and the k pad hold the offset-binary zero byte (128, i.e. q = 0 — what a
/// 0.0f source element quantizes to, so edge handling needs no special
/// cases); pad positions never reach C because the matching A bytes are 0
/// (k pad) or the lanes are clipped at write-back (column pad).
void pack_b_quantized(const float* b, std::int64_t rs, std::int64_t cs,
                      std::int64_t k, std::int64_t n,
                      const float* col_inv_scale, std::uint8_t* bp);

/// Channel-quad conv lowering (DESIGN.md §12). A compiled int8 conv orders
/// its k dimension (tap, cq, ci) instead of im2col's (c, kh, kw): row
///   p = (t * cq4 + cq) * kKU + ci,   t = kh * kernel_w + kw,
/// reads input channel c = cq * kKU + ci, where cq4 = ceil(in_channels / 4).
/// Channels c >= in_channels pad the last quad; their A bytes are zero. So
/// k' = conv_k(g) = taps * cq4 * 4 is a whole number of quads, and one
/// packed-B quad block (kNR columns x 4 k-values) is kNR dwords of the
/// quantized input below.
std::int64_t conv_k(const ConvGeometry& g);

/// Copy m int8 conv weight rows from im2col's k order, [m, g.col_rows()]
/// with column c * taps + t, into the channel-quad k order, [m, conv_k(g)]
/// with column (t * cq4 + c / 4) * 4 + c % 4. Pad-channel columns are zero,
/// so pack_a_s8's row sums do not change. Pure data movement, one
/// implementation across backends.
void reorder_conv_weights(const std::int8_t* w, std::int64_t m,
                          const ConvGeometry& g, std::int8_t* out);

/// Quantize one conv group's input once per image into channel-quad bytes:
/// for channel c = 4 * cq + ci of image img at pixel s (s < hw),
///   q[((cq * n + img) * hw + s) * 4 + ci] = quantize(v, img_inv[img]) + 128
/// with pack_b_quantized's formula, v = x[img * sample_stride + c * hw + s].
/// Also writes pad[img] = quantize(0.0f, img_inv[img]) + 128, the byte a
/// zero input element becomes; channels c >= `channels` that fill the last
/// quad hold it, as if the input had extra all-zero channels. q holds
/// ceil(channels / 4) * 4 * n * hw bytes. `x` may point at a channel offset
/// inside each sample (one conv group).
void quantize_conv_input(const float* x, std::int64_t n,
                         std::int64_t sample_stride, std::int64_t channels,
                         std::int64_t hw, const float* img_inv,
                         std::uint8_t* q, std::uint8_t* pad);

/// Pack the [conv_k(g), n * g.col_cols()] B operand of one conv group from
/// quantize_conv_input's bytes (g.in_channels channels, hw = in_h * in_w).
/// Column j = img * spatial + y * out_w + x of quad block (t, cq) is the
/// dword of channel quad cq at pixel (y * stride - pad + kh,
/// x * stride - pad + kw) of image img. Taps outside the image take pad[img]
/// in all four bytes, and dead columns (past the last) are 0x80808080. Each
/// real byte is what pack_b_quantized writes for the same value and the
/// image's inverse scale, so the GEMM over the reordered k equals the GEMM
/// over im2col's rows bitwise.
void pack_b_conv_c4(const std::uint8_t* q, const std::uint8_t* pad,
                    std::int64_t n, const ConvGeometry& g, std::uint8_t* bp);

/// Activation applied last — the fp32 GEMM's enum, with kernels::relu /
/// relu_cap semantics: max(v, 0) maps NaN (and -0) to +0, then min(v, cap).
using Act = gemm::Epilogue::Act;

/// Per-element write-back, in this order (the unfused chain conv -> Add ->
/// ReLU of an int8 plan, step for step):
///   eff  = acc - (128 + col_zp[j]) * rowsum[i]      (exact, int32)
///   v    = float(eff) * (row_scale[i] * col_scale[j]) + bias[i]
///   v    = residual_first ? r + v : v + r           (if residual; when
///          the first operand is NaN it is returned quieted — x86's rule,
///          made explicit so the order holds whatever the compiler emits)
///   C    = act(v)
/// row_scale/col_scale are required; bias and col_zp may be null (0).
///
/// Addressing: with pixels == 0, C[i, j] is c[i * ldc + j]. With pixels > 0
/// column j is pixel j % pixels of image j / pixels, and C[i, j] is
///   c[(j / pixels) * image_stride + i * ldc + j % pixels]
/// — a conv group's NCHW output (ldc = pixels, image_stride = the sample's
/// channels * pixels), written in place of a channel-major GEMM output.
/// A residual r is read at the same address in `residual`.
///
/// absmax (optional, needs act != kNone): absmax[j / pixels] is raised to
/// the largest C value of that image this call writes. Activated outputs
/// are NaN-free and >= +0, so the max is exact in any order. The caller
/// zero-fills it (once for all of a conv's group GEMMs).
struct Epilogue {
  const float* row_scale = nullptr;   // [m] per-output-channel weight scales
  const float* col_scale = nullptr;   // [n] per-column activation scales
  const float* bias = nullptr;        // [m] per-row bias, nullptr = 0
  const std::int32_t* col_zp = nullptr;  // [n] activation zero points, 0
  std::int64_t pixels = 0;            // columns per image, 0 = row-major C
  std::int64_t image_stride = 0;      // elements between images (pixels > 0)
  const float* residual = nullptr;    // added at C's address, nullptr = none
  bool residual_first = false;        // r + v (true) or v + r (false)
  Act act = Act::kNone;
  float cap = 0.0f;                   // kReluCap
  float* absmax = nullptr;            // [n / pixels] per-image max, or null
};

/// C[m, n] (fp32, addressed per Epilogue: row stride ldc >= n, or >= pixels
/// for image-split output; must not alias the packed operands or the
/// residual) from packed A (+ its rowsums) and packed B. Accumulates each
/// output element in int32 over the full k in one pass — no intermediate
/// rounding anywhere before the epilogue's single int->float conversion.
/// k == 0 writes bias (eff = 0). Requires k <= kMaxK.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          const std::int8_t* ap, const std::int32_t* rowsum,
          const std::uint8_t* bp, float* c, std::int64_t ldc,
          const Epilogue& ep);

namespace detail {
/// The one scale-folding formula (non-inline, compiled in the igemm TU with
/// -ffp-contract=off), shared with tests so a naive int32 reference can
/// reproduce the kernel's float write-back bit-for-bit — the igemm analogue
/// of gemm::quantize_value's "single shared formula" rule.
float epilogue_value(std::int32_t eff, float row_scale, float col_scale,
                     float bias);
/// The one activation-quantization formula (same compilation discipline):
/// clamp(nearbyint(v * inv_scale), -127, 127), NaN -> -127.
std::int32_t quantize_value(float v, float inv_scale);
}  // namespace detail

/// Portable plain-loop twin, always built (even on VNNI builds) so tests
/// can assert backend-vs-scalar bitwise equality at runtime in one binary.
namespace scalar {
void pack_b_quantized(const float* b, std::int64_t rs, std::int64_t cs,
                      std::int64_t k, std::int64_t n,
                      const float* col_inv_scale, std::uint8_t* bp);
void quantize_conv_input(const float* x, std::int64_t n,
                         std::int64_t sample_stride, std::int64_t channels,
                         std::int64_t hw, const float* img_inv,
                         std::uint8_t* q, std::uint8_t* pad);
void pack_b_conv_c4(const std::uint8_t* q, const std::uint8_t* pad,
                    std::int64_t n, const ConvGeometry& g, std::uint8_t* bp);
void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          const std::int8_t* ap, const std::int32_t* rowsum,
          const std::uint8_t* bp, float* c, std::int64_t ldc,
          const Epilogue& ep);
}  // namespace scalar

}  // namespace cq::igemm
