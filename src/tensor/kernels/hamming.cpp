#include "tensor/kernels/hamming.hpp"

#include <bit>
#include <cstring>

#include "tensor/kernels/simd.hpp"

namespace cq::kernels {

namespace {

// ---- portable core ---------------------------------------------------------
// Every kernel is integer arithmetic (popcounts, shifts, ordered float
// compares), so the portable core and the AVX2 paths below agree bit-for-bit;
// the AVX2 code only changes HOW MANY rows/words one step covers.

inline std::uint64_t pc64(std::uint64_t v) {
  return static_cast<std::uint64_t>(std::popcount(v));
}

std::uint64_t popcount_u64_portable(const std::uint64_t* x, std::int64_t n) {
  std::uint64_t total = 0;
  for (std::int64_t i = 0; i < n; ++i) total += pc64(x[i]);
  return total;
}

std::uint32_t hamming_distance_portable(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::int64_t words) {
  std::uint64_t d = 0;
  for (std::int64_t w = 0; w < words; ++w) d += pc64(a[w] ^ b[w]);
  return static_cast<std::uint32_t>(d);
}

void hamming_scan_portable(const std::uint64_t* query,
                           const std::uint64_t* base, std::int64_t rows,
                           std::int64_t words_per_row, std::uint32_t* out) {
  for (std::int64_t r = 0; r < rows; ++r)
    out[r] =
        hamming_distance_portable(base + r * words_per_row, query,
                                  words_per_row);
}

std::int64_t filter_lt_u32_portable(const std::uint32_t* x, std::int64_t n,
                                    std::uint32_t limit, std::int32_t* out) {
  std::int64_t cnt = 0;
  for (std::int64_t i = 0; i < n; ++i)
    if (x[i] < limit) out[cnt++] = static_cast<std::int32_t>(i);
  return cnt;
}

void binarize_1bit_portable(const float* x, std::int64_t rows,
                            std::int64_t cols, const float* thresholds,
                            std::int64_t words_per_row, std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    for (std::int64_t j = 0; j < cols; ++j)
      code[j >> 6] |= static_cast<std::uint64_t>(row[j] > thresholds[j])
                      << (j & 63);
  }
}

void binarize_2bit_portable(const float* x, std::int64_t rows,
                            std::int64_t cols, const float* lo,
                            const float* hi, std::int64_t words_per_row,
                            std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::int64_t b = 2 * j;
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > lo[j]) << (b & 63);
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > hi[j])
                      << ((b + 1) & 63);
    }
  }
}

// dot_scan is the one float kernel here; written once over the Vec type so
// backend and portable twin run the identical 8-lane algorithm (two
// accumulators over 16-float steps, one over the last 8-float step, scalar
// mul/add tail) — bit-identical per the simd.hpp determinism contract.
template <class Vec>
void dot_scan_impl(const float* query, const float* base, std::int64_t rows,
                   std::int64_t dim, float* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = base + r * dim;
    Vec acc0 = Vec::zero();
    Vec acc1 = Vec::zero();
    std::int64_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      acc0 = Vec::fma(Vec::load(query + i), Vec::load(row + i), acc0);
      acc1 = Vec::fma(Vec::load(query + i + 8), Vec::load(row + i + 8), acc1);
    }
    if (i + 8 <= dim) {
      acc0 = Vec::fma(Vec::load(query + i), Vec::load(row + i), acc0);
      i += 8;
    }
    float s = (acc0 + acc1).hsum();
    for (; i < dim; ++i) s += query[i] * row[i];
    out[r] = s;
  }
}

// ---- AVX2 paths ------------------------------------------------------------

#ifdef CQ_SIMD_AVX2

/// Per-64-bit-lane popcount of a 256-bit vector: nibble LUT (pshufb) for
/// per-byte counts, then psadbw against zero to sum bytes into the four u64
/// lanes. The standard Mula kernel — ~3x a dependent chain of scalar popcnt
/// at scan footprints.
inline __m256i popcount256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/// Sum of the four u64 lanes.
inline std::uint64_t hsum4_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s))));
}

std::uint64_t popcount_u64_avx2(const std::uint64_t* x, std::int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(x + i))));
  std::uint64_t total = hsum4_epi64(acc);
  for (; i < n; ++i) total += pc64(x[i]);
  return total;
}

std::uint32_t hamming_distance_avx2(const std::uint64_t* a,
                                    const std::uint64_t* b,
                                    std::int64_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(va, vb)));
  }
  std::uint64_t d = hsum4_epi64(acc);
  for (; w < words; ++w) d += pc64(a[w] ^ b[w]);
  return static_cast<std::uint32_t>(d);
}

void hamming_scan_avx2(const std::uint64_t* query, const std::uint64_t* base,
                       std::int64_t rows, std::int64_t words_per_row,
                       std::uint32_t* out) {
  if (words_per_row == 1) {
    // Whole code in one word: four ROWS per step. The popcount lanes are
    // per-row distances already; compact the u64 lanes (values <= 64) into
    // four u32s with one cross-lane permute.
    const __m256i q = _mm256_set1_epi64x(static_cast<long long>(query[0]));
    const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    std::int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + r)), q);
      const __m256i pc = _mm256_permutevar8x32_epi32(popcount256(v), pack);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r),
                       _mm256_castsi256_si128(pc));
    }
    for (; r < rows; ++r)
      out[r] = static_cast<std::uint32_t>(pc64(base[r] ^ query[0]));
    return;
  }
  if (words_per_row == 2) {
    // Two rows per step; fold each row's two u64 lanes with an in-lane swap.
    const __m256i q = _mm256_setr_epi64x(static_cast<long long>(query[0]),
                                         static_cast<long long>(query[1]),
                                         static_cast<long long>(query[0]),
                                         static_cast<long long>(query[1]));
    std::int64_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + 2 * r)),
          q);
      const __m256i pc = popcount256(v);
      const __m256i s =
          _mm256_add_epi64(pc, _mm256_shuffle_epi32(pc, 0x4E));
      out[r] = static_cast<std::uint32_t>(
          _mm_cvtsi128_si64(_mm256_castsi256_si128(s)));
      out[r + 1] = static_cast<std::uint32_t>(
          _mm_cvtsi128_si64(_mm256_extracti128_si256(s, 1)));
    }
    for (; r < rows; ++r)
      out[r] = static_cast<std::uint32_t>(pc64(base[2 * r] ^ query[0]) +
                                          pc64(base[2 * r + 1] ^ query[1]));
    return;
  }
  for (std::int64_t r = 0; r < rows; ++r)
    out[r] = hamming_distance_avx2(base + r * words_per_row, query,
                                   words_per_row);
}

std::int64_t filter_lt_u32_avx2(const std::uint32_t* x, std::int64_t n,
                                std::uint32_t limit, std::int32_t* out) {
  if (limit == 0) return 0;  // nothing is < 0 unsigned
  // AVX2 has no unsigned compare; x < limit  <=>  min_u(x, limit-1) == x.
  const __m256i cap = _mm256_set1_epi32(static_cast<int>(limit - 1));
  std::int64_t cnt = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i hit = _mm256_cmpeq_epi32(_mm256_min_epu32(v, cap), v);
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(hit)));
    // The all-miss step is the whole point: one load+min+cmp+movemask per 8
    // rows. Survivors peel off lowest-set-bit first, keeping indices
    // ascending like the portable twin.
    while (mask) {
      const int lane = std::countr_zero(mask);
      mask &= mask - 1;
      out[cnt++] = static_cast<std::int32_t>(i) + lane;
    }
  }
  for (; i < n; ++i)
    if (x[i] < limit) out[cnt++] = static_cast<std::int32_t>(i);
  return cnt;
}

void binarize_1bit_avx2(const float* x, std::int64_t rows, std::int64_t cols,
                        const float* thresholds, std::int64_t words_per_row,
                        std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      // _CMP_GT_OQ matches the portable `>` exactly (NaN -> false).
      const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_loadu_ps(row + j),
                        _mm256_loadu_ps(thresholds + j), _CMP_GT_OQ)));
      code[j >> 6] |= static_cast<std::uint64_t>(mask) << (j & 63);
    }
    for (; j < cols; ++j)
      code[j >> 6] |= static_cast<std::uint64_t>(row[j] > thresholds[j])
                      << (j & 63);
  }
}

/// Spread the low 8 bits of m so bit i lands at bit 2i (for interleaving the
/// lo/hi thermometer masks of 8 dimensions into 16 adjacent code bits).
inline std::uint64_t spread8(unsigned m) {
  std::uint64_t v = m;
  v = (v | (v << 4)) & 0x0F0Fu;
  v = (v | (v << 2)) & 0x3333u;
  v = (v | (v << 1)) & 0x5555u;
  return v;
}

void binarize_2bit_avx2(const float* x, std::int64_t rows, std::int64_t cols,
                        const float* lo, const float* hi,
                        std::int64_t words_per_row, std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      const unsigned mlo = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(v, _mm256_loadu_ps(lo + j), _CMP_GT_OQ)));
      const unsigned mhi = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(v, _mm256_loadu_ps(hi + j), _CMP_GT_OQ)));
      const std::int64_t b = 2 * j;  // multiple of 16: the pair fits one word
      code[b >> 6] |= (spread8(mlo) | (spread8(mhi) << 1)) << (b & 63);
    }
    for (; j < cols; ++j) {
      const std::int64_t b = 2 * j;
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > lo[j]) << (b & 63);
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > hi[j])
                      << ((b + 1) & 63);
    }
  }
}

#endif  // CQ_SIMD_AVX2

}  // namespace

// ---- public dispatch -------------------------------------------------------

#ifdef CQ_SIMD_AVX2

std::uint64_t popcount_u64(const std::uint64_t* x, std::int64_t n) {
  return popcount_u64_avx2(x, n);
}
void hamming_scan(const std::uint64_t* query, const std::uint64_t* base,
                  std::int64_t rows, std::int64_t words_per_row,
                  std::uint32_t* out) {
  hamming_scan_avx2(query, base, rows, words_per_row, out);
}
std::int64_t filter_lt_u32(const std::uint32_t* x, std::int64_t n,
                           std::uint32_t limit, std::int32_t* out) {
  return filter_lt_u32_avx2(x, n, limit, out);
}
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint64_t* codes) {
  binarize_1bit_avx2(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes) {
  binarize_2bit_avx2(x, rows, cols, lo, hi, words_per_row, codes);
}

#else

std::uint64_t popcount_u64(const std::uint64_t* x, std::int64_t n) {
  return popcount_u64_portable(x, n);
}
void hamming_scan(const std::uint64_t* query, const std::uint64_t* base,
                  std::int64_t rows, std::int64_t words_per_row,
                  std::uint32_t* out) {
  hamming_scan_portable(query, base, rows, words_per_row, out);
}
std::int64_t filter_lt_u32(const std::uint32_t* x, std::int64_t n,
                           std::uint32_t limit, std::int32_t* out) {
  return filter_lt_u32_portable(x, n, limit, out);
}
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint64_t* codes) {
  binarize_1bit_portable(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes) {
  binarize_2bit_portable(x, rows, cols, lo, hi, words_per_row, codes);
}

#endif

void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out) {
  dot_scan_impl<simd::VecF>(query, base, rows, dim, out);
}

namespace scalar {

std::uint64_t popcount_u64(const std::uint64_t* x, std::int64_t n) {
  return popcount_u64_portable(x, n);
}
std::uint32_t hamming_distance(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words) {
  return hamming_distance_portable(a, b, words);
}
void hamming_scan(const std::uint64_t* query, const std::uint64_t* base,
                  std::int64_t rows, std::int64_t words_per_row,
                  std::uint32_t* out) {
  hamming_scan_portable(query, base, rows, words_per_row, out);
}
std::int64_t filter_lt_u32(const std::uint32_t* x, std::int64_t n,
                           std::uint32_t limit, std::int32_t* out) {
  return filter_lt_u32_portable(x, n, limit, out);
}
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint64_t* codes) {
  binarize_1bit_portable(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes) {
  binarize_2bit_portable(x, rows, cols, lo, hi, words_per_row, codes);
}
void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out) {
  dot_scan_impl<simd::VecPortable>(query, base, rows, dim, out);
}

}  // namespace scalar

}  // namespace cq::kernels
