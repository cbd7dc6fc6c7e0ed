// Binary-embedding kernels: sign/threshold binarization into packed 32-bit
// bitplanes, and the fused Hamming bound scan (hamming_below) that is the
// hot loop of the vector search subsystem (src/search/, DESIGN.md §15).
//
// Like the float kernel layer (kernels.hpp), every primitive is built twice:
//
//   kernels::foo          — the compile-time-detected backend (AVX2 nibble-LUT
//                           popcount + movemask binarization when available;
//                           hamming_below uses AVX-512 VPOPCNTDQ instead when
//                           the build machine has __AVX512F__ and
//                           __AVX512VPOPCNTDQ__, selected like igemm's VNNI)
//   kernels::scalar::foo  — a portable twin, always compiled
//
// All kernels here are integer (or integer-from-float-compare) pipelines, so
// the two instantiations are BIT-IDENTICAL by construction; the fuzz suite in
// tests/test_search.cpp asserts it anyway, including odd word counts and the
// 2-bit layout, because "trivially identical" code is exactly the code that
// grows a subtle tail bug.
//
// Code layout (shared contract with search::Binarizer):
//  * A d-dimensional embedding becomes one row of `words_per_row` u32 words,
//    bits packed LSB-first: logical bit j lives in word j/32, bit j%32.
//    Rows are ceil(bits/32) words, so a 32-bit code takes 4 bytes; kernels
//    may read an even-width row as u64 words (little-endian, so the pairs
//    hold the same bits), which changes no distance.
//  * 1-bit/dim: bit j = (x[j] > threshold[j]).
//  * 2-bit/dim (thermometer): dimension j owns bits 2j and 2j+1 with
//    bit 2j = (x[j] > lo[j]), bit 2j+1 = (x[j] > hi[j]), lo <= hi. Codes are
//    00/01/11 for the three levels, so the XOR-popcount Hamming distance
//    between two codes is exactly sum_j |level_a(j) - level_b(j)| — a 3-level
//    quantized L1 distance, no decode step needed.
//  * Unused bits of the last word MUST be zero (binarize kernels guarantee
//    this), so distances never see garbage and scans can run whole words.
#pragma once

#include <cstdint>

namespace cq::kernels {

// ---- Hamming distance ------------------------------------------------------

/// The fused scan + filter of the top-k feed: for r in [0, rows), computes
/// d = Hamming(query, base + r*words_per_row) and, when d < limit, appends r
/// to rows_out and d to dist_out; returns the count. Rows come out
/// ascending, and both outputs need room for `rows` entries. Once the
/// selection holds its k-th best distance as a strict bound, almost every
/// row fails it, so the distances never leave registers: the compare runs
/// on the popcount lanes and only survivors are written. limit 0 emits
/// nothing; any limit above 32*words_per_row emits every row (the arming
/// pass). Exact integer compare, so backend and scalar twin emit identical
/// lists.
std::int64_t hamming_below(const std::uint32_t* query,
                           const std::uint32_t* base, std::int64_t rows,
                           std::int64_t words_per_row, std::uint32_t limit,
                           std::int64_t* rows_out, std::uint32_t* dist_out);

/// Which hamming_below backend this build compiled: "avx512_vpopcntdq",
/// "avx2" or "portable" (bench/search records it beside its scan numbers).
const char* hamming_below_backend();

// ---- binarization ----------------------------------------------------------

/// Pack `rows` embeddings of `cols` floats into 1-bit/dim codes:
/// bit j of row r = (x[r*cols + j] > thresholds[j]). NaN compares false (the
/// ordered-compare convention of the float kernel layer). Each output row
/// occupies words_per_row u32s (>= ceil(cols/32)); trailing bits and whole
/// padding words are zeroed.
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint32_t* codes);

/// 2-bit/dim thermometer codes: dimension j sets bit 2j when x > lo[j] and
/// bit 2j+1 when x > hi[j]. words_per_row >= ceil(2*cols/32).
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint32_t* codes);

// ---- fp32 scan (the brute-force baseline + rerank primitive) ---------------

/// out[r] = dot(query, base + r*dim) for r in [0, rows) — the fp32 cosine
/// brute-force scan (embeddings are L2-normalized upstream). Fixed 8-lane
/// accumulation with the kernel layer's combining tree, so backend and
/// scalar twin are bit-identical; the search rerank path uses this, keeping
/// reranked results identical across builds.
void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out);

// ---- portable reference instantiation --------------------------------------

namespace scalar {
std::uint32_t hamming_distance(const std::uint32_t* a, const std::uint32_t* b,
                               std::int64_t words);
std::int64_t hamming_below(const std::uint32_t* query,
                           const std::uint32_t* base, std::int64_t rows,
                           std::int64_t words_per_row, std::uint32_t limit,
                           std::int64_t* rows_out, std::uint32_t* dist_out);
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint32_t* codes);
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint32_t* codes);
void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out);
}  // namespace scalar

}  // namespace cq::kernels
