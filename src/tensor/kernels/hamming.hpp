// Binary-embedding kernels: sign/threshold binarization into packed 64-bit
// bitplanes, popcount reductions, and the SIMD Hamming-distance scan that is
// the hot loop of the vector search subsystem (src/search/, DESIGN.md §15).
//
// Like the float kernel layer (kernels.hpp), every primitive is built twice:
//
//   kernels::foo          — the compile-time-detected backend (AVX2 nibble-LUT
//                           popcount + movemask binarization when available)
//   kernels::scalar::foo  — a portable twin, always compiled
//
// All kernels here are integer (or integer-from-float-compare) pipelines, so
// the two instantiations are BIT-IDENTICAL by construction; the fuzz suite in
// tests/test_search.cpp asserts it anyway, including odd word counts and the
// 2-bit layout, because "trivially identical" code is exactly the code that
// grows a subtle tail bug.
//
// Code layout (shared contract with search::Binarizer):
//  * A d-dimensional embedding becomes one row of `words_per_row` u64 words,
//    bits packed LSB-first: logical bit j lives in word j/64, bit j%64.
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

// ---- popcount reductions ---------------------------------------------------

/// Total set bits over n words (the primitive the scan is built from; has
/// its own row in bench/kernels' JSON report).
std::uint64_t popcount_u64(const std::uint64_t* x, std::int64_t n);

/// Hamming distance between two packed codes of `words` u64 words.
std::uint32_t hamming_distance(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words);

/// out[r] = hamming_distance(query, base + r*words_per_row) for r in
/// [0, rows). Specialized row-parallel paths for words_per_row 1 and 2 (the
/// whole-code-in-one-register layouts small embedding dims produce), and a
/// 4-words-per-step blocked path with a scalar word tail for the rest.
void hamming_scan(const std::uint64_t* query, const std::uint64_t* base,
                  std::int64_t rows, std::int64_t words_per_row,
                  std::uint32_t* out);

/// Compacts the indices i (ascending) with x[i] < limit into `out` and
/// returns the count. This is the top-k feed's pruning primitive: once a scan
/// heap is full, its current k-th best distance is an upper bound, and almost
/// every row fails it — the AVX2 path rejects 8 distances per compare+
/// movemask step instead of one compare per row. Exact (integer compare), so
/// backend and scalar twin emit identical index lists.
std::int64_t filter_lt_u32(const std::uint32_t* x, std::int64_t n,
                           std::uint32_t limit, std::int32_t* out);

// ---- binarization ----------------------------------------------------------

/// Pack `rows` embeddings of `cols` floats into 1-bit/dim codes:
/// bit j of row r = (x[r*cols + j] > thresholds[j]). NaN compares false (the
/// ordered-compare convention of the float kernel layer). Each output row
/// occupies words_per_row u64s (>= ceil(cols/64)); trailing bits and whole
/// padding words are zeroed.
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint64_t* codes);

/// 2-bit/dim thermometer codes: dimension j sets bit 2j when x > lo[j] and
/// bit 2j+1 when x > hi[j]. words_per_row >= ceil(2*cols/64).
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes);

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
std::uint64_t popcount_u64(const std::uint64_t* x, std::int64_t n);
std::uint32_t hamming_distance(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words);
void hamming_scan(const std::uint64_t* query, const std::uint64_t* base,
                  std::int64_t rows, std::int64_t words_per_row,
                  std::uint32_t* out);
std::int64_t filter_lt_u32(const std::uint32_t* x, std::int64_t n,
                           std::uint32_t limit, std::int32_t* out);
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint64_t* codes);
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes);
void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out);
}  // namespace scalar

}  // namespace cq::kernels
