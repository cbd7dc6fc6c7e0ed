// Bounded top-k heap for bench/search's fp32 brute-force baseline, and the
// (dist, row) candidate order Index's selection is defined by (DESIGN.md
// §15). Index::query itself selects with counting passes, not this heap.
//
// A TopK is a fixed-capacity max-heap over (distance, row) pairs ordered by
// the TOTAL order (dist, row) lexicographic — ties on distance break toward
// the lower row index. Because the order is total, the top-k SET and its
// sorted order are unique properties of the candidate stream: the result is
// independent of push order.
//
// Storage is a vector that reset() reuses — after the first reset at a given
// k, pushes never allocate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cq::search {

/// One scan candidate: packed-code Hamming distance + row position in the
/// index (NOT the user id; ids resolve at result emission).
struct Candidate {
  std::uint32_t dist = 0;
  std::int64_t row = 0;
};

/// The total order: nearer first, ties to the lower row.
inline bool candidate_less(const Candidate& a, const Candidate& b) {
  return a.dist != b.dist ? a.dist < b.dist : a.row < b.row;
}

class TopK {
 public:
  /// Arm for a fresh scan keeping at most `k` nearest. Reuses the slot
  /// vector's capacity; only the first call at a given k may allocate.
  void reset(std::int64_t k) {
    k_ = k;
    slots_.clear();
    if (static_cast<std::int64_t>(slots_.capacity()) < k) slots_.reserve(k);
  }

  /// Offer one candidate; keeps it iff it precedes the current k-th best.
  void push(Candidate c) {
    if (static_cast<std::int64_t>(slots_.size()) < k_) {
      slots_.push_back(c);
      std::push_heap(slots_.begin(), slots_.end(), candidate_less);
      return;
    }
    if (k_ > 0 && candidate_less(c, slots_.front())) {
      std::pop_heap(slots_.begin(), slots_.end(), candidate_less);
      slots_.back() = c;
      std::push_heap(slots_.begin(), slots_.end(), candidate_less);
    }
  }

  /// The kept candidates in heap order (unsorted). Valid until reset().
  const std::vector<Candidate>& heap() const { return slots_; }

  /// Sort the kept candidates nearest-first in place and return them.
  const std::vector<Candidate>& sorted() {
    std::sort(slots_.begin(), slots_.end(), candidate_less);
    return slots_;
  }

  std::int64_t size() const { return static_cast<std::int64_t>(slots_.size()); }
  std::int64_t k() const { return k_; }

 private:
  std::int64_t k_ = 0;
  std::vector<Candidate> slots_;
};

}  // namespace cq::search
