// Bounded lock-free MPMC request queue with fail-fast backpressure and
// deadline-aware batch pops — the admission-control half of the serving
// engine. One queue per Engine, shared by every worker.
//
// Producers call try_push(), which NEVER blocks: a full queue returns false
// immediately so the client can shed load (the TensorRT/Triton "reject at
// admission" policy rather than unbounded buffering). Any number of
// consumers call pop_batch(), which blocks for the FIRST request and takes
// whatever is already queued behind it. A lone request dispatches at once;
// a batch that already has company lingers up to `max_wait` gathering more
// — the dynamic micro-batching window.
//
// Implementation (DESIGN.md §14): a Vyukov-style bounded MPMC ring. Each
// cell carries a sequence number; producers claim a slot by CAS on the tail
// ticket, write the request pointer (stamping enqueue_time first), then
// publish with a release store of the cell sequence — consumers claim via
// CAS on the head ticket and acquire-load the same sequence, which is the
// happens-before edge making every request field visible. Push and pop are
// wait-free in the common case (one CAS each, no mutex, no allocation).
// The ONLY blocking is in pop_batch's empty-queue wait: a sleeper-counted
// condition variable that producers touch exclusively when a consumer is
// parked, so the loaded hot path never takes a lock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/request.hpp"

namespace cq::serve {

class RequestQueue {
 public:
  /// `capacity` > 0: maximum number of queued (not yet popped) requests.
  explicit RequestQueue(std::size_t capacity);

  /// Enqueue without blocking. Returns false (and leaves `r` untouched) when
  /// the queue is full or closed. On success stamps r->enqueue_time; the
  /// cell-sequence release store / consumer acquire load pair gives the
  /// happens-before edge that makes the stamp (and the request fields)
  /// visible to workers.
  bool try_push(Request* r);

  /// Pop up to `max_batch` requests into `out` (which is cleared first).
  /// Blocks until at least one request is available, then takes, without
  /// blocking, whatever is already queued behind it. If that leaves the
  /// first request alone it returns at once; otherwise it waits at most
  /// `max_wait` past taking the FIRST request for the batch to fill, so
  /// `max_wait` bounds only a batch that already has company. When a
  /// request is popped and `window_start` is non-null, it receives the time
  /// the first request was taken (the window opening).
  /// Returns the number popped; 0 means the queue is closed AND drained —
  /// the consumer should exit.
  std::size_t pop_batch(std::vector<Request*>& out, std::size_t max_batch,
                        std::chrono::microseconds max_wait,
                        Clock::time_point* window_start = nullptr);

  /// Reject future pushes and wake all blocked consumers. Already-queued
  /// requests remain poppable (graceful drain).
  void close();

  /// Pop everything immediately without waiting (used by Engine::stop() to
  /// fail leftover requests after the workers exit). Returns count popped.
  std::size_t drain(std::vector<Request*>& out);

  std::size_t depth() const;       // current queued count (racy snapshot)
  std::size_t peak_depth() const;  // high-water mark since construction

 private:
  /// One ring slot. seq encodes the slot's lap state: == ticket means
  /// "free for the producer holding that ticket"; == ticket + 1 means
  /// "holds the element for the consumer with that ticket"; consumers
  /// release with ticket + capacity (the next lap's producer ticket).
  struct Cell {
    std::atomic<std::size_t> seq;
    Request* req = nullptr;  // guarded by the seq protocol above
  };

  Request* try_pop_one();

  const std::size_t capacity_;
  std::vector<Cell> cells_;
  // Producer / consumer tickets. Monotonic; slot = ticket % capacity_.
  // Padded apart so the two CAS hot words do not false-share.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> peak_{0};
  std::atomic<bool> closed_{false};
  // Empty-queue parking. A consumer registers in sleepers_ BEFORE its final
  // emptiness re-check (done while holding wait_mu_); a producer that
  // observes sleepers_ > 0 after publishing acquires wait_mu_ (empty
  // critical section) and notifies, so no wakeup is missed. Producers skip
  // all of it while consumers are active.
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::atomic<std::int64_t> sleepers_{0};
};

}  // namespace cq::serve
