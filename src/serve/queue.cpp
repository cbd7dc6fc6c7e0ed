#include "serve/queue.hpp"

#include <cstddef>

#include "util/check.hpp"

namespace cq::serve {

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(capacity), cells_(capacity) {
  CQ_CHECK_MSG(capacity > 0, "queue capacity must be positive");
  // seq == cell index marks every slot free for lap-0 producers.
  for (std::size_t i = 0; i < capacity_; ++i)
    cells_[i].seq.store(i, std::memory_order_relaxed);
}

bool RequestQueue::try_push(Request* r) {
  CQ_CHECK(r != nullptr);
  if (closed_.load(std::memory_order_acquire)) return false;
  std::size_t pos = tail_.load(std::memory_order_relaxed);
  Cell* cell = nullptr;
  for (;;) {
    cell = &cells_[pos % capacity_];
    const std::size_t seq = cell->seq.load(std::memory_order_acquire);
    const std::intptr_t dif =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      // Slot is free for ticket `pos`; claim the ticket. Weak CAS: on
      // failure `pos` is refreshed and the loop retries against whatever
      // slot the new ticket maps to.
      if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed))
        break;
    } else if (dif < 0) {
      // Slot still holds last lap's element: the ring is full. Fail fast —
      // this is the backpressure signal, never a wait.
      return false;
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
  // Stamp BEFORE publishing: the seq release store below is the
  // happens-before edge that makes the stamp (and all request fields)
  // visible to the popping worker.
  r->enqueue_time = Clock::now();
  cell->req = r;
  cell->seq.store(pos + 1, std::memory_order_release);

  // High-water mark. Racy-but-conservative: the estimate uses a head
  // snapshot taken after our publish, so it can only under-count.
  const std::intptr_t d =
      static_cast<std::intptr_t>(pos + 1) -
      static_cast<std::intptr_t>(head_.load(std::memory_order_relaxed));
  if (d > 0) {
    std::size_t cur = peak_.load(std::memory_order_relaxed);
    while (static_cast<std::size_t>(d) > cur &&
           !peak_.compare_exchange_weak(cur, static_cast<std::size_t>(d),
                                        std::memory_order_relaxed)) {
    }
  }

  // Wake a parked consumer. The seq_cst fence orders the publish above
  // before the sleepers_ load (Dekker pairing with the consumer's seq_cst
  // register-then-recheck); the empty wait_mu_ critical section closes the
  // residual window, because a consumer re-checks emptiness while HOLDING
  // wait_mu_ — we cannot notify between that check and its wait. Producers
  // skip all of this unless a consumer is actually parked.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    { std::lock_guard<std::mutex> lk(wait_mu_); }
    wait_cv_.notify_all();
  }
  return true;
}

Request* RequestQueue::try_pop_one() {
  std::size_t pos = head_.load(std::memory_order_relaxed);
  Cell* cell = nullptr;
  for (;;) {
    cell = &cells_[pos % capacity_];
    const std::size_t seq = cell->seq.load(std::memory_order_acquire);
    const std::intptr_t dif =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed))
        break;
    } else if (dif < 0) {
      return nullptr;  // slot not yet published: queue is empty
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
  Request* r = cell->req;
  // Hand the slot to the producer one full lap ahead.
  cell->seq.store(pos + capacity_, std::memory_order_release);
  return r;
}

std::size_t RequestQueue::pop_batch(std::vector<Request*>& out,
                                    std::size_t max_batch,
                                    std::chrono::microseconds max_wait,
                                    Clock::time_point* window_start) {
  CQ_CHECK(max_batch > 0);
  out.clear();

  // Phase 1: block for the FIRST request.
  Request* first = try_pop_one();
  if (first == nullptr) {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lk(wait_mu_);
      for (;;) {
        // Emptiness re-check under wait_mu_: a producer that saw us in
        // sleepers_ must take this mutex before notifying, so the pop here
        // and the wait below are atomic with respect to its wakeup. Read
        // closed_ first, so a request pushed before close() is still taken.
        const bool closed = closed_.load(std::memory_order_acquire);
        first = try_pop_one();
        if (first != nullptr || closed) break;
        wait_cv_.wait(lk);
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (first == nullptr) return 0;  // closed and drained
  }
  out.push_back(first);
  const Clock::time_point window_open = Clock::now();
  if (window_start != nullptr) *window_start = window_open;

  // Phase 2: the batching window opens when the first request is taken.
  // Take whatever is already queued behind it without blocking; if nothing
  // is, the request is alone and dispatches at once — lingering could only
  // delay it. A batch that already has company lingers up to `max_wait`
  // for stragglers, but never returns an empty batch late.
  const Clock::time_point window_end = window_open + max_wait;
  for (;;) {
    while (out.size() < max_batch) {
      Request* r = try_pop_one();
      if (r == nullptr) break;
      out.push_back(r);
    }
    // Still alone after the first drain (out never shrinks, so only the
    // first pass can see size 1): dispatch now.
    if (out.size() == 1) break;
    if (out.size() >= max_batch) break;
    if (closed_.load(std::memory_order_acquire)) break;
    if (Clock::now() >= window_end) break;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lk(wait_mu_);
      Request* r = try_pop_one();
      if (r != nullptr)
        out.push_back(r);
      else if (!closed_.load(std::memory_order_acquire))
        wait_cv_.wait_until(lk, window_end);
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  return out.size();
}

void RequestQueue::close() {
  closed_.store(true, std::memory_order_release);
  // Empty critical section pairs with the consumers' under-lock re-check —
  // identical handshake to try_push's wakeup.
  { std::lock_guard<std::mutex> lk(wait_mu_); }
  wait_cv_.notify_all();
}

std::size_t RequestQueue::drain(std::vector<Request*>& out) {
  out.clear();
  for (Request* r = try_pop_one(); r != nullptr; r = try_pop_one())
    out.push_back(r);
  return out.size();
}

std::size_t RequestQueue::depth() const {
  const std::intptr_t t =
      static_cast<std::intptr_t>(tail_.load(std::memory_order_acquire));
  const std::intptr_t h =
      static_cast<std::intptr_t>(head_.load(std::memory_order_acquire));
  return t > h ? static_cast<std::size_t>(t - h) : 0;
}

std::size_t RequestQueue::peak_depth() const {
  return peak_.load(std::memory_order_acquire);
}

}  // namespace cq::serve
