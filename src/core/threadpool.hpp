// Process-wide thread pool driving every multi-core compute path in the
// repo: the GEMM macro loops (fp32 and int8), batched im2col lowering and
// the graph executor's per-op batch splits all dispatch through
// ThreadPool::parallel_for. Serve engine workers are their own threads, not
// pool threads; the pool only splits the compute each of them issues.
//
// Design (DESIGN.md §14):
//  * One process-wide pool (ThreadPool::instance()), sized from the
//    CQ_THREADS environment variable at first use (default: hardware
//    concurrency) and resizable at runtime via set_size(). Size 1 means NO
//    worker threads: every parallel_for runs inline on the caller — exactly
//    the pre-threadpool behaviour, with zero dispatch overhead and zero
//    allocation.
//  * One open-job list: parallel_for links a Job (living on the caller's
//    stack) at the tail of a FIFO list guarded by one mutex. A job hands
//    out its chunks by index; workers claim the next chunk of the oldest
//    open job, and the caller claims its own job's chunks, then sleeps on
//    the job's latch. A job leaves the list when its last chunk is claimed.
//    At chunk granularity (thousands of micro-kernel tiles per chunk) the
//    lock is noise; the lock-free structure on a hot path is the serve
//    RequestQueue.
//  * Determinism: the pool never changes WHAT a chunk computes, only WHERE
//    it runs. Chunk ci's range is a pure function of (total, chunks, ci),
//    and callers partition output tiles so every chunk writes a disjoint
//    region and each tile's accumulation order is independent of the
//    partition — results are bitwise-identical at every pool size,
//    enforced by the parallel-vs-serial fuzz suites in tests/.
//  * Nesting: a parallel_for issued from inside a pool worker runs inline
//    (serially) on that worker. This keeps one level of parallelism — the
//    outermost dispatch — and makes the pool deadlock-free by construction.
//  * No allocation per dispatch: the Job and its latch live on the caller's
//    stack and the list is intrusive. A steady-state serving forward stays
//    at zero heap allocations with the pool engaged (pinned by the
//    ZeroAllocSteadyState tests).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cq::core {

class ThreadPool {
 public:
  /// The process-wide pool. First call reads CQ_THREADS (clamped to
  /// [1, kMaxThreads]; unset/invalid -> hardware concurrency) and spawns
  /// size-1 workers.
  static ThreadPool& instance();

  /// Parallelism degree (worker threads + the participating caller). 1 means
  /// fully inline execution.
  std::size_t size() const { return size_; }

  /// Resize the pool: joins existing workers and spawns n-1 fresh ones.
  /// Not safe to call concurrently with parallel_for from other threads;
  /// intended for startup configuration and tests.
  void set_size(std::size_t n);

  /// True on a pool worker thread (used to run nested dispatches inline).
  static bool on_worker_thread();

  /// Invoke fn(begin, end) over disjoint sub-ranges covering [0, total).
  /// Chunks are at least `grain` indices (the last may be smaller); at most
  /// kChunksPerThread chunks per pool thread are created. Runs inline when
  /// the pool has size 1, when the range fits one grain, or when called
  /// from a pool worker. Returns after every chunk has executed.
  /// fn must be safe to run concurrently on disjoint ranges.
  template <typename F>
  void parallel_for(std::int64_t total, std::int64_t grain, F&& fn) {
    if (total <= 0) return;
    if (grain < 1) grain = 1;
    if (size_ <= 1 || total <= grain || on_worker_thread()) {
      fn(std::int64_t{0}, total);
      return;
    }
    const auto invoke = [](void* ctx, std::int64_t b, std::int64_t e) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(b, e);
    };
    run_job(total, grain, invoke, &fn);
  }

  /// parallel_for with an automatic grain: one chunk per pool thread times
  /// kChunksPerThread, each at least `min_grain`.
  template <typename F>
  void parallel_for(std::int64_t total, F&& fn) {
    parallel_for(total, std::int64_t{1}, static_cast<F&&>(fn));
  }

  static constexpr std::size_t kMaxThreads = 256;
  static constexpr std::int64_t kChunksPerThread = 4;

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  using InvokeFn = void (*)(void*, std::int64_t, std::int64_t);

  /// One parallel_for, living on the caller's stack. Every field past
  /// `chunks` is guarded by the pool's mu_.
  struct Job {
    Job(InvokeFn f, void* c, std::int64_t n, std::int64_t k)
        : invoke(f), ctx(c), total(n), chunks(k), unfinished(k) {}
    const InvokeFn invoke;
    void* const ctx;
    const std::int64_t total;
    const std::int64_t chunks;
    std::int64_t next_chunk = 0;  // next unclaimed chunk index
    std::int64_t unfinished;      // chunks not yet finished
    Job* prev = nullptr;          // open-job list links
    Job* next = nullptr;
    std::condition_variable done;  // latch: unfinished reached 0
  };

  ThreadPool();  // sized from CQ_THREADS / hardware concurrency

  void start_workers();
  void stop_workers();
  void worker_main();
  void run_job(std::int64_t total, std::int64_t grain, InvokeFn invoke,
               void* ctx);
  /// Claim `job`'s next chunk, unlinking the job when that was its last.
  /// Caller holds mu_.
  std::int64_t claim(Job& job);
  /// Run chunk `ci` with mu_ released, then retake `lk` and count it done.
  static void run_chunk(std::unique_lock<std::mutex>& lk, Job& job,
                        std::int64_t ci);

  std::size_t size_ = 1;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable wake_cv_;  // an open job was linked, or stop_
  Job* head_ = nullptr;              // oldest open job; guarded by mu_
  Job* tail_ = nullptr;              // newest open job; guarded by mu_
  bool stop_ = false;                // guarded by mu_
};

/// The pool size CQ_THREADS requests: the parsed value clamped to
/// [1, kMaxThreads], or hardware_concurrency() (min 1) when unset/invalid.
std::size_t configured_threads();

/// Convenience forwarding to the global pool.
template <typename F>
inline void parallel_for(std::int64_t total, std::int64_t grain, F&& fn) {
  ThreadPool::instance().parallel_for(total, grain, static_cast<F&&>(fn));
}

}  // namespace cq::core
