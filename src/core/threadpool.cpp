#include "core/threadpool.hpp"

#include <cstdlib>
#include <string>

namespace cq::core {
namespace {

// Set for the lifetime of each pool worker thread; parallel_for consults it
// to run nested dispatches inline (one level of parallelism, no deadlocks).
thread_local bool t_on_worker = false;

}  // namespace

std::size_t configured_threads() {
  const char* env = std::getenv("CQ_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::size_t>(
          v > static_cast<long>(ThreadPool::kMaxThreads)
              ? ThreadPool::kMaxThreads
              : v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 1) return 1;
  return hw > ThreadPool::kMaxThreads ? ThreadPool::kMaxThreads : hw;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : size_(configured_threads()) { start_workers(); }

ThreadPool::~ThreadPool() { stop_workers(); }

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::set_size(std::size_t n) {
  if (n < 1) n = 1;
  if (n > kMaxThreads) n = kMaxThreads;
  if (n == size_) return;
  stop_workers();
  size_ = n;
  start_workers();
}

void ThreadPool::start_workers() {
  if (size_ <= 1) return;
  stop_ = false;
  threads_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i)
    threads_.emplace_back([this] { worker_main(); });
}

void ThreadPool::stop_workers() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

std::int64_t ThreadPool::claim(Job& job) {
  const std::int64_t ci = job.next_chunk++;
  if (job.next_chunk == job.chunks) {
    (job.prev != nullptr ? job.prev->next : head_) = job.next;
    (job.next != nullptr ? job.next->prev : tail_) = job.prev;
  }
  return ci;
}

void ThreadPool::run_chunk(std::unique_lock<std::mutex>& lk, Job& job,
                           std::int64_t ci) {
  // The partition is a pure function of (total, chunks, ci): every chunk
  // has total / chunks indices, and the first total % chunks get one more.
  const std::int64_t base = job.total / job.chunks;
  const std::int64_t rem = job.total % job.chunks;
  const std::int64_t begin = ci * base + (ci < rem ? ci : rem);
  const std::int64_t end = begin + base + (ci < rem ? 1 : 0);
  lk.unlock();
  job.invoke(job.ctx, begin, end);
  lk.lock();
  // Notify while holding mu_: the caller cannot see unfinished == 0 and
  // destroy the stack-allocated Job before this thread lets go of it.
  if (--job.unfinished == 0) job.done.notify_one();
}

void ThreadPool::worker_main() {
  t_on_worker = true;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_cv_.wait(lk, [this] { return stop_ || head_ != nullptr; });
    if (stop_) return;
    Job& job = *head_;
    run_chunk(lk, job, claim(job));
  }
}

void ThreadPool::run_job(std::int64_t total, std::int64_t grain,
                         InvokeFn invoke, void* ctx) {
  const std::int64_t max_chunks =
      static_cast<std::int64_t>(size_) * kChunksPerThread;
  std::int64_t chunks = (total + grain - 1) / grain;
  if (chunks > max_chunks) chunks = max_chunks;

  Job job(invoke, ctx, total, chunks);
  std::unique_lock<std::mutex> lk(mu_);
  job.prev = tail_;
  (tail_ != nullptr ? tail_->next : head_) = &job;
  tail_ = &job;
  wake_cv_.notify_all();
  // The caller runs chunks of its own job only, so it never waits behind
  // another caller's work; workers take the oldest open job first.
  while (job.next_chunk < job.chunks) run_chunk(lk, job, claim(job));
  job.done.wait(lk, [&job] { return job.unfinished == 0; });
}

}  // namespace cq::core
