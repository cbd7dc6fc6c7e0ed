#include "serve/engine.hpp"

#include <algorithm>

#include "core/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq::serve {

namespace {

std::uint64_t micros_between(Clock::time_point a, Clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config), queue_(config.queue_capacity) {
  CQ_CHECK(config_.max_batch > 0);
  CQ_CHECK(config_.in_channels > 0 && config_.in_h > 0 && config_.in_w > 0);

  // Load the trained encoder: serving is full precision (the checkpointed
  // weights ARE the model; fake-quantization noise belongs to training) and
  // eval mode (running BN statistics — they are what gets folded).
  Rng rng(1);
  encoder_ = models::make_encoder(config_.arch, rng);
  models::load_module(config_.checkpoint, *encoder_.backbone);
  encoder_.policy->set_full_precision();
  encoder_.backbone->set_mode(nn::Mode::kEval);

  // Compile every worker's instance on this thread, before any worker
  // starts: compilation reads the (now frozen) module tree. The arena is
  // planned once at max_batch — narrower batches run inside the same
  // allocation.
  const Shape sample{config_.in_channels, config_.in_h, config_.in_w};
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->model = make_instance(config_.instance, *encoder_.backbone, sample,
                             static_cast<std::int64_t>(config_.max_batch));
    w->batcher = std::make_unique<Batcher>(sample, encoder_.feature_dim);
    workers_.push_back(std::move(w));
  }

  for (auto& w : workers_)
    w->thread = std::thread([this, worker = w.get()] { worker_main(*worker); });
  {
    std::unique_lock<std::mutex> lock(ready_mu_);
    ready_cv_.wait(lock,
                   [this] { return workers_ready_ == workers_.size(); });
  }
  start_time_ = Clock::now();
}

Engine::~Engine() { stop(); }

bool Engine::submit(Request* r) {
  CQ_TRACE_SCOPE("serve.enqueue");
  CQ_CHECK(r != nullptr && r->input != nullptr && r->output != nullptr);
  // Announce before reading stopping_ (both seq_cst, pairing with stop()):
  // either stop() sees this submit in flight and waits for it, or this
  // submit sees stopping_.
  submitting_.fetch_add(1, std::memory_order_seq_cst);
  const bool stopping = stopping_.load(std::memory_order_seq_cst);
  const bool accepted = !stopping && queue_.try_push(r);
  submitting_.fetch_sub(1, std::memory_order_release);
  if (accepted) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  r->complete(stopping ? Status::kShutdown : Status::kRejectedFull);
  return false;
}

void Engine::stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_seq_cst);
  while (submitting_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  queue_.close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // Anything still queued (only possible with zero workers) was accepted
  // but can no longer run.
  std::vector<Request*> leftovers;
  queue_.drain(leftovers);
  for (Request* r : leftovers) {
    shutdown_failed_.fetch_add(1, std::memory_order_relaxed);
    r->complete(Status::kShutdown);
  }
  stopped_ = true;
}

void Engine::worker_main(Worker& w) {
  // Warmup: the compiled plan's arena already holds every intermediate and
  // scratch buffer at max-batch capacity, so unlike the old eager path
  // (which re-grew per-width scratch and needed a pass at EVERY width),
  // warming at max_batch alone covers all narrower widths — they run
  // inside the same arena, and the instance's output tensor plus the
  // batcher's collate buffer shrink in place (Tensor::resize reuses an
  // unshared larger allocation). Three passes so COW handles that rotate
  // through a spare settle into a pure pool round-trip. Allocations before
  // the fence are warmup; after it, steady state must stay at zero at ANY
  // batch width 1..max_batch (pinned by ZeroAllocAcrossWidths).
  {
    CQ_TRACE_SCOPE("serve.prewarm");
    for (int pass = 0; pass < 3; ++pass) {
      const Tensor& warm = w.batcher->prewarm(config_.max_batch);
      (void)w.model->forward(warm);
    }
  }
  const std::uint64_t warm_allocs = prof::thread_allocs();
  {
    std::lock_guard<std::mutex> lock(w.stats_mu);
    w.stats.warmup_heap_allocs = warm_allocs;
  }
  {
    // Signal readiness: the constructor blocks until every worker has
    // prewarmed, so the first submitted request never pays warmup latency.
    std::lock_guard<std::mutex> lock(ready_mu_);
    ++workers_ready_;
    ready_cv_.notify_all();
  }

  std::vector<Request*> batch;
  batch.reserve(config_.max_batch);
  // Latency staging, sized once: the steady-state loop must not malloc.
  std::vector<std::uint64_t> queue_us(config_.max_batch);
  std::vector<std::uint64_t> total_us(config_.max_batch);
  for (;;) {
    Clock::time_point window_start;
    {
      // Includes the bounded wait for the batch to fill (max_wait).
      CQ_TRACE_SCOPE("serve.batch_form");
      // 0 means the queue is closed and drained: stop() closes it before
      // joining, so every accepted request has been taken by some worker.
      if (queue_.pop_batch(batch, config_.max_batch, config_.max_wait,
                           &window_start) == 0)
        return;
    }

    const auto dequeue_time = Clock::now();
    const std::size_t expired = w.batcher->filter_expired(batch, dequeue_time);

    if (!batch.empty()) {
      const std::uint64_t allocs_before = prof::thread_allocs();
      const Tensor* input;
      {
        CQ_TRACE_SCOPE_N("serve.collate", batch.size());
        input = &w.batcher->collate(batch);
      }
      const Tensor* features;
      {
        CQ_TRACE_SCOPE_N("serve.forward", batch.size());
        features = &w.model->forward(*input);
      }
      {
        CQ_TRACE_SCOPE_N("serve.scatter", batch.size());
        w.batcher->scatter(*features, batch);
      }
      const std::uint64_t allocs_after = prof::thread_allocs();

      // Record latencies and stats BEFORE completing: complete() frees the
      // client to destroy the request, and a client that has seen wait()
      // return must observe stats covering its own request.
      const std::size_t n = batch.size();
      const auto done = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        queue_us[i] = micros_between(batch[i]->enqueue_time, dequeue_time);
        total_us[i] = micros_between(batch[i]->enqueue_time, done);
      }
      {
        std::lock_guard<std::mutex> lock(w.stats_mu);
        ++w.stats.batches;
        w.stats.served += n;
        w.stats.timed_out += expired;
        w.stats.batch_size_sum += n;
        w.stats.max_batch_seen =
            std::max<std::uint64_t>(w.stats.max_batch_seen, n);
        ++w.stats.batch_hist[std::min(n, kBatchHistBuckets) - 1];
        w.stats.steady_heap_allocs += allocs_after - allocs_before;
        w.stats.window_latency.record(
            micros_between(window_start, dequeue_time));
        for (std::size_t i = 0; i < n; ++i) {
          w.stats.queue_latency.record(queue_us[i]);
          w.stats.total_latency.record(total_us[i]);
        }
      }
      {
        CQ_TRACE_SCOPE_N("serve.complete", batch.size());
        for (Request* r : batch) r->complete(Status::kOk);
      }
    } else {  // every request in the batch had expired
      std::lock_guard<std::mutex> lock(w.stats_mu);
      w.stats.timed_out += expired;
    }
  }
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_.load(std::memory_order_relaxed);
  s.shutdown_failed = shutdown_failed_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.depth();
  s.queue_peak_depth = queue_.peak_depth();
  std::uint64_t batch_size_sum = 0;
  s.workers.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerSnapshot ws;
    {
      std::lock_guard<std::mutex> lock(w->stats_mu);
      s.served += w->stats.served;
      s.timed_out += w->stats.timed_out;
      s.batches += w->stats.batches;
      batch_size_sum += w->stats.batch_size_sum;
      s.max_batch_seen = std::max(s.max_batch_seen, w->stats.max_batch_seen);
      s.warmup_heap_allocs += w->stats.warmup_heap_allocs;
      s.steady_heap_allocs += w->stats.steady_heap_allocs;
      s.queue_latency.merge(w->stats.queue_latency);
      s.total_latency.merge(w->stats.total_latency);
      s.window_latency.merge(w->stats.window_latency);
      for (std::size_t i = 0; i < kBatchHistBuckets; ++i)
        s.batch_hist[i] += w->stats.batch_hist[i];
      ws.served = w->stats.served;
      ws.batches = w->stats.batches;
      ws.timed_out = w->stats.timed_out;
      ws.mean_batch_size =
          w->stats.batches == 0
              ? 0.0
              : static_cast<double>(w->stats.batch_size_sum) /
                    static_cast<double>(w->stats.batches);
      ws.batch_hist = w->stats.batch_hist;
    }
    s.workers.push_back(ws);
  }
  s.mean_batch_size = s.batches == 0
                          ? 0.0
                          : static_cast<double>(batch_size_sum) /
                                static_cast<double>(s.batches);
  s.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - start_time_).count();
  s.throughput_rps = s.uptime_seconds > 0.0
                         ? static_cast<double>(s.served) / s.uptime_seconds
                         : 0.0;
  return s;
}

}  // namespace cq::serve
