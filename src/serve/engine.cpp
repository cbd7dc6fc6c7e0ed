#include "serve/engine.hpp"

#include <algorithm>

#include "core/cq.hpp"
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

Engine::Engine(const EngineConfig& config) : config_(config) {
  CQ_CHECK(config_.max_batch > 0);
  CQ_CHECK(config_.queue_capacity > 0);
  CQ_CHECK(config_.in_channels > 0 && config_.in_h > 0 && config_.in_w > 0);

  // One queue shard per worker (min one so a worker-less engine still
  // admits); the configured capacity is split evenly across shards, rounded
  // up so nq shards never hold fewer requests than one queue would have.
  const std::size_t nq = std::max<std::size_t>(1, config_.workers);
  const std::size_t shard_cap =
      std::max<std::size_t>(1, (config_.queue_capacity + nq - 1) / nq);
  for (std::size_t i = 0; i < nq; ++i)
    queues_.push_back(std::make_unique<RequestQueue>(shard_cap));

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
    w->index = i;
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
  if (stopping_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    r->complete(Status::kShutdown);
    return false;
  }
  // Round-robin across shards; when the preferred shard is full, fall back
  // to any shard with room so total capacity equals the sum of the shards.
  const std::size_t nq = queues_.size();
  const std::uint64_t ticket = rr_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t o = 0; o < nq; ++o) {
    if (queues_[(ticket + o) % nq]->try_push(r)) {
      submitted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  r->complete(Status::kRejectedFull);
  return false;
}

void Engine::stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& q : queues_) q->close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // Anything still queued (only possible with zero workers, or requests
  // raced in just before close) was accepted but can no longer run.
  std::vector<Request*> leftovers;
  for (auto& q : queues_) {
    q->drain(leftovers);
    for (Request* r : leftovers) {
      shutdown_failed_.fetch_add(1, std::memory_order_relaxed);
      r->complete(Status::kShutdown);
    }
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
  if (config_.prewarm) {
    CQ_TRACE_SCOPE("serve.prewarm");
    for (int pass = 0; pass < 3; ++pass) {
      const Tensor& warm = w.batcher->prewarm(config_.max_batch);
      (void)w.model->forward(warm);
    }
  }
  const std::uint64_t warm_allocs = core::AllocTracker::thread_allocs();
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
  RequestQueue& own = *queues_[w.index];
  const std::size_t nq = queues_.size();
  // With siblings to steal from, bound the blocking wait on our own queue
  // so an idle worker re-scans the other shards at this cadence. A request
  // landing in OUR queue still wakes us immediately via its cv — the poll
  // only bounds how stale a sibling backlog can get before we notice it.
  const std::chrono::microseconds first_wait =
      nq > 1 ? std::chrono::microseconds{1000}
             : std::chrono::microseconds::max();
  for (;;) {
    std::size_t stolen = 0;
    Clock::time_point window_start;
    {
      // Includes the bounded wait for the batch to fill (max_wait).
      CQ_TRACE_SCOPE("serve.batch_form");
      (void)own.pop_batch_for(batch, config_.max_batch, config_.max_wait,
                              first_wait, &window_start);
      if (batch.empty() && nq > 1) {
        window_start = Clock::now();  // a steal sweep never waits
        for (std::size_t o = 1; o < nq && batch.size() < config_.max_batch;
             ++o)
          stolen += queues_[(w.index + o) % nq]->try_pop_some(
              batch, config_.max_batch - batch.size());
      }
    }
    if (batch.empty()) {
      // pop_batch_for returning empty on a closed queue means it drained;
      // the steal sweep above found nothing either, so exit. (stop()
      // closes every shard before joining, and each remaining shard has
      // its own worker to drain it.)
      if (own.closed()) return;
      continue;  // first_wait poll expired with nothing anywhere
    }

    const auto dequeue_time = Clock::now();
    const std::size_t expired = w.batcher->filter_expired(batch, dequeue_time);

    if (!batch.empty()) {
      const std::uint64_t allocs_before = core::AllocTracker::thread_allocs();
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
      const std::uint64_t allocs_after = core::AllocTracker::thread_allocs();

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
        w.stats.stolen += stolen;
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
    } else if (expired > 0 || stolen > 0) {
      std::lock_guard<std::mutex> lock(w.stats_mu);
      w.stats.timed_out += expired;
      w.stats.stolen += stolen;
    }
  }
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_.load(std::memory_order_relaxed);
  s.shutdown_failed = shutdown_failed_.load(std::memory_order_relaxed);
  for (const auto& q : queues_) {
    s.queue_depth += q->depth();
    s.queue_peak_depth += q->peak_depth();
  }
  std::uint64_t batch_size_sum = 0;
  s.workers.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerSnapshot ws;
    {
      std::lock_guard<std::mutex> lock(w->stats_mu);
      s.served += w->stats.served;
      s.timed_out += w->stats.timed_out;
      s.batches += w->stats.batches;
      s.stolen += w->stats.stolen;
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
      ws.stolen = w->stats.stolen;
      ws.mean_batch_size =
          w->stats.batches == 0
              ? 0.0
              : static_cast<double>(w->stats.batch_size_sum) /
                    static_cast<double>(w->stats.batches);
      ws.batch_hist = w->stats.batch_hist;
    }
    ws.queue_depth = queues_[w->index]->depth();
    ws.queue_peak_depth = queues_[w->index]->peak_depth();
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
