// The embeddable inference engine: checkpoint in, features out.
//
//   Engine engine(config);            // loads + compiles the encoder
//   Request r; r.input = ...; r.output = ...;
//   engine.submit(&r);                // non-blocking, fail-fast
//   if (r.wait() == Status::kOk) ...  // feature vector in r.output
//   engine.stop();                    // graceful: accepted work completes
//
// Architecture (DESIGN.md §10, §14): submit() round-robins across one
// bounded lock-free RequestQueue PER worker (sharded, so producers and the
// worker pool never contend on a single queue lock), falling back to any
// shard with room before rejecting. Each worker pops dynamic micro-batches
// from its OWN queue (a lone request dispatches at once; a batch with
// company fills to max_batch or the max_wait window, whichever first),
// stealing from sibling queues when its own runs empty, then
// filters expired deadlines, collates into a pre-warmed batch tensor,
// forwards through a per-worker compiled ModelInstance, and scatters
// feature rows back. Per-worker stats (latency histograms, batch-size
// histograms, per-queue depths, steal counts, heap-allocation deltas)
// aggregate on demand into EngineStats / stats_json().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "models/encoder.hpp"
#include "serve/batcher.hpp"
#include "serve/model.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"

namespace cq::serve {

struct EngineConfig {
  /// Checkpoint produced by models::save_module() for `arch`.
  std::string checkpoint;
  std::string arch = "resnet18";
  /// Input sample geometry (single sample; the engine batches).
  std::int64_t in_channels = 3;
  std::int64_t in_h = 16;
  std::int64_t in_w = 16;
  InstanceKind instance = InstanceKind::kFp32;
  /// Worker threads. 0 is allowed: requests queue but never run — useful
  /// for testing admission control; stop() then fails them kShutdown.
  std::size_t workers = 1;
  /// Micro-batching: a worker takes up to `max_batch` requests. A request
  /// with nothing queued behind it when the worker takes it dispatches at
  /// once; `max_wait` bounds only a batch that already has company — it
  /// waits at most that long past taking the first request to fill.
  std::size_t max_batch = 8;
  std::chrono::microseconds max_wait{500};
  /// Bounded queue capacity; submit() fails fast when full.
  std::size_t queue_capacity = 64;
  /// Forward three times at max_batch per worker at startup. The compiled
  /// plan's arena is sized at max_batch, so every narrower width runs inside
  /// it and steady-state serving performs zero heap allocations per request
  /// regardless of how full each micro-batch runs.
  bool prewarm = true;
};

class Engine {
 public:
  /// Loads the checkpoint into a fresh `arch` encoder (full-precision
  /// policy, eval mode), compiles one ModelInstance per worker, prewarms,
  /// and starts the workers. Throws CheckError on a bad checkpoint.
  explicit Engine(const EngineConfig& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Non-blocking admission. Returns false when the queue is full or the
  /// engine is stopping, after completing the request with kRejectedFull or
  /// kShutdown; the caller sheds the load (reset() before resubmitting). On
  /// success the request will reach a terminal status exactly once.
  bool submit(Request* r);

  /// Graceful shutdown: stop admitting, let workers drain already-accepted
  /// requests (they complete kOk), join, then fail anything left unpopped
  /// (workers == 0) with kShutdown. Idempotent.
  void stop();

  /// Aggregate a stats snapshot across workers. Safe to call while serving.
  EngineStats stats() const;
  std::string stats_json() const { return stats().to_json(); }

  std::int64_t feature_dim() const { return encoder_.feature_dim; }
  std::int64_t sample_numel() const {
    return config_.in_channels * config_.in_h * config_.in_w;
  }
  const EngineConfig& config() const { return config_; }

 private:
  struct Worker {
    std::size_t index = 0;  // also indexes this worker's own queue shard
    std::unique_ptr<ModelInstance> model;
    std::unique_ptr<Batcher> batcher;
    std::thread thread;
    mutable std::mutex stats_mu;
    WorkerStats stats;
  };

  void worker_main(Worker& w);

  EngineConfig config_;
  models::Encoder encoder_;
  /// One shard per worker (min one, so workers == 0 still admits). Total
  /// admission capacity is config.queue_capacity split evenly across shards.
  std::vector<std::unique_ptr<RequestQueue>> queues_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> rr_{0};  // round-robin submit ticket
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // guarded by stop_mu_
  std::mutex stop_mu_;
  // Startup latch: the constructor blocks until every worker has prewarmed.
  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  std::size_t workers_ready_ = 0;  // guarded by ready_mu_
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shutdown_failed_{0};
  Clock::time_point start_time_;
};

}  // namespace cq::serve
