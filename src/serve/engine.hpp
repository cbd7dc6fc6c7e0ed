// The embeddable inference engine: checkpoint in, features out.
//
//   Engine engine(config);            // loads + compiles the encoder
//   Request r; r.input = ...; r.output = ...;
//   engine.submit(&r);                // non-blocking, fail-fast
//   if (r.wait() == Status::kOk) ...  // feature vector in r.output
//   engine.stop();                    // graceful: accepted work completes
//
// Architecture (DESIGN.md §10, §14): submit() pushes into one bounded
// lock-free RequestQueue shared by every worker, and rejects at once when it
// is full. Each worker pops a dynamic micro-batch from that queue (a lone
// request dispatches at once; a batch with company fills to max_batch or
// the max_wait window, whichever first), filters expired deadlines,
// collates into a pre-warmed batch tensor, forwards through its own
// compiled ModelInstance, and scatters feature rows back. Per-worker stats
// (latency histograms, batch-size histograms, heap-allocation deltas)
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
    std::unique_ptr<ModelInstance> model;
    std::unique_ptr<Batcher> batcher;
    std::thread thread;
    mutable std::mutex stats_mu;
    WorkerStats stats;
  };

  void worker_main(Worker& w);

  EngineConfig config_;
  models::Encoder encoder_;
  RequestQueue queue_;  // shared by every worker
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  // submit() calls past their stopping_ check; stop() waits for them to
  // finish before closing the queue, so no push lands after its drain.
  std::atomic<std::uint64_t> submitting_{0};
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
