// Near-zero-overhead scoped-span tracer with thread-local ring buffers.
//
// Every instrumented scope (CQ_TRACE_SCOPE and friends) does two things:
//  * always feeds the aggregate profiler (core/prof.hpp) — call counts,
//    wall-ns, bytes, alloc deltas; and
//  * when tracing is enabled at runtime (trace::enable), records a span
//    into the calling thread's preallocated ring buffer. Recording a span
//    performs no heap allocation in steady state: one mutex, two stores
//    into a fixed slot.
//
// Rings are registered globally on each thread's first span; the registry
// holds shared ownership so spans survive thread exit (the serving engine's
// workers are joined before export, but their buffers outlive them either
// way). When a ring fills, the oldest spans are overwritten (wraparound) and
// dropped() counts the loss — tracing never blocks or grows the hot path.
//
// Export: trace_export::chrome(path) writes chrome://tracing "traceEvents"
// JSON (open via chrome://tracing or https://ui.perfetto.dev). Events are
// sorted by start time (parents before children), with the optional numeric
// span tag — e.g. the serve batch width — under args. snapshot() returns the
// same merged view for tests. Export while other threads are actively
// recording is safe for the registry but may drop in-flight spans; call it
// at quiescent points (after Engine::stop(), after train()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/prof.hpp"

namespace cq::trace {

/// One completed span. `arg` is an optional numeric tag (kNoArg when
/// absent) — the serve pipeline tags spans with the micro-batch width.
struct Span {
  const char* name = nullptr;  // static string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t depth = 0;  // nesting depth on the recording thread
  std::uint32_t tid = 0;    // registration-order thread id (1-based)
  std::int64_t arg = kNoArg;

  static constexpr std::int64_t kNoArg = -1;
};

/// Runtime gate. Off by default: scopes then cost one relaxed atomic load
/// beyond their (always-on) profiler accounting.
void enable(bool on);
bool enabled();

/// Drop every recorded span on every registered thread.
void reset();

/// Set the per-thread ring capacity in spans (default 1 << 15). Resizes
/// already-registered rings (dropping their contents) and applies to
/// threads that register later. Call at quiescent points only.
void set_ring_capacity(std::size_t spans);

/// Total spans currently held across all rings.
std::size_t span_count();
/// Spans lost to ring wraparound since the last reset().
std::uint64_t dropped();

/// Merged view of every thread's ring, sorted by (start_ns, -end_ns) so a
/// parent sorts before its children.
std::vector<Span> snapshot();

namespace detail {
void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::int64_t arg);
/// Current nesting depth bookkeeping for the calling thread.
std::uint32_t enter();
void leave();
}  // namespace detail

/// RAII span: profiler accounting always; ring recording when
/// runtime-enabled. Use the macros below, which cache the profiler
/// counter per call site.
class Scope {
 public:
  Scope(prof::Counter& counter, const char* name,
        std::int64_t arg = Span::kNoArg, std::uint64_t bytes = 0)
      : timer_(counter, bytes), name_(name), arg_(arg) {
    live_ = enabled();
    if (live_) detail::enter();
  }
  ~Scope() {
    if (live_) {
      const std::uint64_t end = prof::now_ns();
      detail::leave();
      detail::record(name_, timer_.start_ns(), end, arg_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void add_bytes(std::uint64_t n) { timer_.add_bytes(n); }

 private:
  prof::ScopeTimer timer_;
  const char* name_;
  std::int64_t arg_;
  bool live_ = false;
};

/// Hot-path spans: the per-cache-block GEMM internals fire hundreds of
/// thousands of times per training run, so even the always-on profiler
/// accounting (two clock reads + relaxed adds per scope) costs whole
/// percents of iteration time there. A HotScope therefore skips ALL
/// accounting — profiler included — unless tracing is runtime-enabled;
/// when disabled it costs one relaxed atomic load. Its counters
/// consequently appear in the aggregate table only for traced runs.
class HotScope {
 public:
  HotScope(prof::Counter& counter, const char* name,
           std::int64_t arg = Span::kNoArg, std::uint64_t bytes = 0) {
    if (enabled()) {
      counter_ = &counter;
      name_ = name;
      arg_ = arg;
      bytes_ = bytes;
      start_allocs_ = prof::thread_allocs();
      detail::enter();
      start_ns_ = prof::now_ns();
    }
  }
  ~HotScope() {
    if (counter_ != nullptr) {
      const std::uint64_t end = prof::now_ns();
      counter_->record(end - start_ns_, bytes_,
                       prof::thread_allocs() - start_allocs_);
      detail::leave();
      detail::record(name_, start_ns_, end, arg_);
    }
  }
  HotScope(const HotScope&) = delete;
  HotScope& operator=(const HotScope&) = delete;

 private:
  prof::Counter* counter_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t arg_ = Span::kNoArg;
  std::uint64_t bytes_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t start_allocs_ = 0;
};

}  // namespace cq::trace

namespace cq::trace_export {

/// Write the merged spans as chrome://tracing JSON. Returns false when the
/// file cannot be opened. Timestamps are microseconds relative to the
/// earliest span.
bool chrome(const std::string& path);
/// Same document as a string (tests parse it).
std::string chrome_json();

}  // namespace cq::trace_export

// ---- instrumentation macros -------------------------------------------------
//
// CQ_TRACE_SCOPE("simclr.loss")          span + profiler counter
// CQ_TRACE_SCOPE_N("serve.forward", n)   ... tagged with a numeric arg
// CQ_TRACE_SCOPE_BYTES("gemm", nbytes)   ... accounting bytes moved
// CQ_TRACE_SCOPE_HOT("gemm.kernel")      HotScope: all accounting skipped
// CQ_TRACE_SCOPE_HOT_BYTES(name, nbytes)   unless tracing is enabled
// CQ_PROF_COUNT("quant.weight.memo_hit") instant event: call count only
//
// Each expands to a function-local static counter lookup (once per site)
// plus one RAII object; names must be string literals.

#define CQ_TRACE_CAT2(a, b) a##b
#define CQ_TRACE_CAT(a, b) CQ_TRACE_CAT2(a, b)

#define CQ_TRACE_SCOPE(name)                                    \
  static ::cq::prof::Counter& CQ_TRACE_CAT(cq_prof_counter_,    \
                                           __LINE__) =          \
      ::cq::prof::Counter::get(name);                           \
  ::cq::trace::Scope CQ_TRACE_CAT(cq_trace_scope_, __LINE__)(   \
      CQ_TRACE_CAT(cq_prof_counter_, __LINE__), name)

#define CQ_TRACE_SCOPE_N(name, arg_value)                       \
  static ::cq::prof::Counter& CQ_TRACE_CAT(cq_prof_counter_,    \
                                           __LINE__) =          \
      ::cq::prof::Counter::get(name);                           \
  ::cq::trace::Scope CQ_TRACE_CAT(cq_trace_scope_, __LINE__)(   \
      CQ_TRACE_CAT(cq_prof_counter_, __LINE__), name,           \
      static_cast<std::int64_t>(arg_value))

#define CQ_TRACE_SCOPE_BYTES(name, byte_count)                  \
  static ::cq::prof::Counter& CQ_TRACE_CAT(cq_prof_counter_,    \
                                           __LINE__) =          \
      ::cq::prof::Counter::get(name);                           \
  ::cq::trace::Scope CQ_TRACE_CAT(cq_trace_scope_, __LINE__)(   \
      CQ_TRACE_CAT(cq_prof_counter_, __LINE__), name,           \
      ::cq::trace::Span::kNoArg, static_cast<std::uint64_t>(byte_count))

#define CQ_TRACE_SCOPE_HOT(name)                                \
  static ::cq::prof::Counter& CQ_TRACE_CAT(cq_prof_counter_,    \
                                           __LINE__) =          \
      ::cq::prof::Counter::get(name);                           \
  ::cq::trace::HotScope CQ_TRACE_CAT(cq_trace_scope_, __LINE__)( \
      CQ_TRACE_CAT(cq_prof_counter_, __LINE__), name)

#define CQ_TRACE_SCOPE_HOT_BYTES(name, byte_count)              \
  static ::cq::prof::Counter& CQ_TRACE_CAT(cq_prof_counter_,    \
                                           __LINE__) =          \
      ::cq::prof::Counter::get(name);                           \
  ::cq::trace::HotScope CQ_TRACE_CAT(cq_trace_scope_, __LINE__)( \
      CQ_TRACE_CAT(cq_prof_counter_, __LINE__), name,           \
      ::cq::trace::Span::kNoArg, static_cast<std::uint64_t>(byte_count))

#define CQ_PROF_COUNT(name)                                     \
  do {                                                          \
    static ::cq::prof::Counter& cq_prof_event_counter =         \
        ::cq::prof::Counter::get(name);                         \
    cq_prof_event_counter.count();                              \
  } while (0)
