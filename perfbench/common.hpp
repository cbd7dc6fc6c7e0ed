// Shared plumbing of the end-to-end benchmark: arguments, the result line,
// order statistics, the run stamp, and the span analysis of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "models/encoder.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (checkpoints, chrome traces, reports) inside the
  /// checkout; created on demand.
  std::string workdir = ".bench_out";
  /// Self-check hooks (see README.md): shrink every size, busy-wait this
  /// long inside the benchmark's own call wrapper before each submit, and
  /// flip one bit of one output row before its gate runs.
  bool tiny = false;
  double inject_delay_us = 0.0;
  bool corrupt = false;
  /// Calibration only: override the workload's recorded open-loop rate.
  double rate = 0.0;
};

/// A failed correctness gate: the run exits non-zero and prints no result.
struct GateFailure {
  std::string what;
};
[[noreturn]] void fail_gate(const std::string& what);

/// Ops of one measured phase. attempted == ok + failed is itself a gate.
struct PhaseCount {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

/// What a workload hands back to main(): metrics in the order printed, plus
/// the per-phase op accounting.
struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<PhaseCount> phases;
  /// Figures printed in the report line only: measured, but too noisy on
  /// the reference host to gate on (README.md).
  std::vector<std::pair<std::string, double>> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value) {
    notes.push_back({name, value});
  }
  void add_phase(const PhaseCount& p);
};

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// Busy-wait until `t` (sleeping through most of any long gap first).
void wait_until(Clock::time_point t);
void spin_for_us(double us);

/// Exact order statistics over a sample (copies; callers keep theirs).
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);


/// Resets the process's resident-set high-water mark, so that a later
/// peak_rss_mb() covers only what runs after the call. Returns false where
/// the kernel offers no reset; peak_rss_mb() then covers the whole process
/// lifetime (the run stamp says which).
bool reset_peak_rss();
/// Resident-set high-water mark in MiB since the last reset_peak_rss().
double peak_rss_mb();
/// Current resident set in MiB.
double rss_mb();

/// Build stamp printed with every result: nproc, CQ_THREADS, kernel
/// backends, build type, git sha (CQ_GIT_SHA, set by run.py) and seed.
std::string stamp_json(const Args& args);

/// Fixed-seed encoder weights written once per workdir with save_module, so
/// no workload reads the untracked pretrain cache. ResNets get their batch
/// norm running statistics warmed on random batches first.
std::string checkpoint(const Args& args, const std::string& arch);
/// A fresh full-precision eval-mode encoder loaded from `path`.
cq::models::Encoder load_encoder(const std::string& arch,
                                 const std::string& path);

/// Rows of `x` L2-normalized into a [rows * dim] vector.
std::vector<float> normalized_rows(const float* x, std::int64_t rows,
                                   std::int64_t dim);
/// Leave-one-out top-k neighbour sets by cosine among `rows` embeddings.
std::vector<std::vector<std::int64_t>> cosine_topk(const float* x,
                                                   std::int64_t rows,
                                                   std::int64_t dim,
                                                   std::int64_t k);
/// Mean overlap |A_i ∩ B_i| / k of two neighbour-set lists.
double set_recall(const std::vector<std::vector<std::int64_t>>& a,
                  const std::vector<std::vector<std::int64_t>>& b,
                  std::int64_t k);

// ---- traced runs -----------------------------------------------------------

/// Self time (span minus the union of its direct children) summed per span
/// name and per layer over every span recorded since the last
/// trace::reset(), in milliseconds. A span's layer is the module its
/// recording code lives in (README.md).
struct SelfTimes {
  std::map<std::string, double> by_name_ms;
  std::map<std::string, double> by_layer_ms;
  /// Sum of every self time == sum of root-span durations.
  double total_ms = 0.0;
};
SelfTimes self_times();

/// The layers every traced run reports a busy-time share for (the load
/// generator's `bench` layer is not one).
const std::vector<std::string>& traced_layers();
/// The graph executor ops every traced run reports a self-time share for.
const std::vector<std::string>& traced_node_ops();

/// Write the spans as a chrome trace under the workdir.
void write_chrome_trace(const Args& args);

}  // namespace perfbench
