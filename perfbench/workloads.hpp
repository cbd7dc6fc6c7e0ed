// The workloads and the per-layer probes (see README.md for why each exists
// and which layers it loads).
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_encode_r18(const Args& args);
Result run_search_vit(const Args& args);

/// Standalone per-layer probes every traced run reports: compile time and
/// arena size of both plans, plan forward latency at the serving widths,
/// achieved GFLOP/s of the plan and of the GEMM kernels at the shapes the
/// workloads run, and the training probe.
void layer_probes(const Args& args, Result& out);

/// One epoch of CQ-C pretraining: iteration time, per-stage time, fake-quant
/// time and steady-state allocations per iteration.
void train_probe(const Args& args, Result& out);

/// Busy-time share per layer and per graph executor op, the queue wait, and
/// the reconciliation of the traced busy time against the untraced run.
/// `counted_ms` adds busy time a layer without spans measures itself (ms over
/// the traced pass, by layer). `untraced_thread_us_per_op` is threads x wall
/// / ops of the untraced pass over the threads that do the work, `ops` the
/// traced pass's op count.
void report_self_times(const SelfTimes& st,
                       const std::map<std::string, double>& counted_ms,
                       double untraced_thread_us_per_op,
                       double traced_thread_us_per_op, std::uint64_t ops,
                       Result& out);

}  // namespace perfbench
