// Compiler passes over the graph IR.
//
// Each pass is a standalone Graph -> Graph rewrite returning how many nodes
// it changed or removed, so tests can run the pipeline one pass at a time
// and pin bitwise equivalence after every stage. run_default_passes() is the
// canonical order:
//
//   eliminate_identities   drop ActQuant placeholders and Flatten adapters
//   fold_batchnorm         conv+BN -> conv with folded weight/bias
//   [lower_int8]           (int8 plans) mark conv/linear for the igemm path
//   fuse_epilogues         fp32 conv/linear + ReLU -> fused GEMM epilogue
//   select_conv_lowering   im2row+kNT vs im2col+kNN by layer geometry
//   eliminate_dead_ops     drop nodes unreachable from the graph output
//
// Epilogue fusion is fp32-only: the int8 epilogue (igemm::Epilogue) carries
// scales and bias but no activation, so an int8 plan keeps ReLU as its own
// node (the same kernels:: pass an fp32 plan runs for an unfused ReLU).
//
// Every pass records a "graph.pass.<name>" span in the aggregate profiler
// (and the span tracer when enabled), so compile time is attributable
// per pass.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/ir.hpp"

namespace cq::graph {

std::size_t eliminate_identities(Graph& g);
std::size_t fold_batchnorm(Graph& g);
std::size_t lower_int8(Graph& g);
std::size_t fuse_epilogues(Graph& g);
std::size_t select_conv_lowering(Graph& g);
std::size_t eliminate_dead_ops(Graph& g);

struct PassResult {
  const char* name = nullptr;
  std::size_t changed = 0;      // nodes rewritten or removed
  std::size_t nodes_after = 0;  // graph size once the pass ran
};

std::vector<PassResult> run_default_passes(Graph& g, Precision precision);

}  // namespace cq::graph
