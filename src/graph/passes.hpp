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
//   fuse_epilogues         conv/linear + ReLU -> fused GEMM epilogue; int8
//                          conv + residual Add(+ReLU) -> one conv
//   select_conv_lowering   im2row+kNT vs im2col+kNN by layer geometry
//   eliminate_dead_ops     drop nodes unreachable from the graph output
//
// Epilogue fusion covers both precisions. fp32 conv/linear take ReLU/ReLU6
// into gemm::Epilogue. An int8 conv takes ReLU/ReLU6 and a residual Add
// into igemm::Epilogue, which writes the finished NCHW activation (DESIGN.md
// §12): the Add folds into the operand an int8 conv produced later, the
// other operand becomes the conv's second input, and the Add's operand
// order and trailing ReLU carry over. The int8 linear keeps ReLU as its own
// node. Every fusion keeps the forward bitwise equal to the unfused plan.
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
