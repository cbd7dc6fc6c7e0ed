// Lowers an nn module tree into the graph IR.
//
// The tracer is shape-driven: given the PER-SAMPLE input shape ([C,H,W] for
// backbones, [D] for heads) it walks the Sequential recursively, emits one
// node per module with inferred output shapes, and leaves every module
// UNFUSED — BatchNorm, ReLU and ActQuant come out as their own nodes. All
// fusion/folding/lowering decisions belong to passes.hpp, so a dump() right
// after tracing shows the model exactly as the module tree defines it.
//
// Weights and BN statistics are captured as copy-on-write tensor handles:
// the graph shares storage with the source modules until a pass mutates a
// constant (BN folding), at which point only that node's copy detaches. The
// traced graph therefore survives the source module tree.
//
// Supported children: Conv2d, BatchNorm2d, ReLU, MaxPool2d, GlobalAvgPool,
// Flatten, Linear, ActQuant, Sequential, models::BasicBlock,
// models::InvertedResidual, and the ViT modules. Anything else throws
// CheckError naming the module's type_name().
#pragma once

#include "graph/ir.hpp"
#include "nn/sequential.hpp"

namespace cq::graph {

Graph trace(nn::Sequential& net, const Shape& sample_shape);

}  // namespace cq::graph
