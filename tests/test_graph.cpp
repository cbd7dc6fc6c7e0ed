// Graph compiler tests: tracer round-trips, pass-by-pass bitwise
// equivalence against the eager serving twins, arena-planner properties,
// and dead-op elimination. The bitwise cases are the compiler's contract:
// every pass must keep the compiled forward EXACTLY equal to the eager
// reference — any relaxation here silently changes served bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/threadpool.hpp"
#include "deploy/int8.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "graph/passes.hpp"
#include "graph/plan.hpp"
#include "graph/tracer.hpp"
#include "models/encoder.hpp"
#include "models/heads.hpp"
#include "serve/fp32.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

constexpr std::int64_t kH = 12, kW = 12;

models::Encoder eval_encoder(const std::string& arch, std::uint64_t seed) {
  Rng rng(seed);
  auto enc = models::make_encoder(arch, rng);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  return enc;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  const float* g = got.data();
  const float* w = want.data();
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_EQ(g[i], w[i]) << i;
}

TEST(GraphTracer, ResnetRoundTripShapes) {
  for (const char* arch : {"resnet18", "resnet34"}) {
    auto enc = eval_encoder(arch, 3);
    graph::Graph g = graph::trace(*enc.backbone, Shape{3, kH, kW});
    ASSERT_FALSE(g.nodes.empty()) << arch;
    EXPECT_EQ(g.value(g.input).shape, (Shape{3, kH, kW}));
    EXPECT_EQ(g.value(g.output).shape, (Shape{enc.feature_dim}));
    // Every node output must carry a shape and the dump must render.
    for (const graph::Node& n : g.nodes)
      EXPECT_GT(g.value(n.output).shape.numel(), 0);
    const std::string text = graph::dump(g);
    EXPECT_NE(text.find("conv2d"), std::string::npos);
    EXPECT_NE(text.find("batchnorm"), std::string::npos);
  }
}

TEST(GraphTracer, MlpHeadRoundTrip) {
  Rng rng(11);
  auto head = models::make_projection_head(24, 32, 16, rng);
  head->set_mode(nn::Mode::kEval);
  graph::Graph g = graph::trace(*head, Shape{24});
  EXPECT_EQ(g.value(g.output).shape, (Shape{16}));
  const std::string text = graph::dump(g);
  EXPECT_NE(text.find("linear"), std::string::npos);
  EXPECT_NE(text.find("relu"), std::string::npos);
}

TEST(GraphPasses, DefaultPipelineRemovesFoldableOps) {
  auto enc = eval_encoder("resnet18", 5);
  graph::Graph g = graph::trace(*enc.backbone, Shape{3, kH, kW});
  std::size_t bn_before = 0;
  for (const graph::Node& n : g.nodes)
    bn_before += n.op == graph::Op::kBatchNorm ? 1 : 0;
  ASSERT_GT(bn_before, 0u);
  const auto log = graph::run_default_passes(g, graph::Precision::kF32);
  ASSERT_FALSE(log.empty());
  for (const graph::Node& n : g.nodes) {
    EXPECT_NE(n.op, graph::Op::kBatchNorm);
    EXPECT_NE(n.op, graph::Op::kIdentity);
    EXPECT_NE(n.op, graph::Op::kFlatten);
    if (n.op == graph::Op::kConv2d)
      EXPECT_NE(n.lowering, graph::ConvLowering::kUndecided);
  }
}

// The anchor: after identities are dropped and BN is folded (the arithmetic
// the eager Fp32Network performs at compile time), the compiled plan must be
// bitwise-equal to the eager forward — and must STAY bitwise-equal as each
// subsequent pass (epilogue fusion, lowering selection, DCE) is applied.
TEST(GraphPasses, PassByPassBitwiseFp32) {
  auto enc = eval_encoder("resnet18", 7);
  serve::Fp32Network eager = serve::compile_fp32(*enc.backbone);

  graph::Graph g = graph::trace(*enc.backbone, Shape{3, kH, kW});
  graph::eliminate_identities(g);
  graph::fold_batchnorm(g);

  Rng rng(23);
  const Tensor batch = Tensor::uniform(Shape{3, 3, kH, kW}, rng, -1.0f, 1.0f);
  const Tensor want = eager.forward(batch);

  const auto check_stage = [&](const char* stage) {
    graph::Graph copy = g;
    graph::CompiledModel model(std::move(copy), /*max_batch=*/4);
    SCOPED_TRACE(stage);
    expect_bitwise(model.forward(batch), want);
  };
  check_stage("identities+fold_bn");
  graph::fuse_epilogues(g);
  check_stage("+fuse_epilogues");
  graph::select_conv_lowering(g);
  check_stage("+select_conv_lowering");
  graph::eliminate_dead_ops(g);
  check_stage("+eliminate_dead_ops");
}

TEST(GraphExecutor, CompiledMatchesEagerFp32AcrossWidths) {
  auto enc = eval_encoder("resnet18", 9);
  serve::Fp32Network eager = serve::compile_fp32(*enc.backbone);
  auto model = graph::compile(
      *enc.backbone, Shape{3, kH, kW},
      graph::CompileOptions{4, graph::Precision::kF32, true});
  Rng rng(31);
  for (std::int64_t n = 1; n <= 4; ++n) {
    SCOPED_TRACE(n);
    const Tensor batch =
        Tensor::uniform(Shape{n, 3, kH, kW}, rng, -1.0f, 1.0f);
    expect_bitwise(model.forward(batch), eager.forward(batch));
  }
}

// mobilenetv2's depthwise and grouped int8 convs are the only users of the
// per-group channel offset into the fused conv pack.
TEST(GraphExecutor, CompiledMatchesEagerInt8AcrossWidths) {
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    SCOPED_TRACE(arch);
    auto enc = eval_encoder(arch, 13);
    deploy::Int8Network eager = deploy::compile_int8(*enc.backbone);
    auto model = graph::compile(
        *enc.backbone, Shape{3, kH, kW},
        graph::CompileOptions{5, graph::Precision::kInt8, true});
    Rng rng(37);
    for (std::int64_t n = 1; n <= 5; ++n) {
      SCOPED_TRACE(n);
      const Tensor batch =
          Tensor::uniform(Shape{n, 3, kH, kW}, rng, -1.0f, 1.0f);
      expect_bitwise(model.forward(batch), eager.forward(batch));
    }
  }
}

TEST(GraphExecutor, CompiledBatchedEqualsSerial) {
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    for (auto precision : {graph::Precision::kF32, graph::Precision::kInt8}) {
      SCOPED_TRACE(std::string(arch) +
                   (precision == graph::Precision::kF32 ? " fp32" : " int8"));
      auto enc = eval_encoder(arch, 17);
      auto model = graph::compile(*enc.backbone, Shape{3, kH, kW},
                                  graph::CompileOptions{4, precision, true});
      Rng rng(41);
      const Tensor batch =
          Tensor::uniform(Shape{4, 3, kH, kW}, rng, -1.0f, 1.0f);
      const Tensor batched = model.forward(batch);  // copy: arena reused below
      const std::int64_t per = 3 * kH * kW;
      for (std::int64_t i = 0; i < 4; ++i) {
        Tensor single(Shape{1, 3, kH, kW});
        std::copy(batch.data() + i * per, batch.data() + (i + 1) * per,
                  single.data());
        const Tensor& feats = model.forward(single);
        for (std::int64_t c = 0; c < feats.dim(1); ++c)
          EXPECT_EQ(batched.at(i, c), feats.at(0, c)) << i << "," << c;
      }
    }
  }
}

// The executor's per-image batch splits and elementwise range splits must be
// invisible in the output: every pool size produces the same bytes as the
// serial run, in BOTH precisions (DESIGN.md §14 — tile ownership + the
// image_slice partition make parallel execution bitwise-deterministic).
TEST(GraphExecutor, CompiledForwardBitwiseIdenticalAcrossThreadCounts) {
  core::ThreadPool& pool = core::ThreadPool::instance();
  const std::size_t old_size = pool.size();
  for (auto precision : {graph::Precision::kF32, graph::Precision::kInt8}) {
    SCOPED_TRACE(precision == graph::Precision::kF32 ? "fp32" : "int8");
    auto enc = eval_encoder("resnet18", 43);
    auto model = graph::compile(*enc.backbone, Shape{3, kH, kW},
                                graph::CompileOptions{6, precision, true});
    Rng rng(47);
    const Tensor batch =
        Tensor::uniform(Shape{5, 3, kH, kW}, rng, -1.0f, 1.0f);
    pool.set_size(1);
    const Tensor serial = model.forward(batch);  // copy: arena reused below
    for (std::size_t threads : {2u, 3u, 8u}) {
      SCOPED_TRACE(threads);
      pool.set_size(threads);
      expect_bitwise(model.forward(batch), serial);
    }
    pool.set_size(old_size);
  }
}

// image_slice is the executor's partition contract: exact cover with no
// overlap, even distribution (sizes differ by at most one, larger slices
// first), and pure-function determinism.
TEST(GraphPlanner, ImageSlicePartitionsExactlyAndEvenly) {
  for (std::int64_t batch : {1, 2, 5, 7, 16}) {
    for (std::int64_t parts : {1, 2, 3, 5, 8}) {
      std::int64_t covered = 0;
      std::int64_t prev_len = batch;  // lengths must be non-increasing
      for (std::int64_t s = 0; s < parts; ++s) {
        const graph::ImageSlice sl = graph::image_slice(batch, parts, s);
        ASSERT_EQ(sl.begin, covered) << batch << "/" << parts << "@" << s;
        ASSERT_GE(sl.end, sl.begin);
        const std::int64_t len = sl.end - sl.begin;
        ASSERT_LE(len, prev_len);
        ASSERT_GE(len, batch / parts);
        ASSERT_LE(len, batch / parts + 1);
        prev_len = len;
        covered = sl.end;
      }
      ASSERT_EQ(covered, batch) << batch << "/" << parts;
    }
  }
}

TEST(GraphExecutor, MlpHeadCompiledMatchesEager) {
  Rng rng(19);
  auto head = models::make_projection_head(24, 32, 16, rng);
  head->set_mode(nn::Mode::kEval);
  serve::Fp32Network eager = serve::compile_fp32(*head);
  auto model =
      graph::compile(*head, Shape{24},
                     graph::CompileOptions{4, graph::Precision::kF32, true});
  const Tensor batch = Tensor::uniform(Shape{4, 24}, rng, -1.0f, 1.0f);
  expect_bitwise(model.forward(batch), eager.forward(batch));
}

TEST(GraphExecutor, RejectsUnprocessedGraph) {
  auto enc = eval_encoder("resnet18", 21);
  graph::Graph g = graph::trace(*enc.backbone, Shape{3, kH, kW});
  EXPECT_THROW(graph::CompiledModel(std::move(g), 1), CheckError);
}

TEST(GraphPasses, DeadOpEliminationDropsUnusedBranch) {
  graph::Graph g;
  g.input = g.add_value(Shape{8}, "in");
  graph::Node live;
  live.op = graph::Op::kRelu;
  live.inputs = {g.input};
  live.label = "live";
  live.output = g.add_value(Shape{8}, "live");
  g.nodes.push_back(live);
  graph::Node dead;
  dead.op = graph::Op::kRelu;
  dead.inputs = {g.input};
  dead.label = "dead-branch";
  dead.output = g.add_value(Shape{8}, "dead");
  g.nodes.push_back(dead);
  g.output = g.nodes[0].output;

  EXPECT_EQ(graph::eliminate_dead_ops(g), 1u);
  ASSERT_EQ(g.nodes.size(), 1u);
  EXPECT_EQ(g.nodes[0].label, "live");
  EXPECT_EQ(g.output, g.nodes[0].output);
}

// Planner property: whatever the lifetimes, two buffers alive at the same
// step must never overlap in the arena, and every offset stays aligned.
TEST(GraphPlanner, RandomizedLifetimesNeverOverlap) {
  Rng rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    const int count = rng.uniform_int(2, 40);
    std::vector<graph::PlannedBuffer> buffers;
    for (int i = 0; i < count; ++i) {
      graph::PlannedBuffer b;
      b.bytes = rng.uniform_int(1, 5000);
      b.first = rng.uniform_int(0, 24);
      b.last = b.first + rng.uniform_int(0, 10);
      buffers.push_back(b);
    }
    const std::int64_t peak =
        graph::assign_offsets(buffers, graph::kArenaAlign);
    for (const auto& b : buffers) {
      EXPECT_GE(b.offset, 0);
      EXPECT_EQ(b.offset % graph::kArenaAlign, 0);
      EXPECT_LE(b.offset + b.bytes, peak);
    }
    for (std::size_t i = 0; i < buffers.size(); ++i)
      for (std::size_t j = i + 1; j < buffers.size(); ++j) {
        const auto& a = buffers[i];
        const auto& b = buffers[j];
        if (a.last < b.first || a.first > b.last) continue;  // disjoint lives
        const bool disjoint_mem = a.offset + a.bytes <= b.offset ||
                                  b.offset + b.bytes <= a.offset;
        EXPECT_TRUE(disjoint_mem)
            << "trial " << trial << ": buffers " << i << " and " << j
            << " overlap in time and memory";
      }
  }
}

// Acceptance gate: on ResNet-18 the planned arena must come in at or under
// 60% of the naive one-allocation-per-buffer footprint.
TEST(GraphPlanner, ArenaWellUnderNaiveOnResnet18) {
  auto enc = eval_encoder("resnet18", 29);
  auto model = graph::compile(
      *enc.backbone, Shape{3, kH, kW},
      graph::CompileOptions{4, graph::Precision::kF32, true});
  const graph::ArenaPlan& plan = model.plan();
  ASSERT_GT(plan.naive_bytes, 0);
  ASSERT_GT(plan.arena_bytes, 0);
  EXPECT_LE(plan.arena_bytes * 100, plan.naive_bytes * 60)
      << "arena " << plan.arena_bytes << " vs naive " << plan.naive_bytes;
}

TEST(GraphPlanner, DumpAnnotatesOffsets) {
  auto enc = eval_encoder("resnet18", 33);
  auto model = graph::compile(
      *enc.backbone, Shape{3, kH, kW},
      graph::CompileOptions{2, graph::Precision::kF32, true});
  const std::string text = graph::dump(model.graph(), model.plan());
  EXPECT_NE(text.find("arena "), std::string::npos);
  EXPECT_NE(text.find("@arena+"), std::string::npos);
  EXPECT_NE(text.find("scratch["), std::string::npos);
  EXPECT_NE(text.find("@external"), std::string::npos);
}

}  // namespace
}  // namespace cq
