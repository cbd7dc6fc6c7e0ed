// Per-layer probes and the traced-run report.
//
// The probes time public entry points in isolation: serve::make_instance
// (graph compile), ModelInstance::forward at the serving widths, and the
// gemm / igemm kernels at the GEMM shapes ResNet-18's convolutions produce
// on 16x16 inputs. FLOPs come from layer shapes, never from the kernels.
#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "core/prof.hpp"
#include "core/trace.hpp"
#include "graph/executor.hpp"
#include "serve/model.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/igemm.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cq;

namespace {

constexpr std::int64_t kImg = 16;

/// Median wall time of `reps` calls of fn, in microseconds, after one
/// untimed warm-up call.
template <class F>
double median_us(int reps, F&& fn) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0) * 1e6);
  }
  return median(t);
}

/// Layer shapes of an encoder's compiled graph.
struct GraphShapes {
  /// 2 * MACs per sample of every conv, linear and patch-embed node.
  double flops_per_sample = 0.0;
  /// Distinct (Cout, krows, output pixels) of the conv nodes.
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> convs;
};

GraphShapes graph_shapes(models::Encoder& enc) {
  auto plan = graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                             graph::CompileOptions{1, graph::Precision::kF32,
                                                   true});
  GraphShapes out;
  for (const auto& node : plan.graph().nodes) {
    if (node.op != graph::Op::kConv2d && node.op != graph::Op::kLinear &&
        node.op != graph::Op::kPatchEmbed)
      continue;
    const std::int64_t rows =
        plan.graph().value(node.output).shape.numel() / node.weight.dim(0);
    out.flops_per_sample +=
        2.0 * static_cast<double>(node.weight.numel()) * static_cast<double>(rows);
    if (node.op == graph::Op::kConv2d)
      out.convs.insert({node.weight.dim(0), node.weight.dim(1), rows});
  }
  return out;
}

struct PlanProbe {
  double compile_ms = 0.0, arena_kb = 0.0, fwd_b1_us = 0.0, fwd_bn_us = 0.0;
};

PlanProbe probe_plan(const Args& args, const std::string& arch,
                     std::int64_t width, Rng& rng) {
  auto enc = load_encoder(arch, checkpoint(args, arch));
  PlanProbe p;
  std::unique_ptr<serve::ModelInstance> inst;
  std::vector<double> compile_ms;
  for (int i = 0; i < (args.tiny ? 1 : 3); ++i) {
    inst.reset();
    const auto t0 = Clock::now();
    inst = serve::make_instance(serve::InstanceKind::kInt8, *enc.backbone,
                                Shape{3, kImg, kImg}, width);
    compile_ms.push_back(seconds_since(t0) * 1e3);
  }
  p.compile_ms = median(compile_ms);
  p.arena_kb = static_cast<double>(inst->arena_bytes()) / 1024.0;
  const Tensor one = Tensor::uniform(Shape{1, 3, kImg, kImg}, rng, -1.0f, 1.0f);
  const Tensor many =
      Tensor::uniform(Shape{width, 3, kImg, kImg}, rng, -1.0f, 1.0f);
  p.fwd_b1_us = median_us(args.tiny ? 5 : 200, [&] { inst->forward(one); });
  p.fwd_bn_us = median_us(args.tiny ? 3 : 40, [&] { inst->forward(many); });
  return p;
}

}  // namespace

void layer_probes(const Args& args, Result& out) {
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 41);

  const PlanProbe r18 = probe_plan(args, "resnet18", 32, rng);
  const PlanProbe vit = probe_plan(args, "vit", 8, rng);
  auto enc = load_encoder("resnet18", checkpoint(args, "resnet18"));
  const GraphShapes shapes = graph_shapes(enc);
  out.set("graph.compile_ms.r18", r18.compile_ms, "ms");
  out.set("graph.compile_ms.vit", vit.compile_ms, "ms");
  out.set("graph.arena_kb.r18", r18.arena_kb, "KiB");
  out.set("graph.arena_kb.vit", vit.arena_kb, "KiB");
  out.set("graph.fwd_us.r18.b1", r18.fwd_b1_us, "us");
  out.set("graph.fwd_us.r18.b32", r18.fwd_bn_us, "us");
  out.set("graph.fwd_us.vit.b1", vit.fwd_b1_us, "us");
  out.set("graph.fwd_us.vit.b8", vit.fwd_bn_us, "us");
  out.set("graph.gflops.r18.b32",
          shapes.flops_per_sample * 32 / (r18.fwd_bn_us * 1e3), "GFLOP/s");

  // Kernel throughput at ResNet-18's conv GEMM shapes: igemm as the int8
  // plan runs them at batch 32 (n = pixels x 32), fp32 gemm in the three
  // orientations of a training conv's per-sample forward and backward.
  const int reps = args.tiny ? 2 : 5;
  double iflop = 0.0, ius = 0.0;
  double sflop = 0.0, nn_us = 0.0, nt_us = 0.0, tn_us = 0.0;
  for (const auto& [m, k, px] : shapes.convs) {
    const std::int64_t n = px * 32;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<std::int8_t> ap(static_cast<std::size_t>(igemm::packed_a_bytes(m, k)));
    std::vector<std::int32_t> rowsum(static_cast<std::size_t>(igemm::round_up(m, igemm::kMR)));
    std::vector<std::uint8_t> bp(static_cast<std::size_t>(igemm::packed_b_bytes(k, n)));
    std::vector<float> inv(static_cast<std::size_t>(n), 100.0f);
    std::vector<float> scale(static_cast<std::size_t>(std::max(m, n)), 0.01f);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    igemm::pack_a_s8(a.data(), m, k, ap.data(), rowsum.data());
    igemm::pack_b_quantized(b.data(), n, 1, k, n, inv.data(), bp.data());
    igemm::Epilogue ep;
    ep.row_scale = scale.data();
    ep.col_scale = scale.data();
    iflop += 2.0 * double(m) * double(n) * double(k);
    ius += median_us(reps, [&] {
      igemm::gemm(m, n, k, ap.data(), rowsum.data(), bp.data(), c.data(), n, ep);
    });

    std::vector<float> w(static_cast<std::size_t>(m * k)), col(
        static_cast<std::size_t>(k * px)), o(static_cast<std::size_t>(m * px)),
        g(static_cast<std::size_t>(m * k));
    for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : col) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    sflop += 2.0 * double(m) * double(k) * double(px);
    nn_us += median_us(reps, [&] {
      gemm::gemm(gemm::Trans::kNN, m, px, k, w.data(), col.data(), o.data());
    });
    nt_us += median_us(reps, [&] {
      gemm::gemm(gemm::Trans::kNT, m, k, px, o.data(), col.data(), g.data());
    });
    tn_us += median_us(reps, [&] {
      gemm::gemm(gemm::Trans::kTN, k, px, m, w.data(), o.data(), col.data());
    });
  }
  out.set("tensor.igemm_gflops", iflop / (ius * 1e3), "GFLOP/s");
  out.set("tensor.sgemm_gflops.nn", sflop / (nn_us * 1e3), "GFLOP/s");
  out.set("tensor.sgemm_gflops.nt", sflop / (nt_us * 1e3), "GFLOP/s");
  out.set("tensor.sgemm_gflops.tn", sflop / (tn_us * 1e3), "GFLOP/s");

  train_probe(args, out);
}

void report_self_times(const SelfTimes& st,
                       const std::map<std::string, double>& counted_ms,
                       double untraced_thread_us_per_op,
                       double traced_thread_us_per_op, std::uint64_t ops,
                       Result& out) {
  auto found = [](const std::map<std::string, double>& m,
                  const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  // Busy time per layer: span self time outside the load generator's `bench`
  // layer, less serve.batch_form, whose self time is a worker blocked on its
  // queue, plus the time layers without spans count themselves.
  const double wait_ms = found(st.by_name_ms, "serve.batch_form");
  std::map<std::string, double> busy_ms = st.by_layer_ms;
  busy_ms.erase("bench");
  busy_ms["serve"] -= wait_ms;
  for (const auto& [layer, ms] : counted_ms) busy_ms[layer] += ms;
  double busy_total = 0.0;
  for (const auto& [layer, ms] : busy_ms) busy_total += ms;
  const double total = std::max(busy_total, 1e-9);
  for (const auto& layer : traced_layers())
    out.set("self_pct." + layer, 100.0 * found(busy_ms, layer) / total, "%");
  for (const auto& op : traced_node_ops())
    out.set("graph.node." + op + ".self_pct",
            100.0 * found(st.by_name_ms, "graph.node." + op) / total, "%");

  // Reconciliation: busy time per op of the traced pass against the working
  // threads' time per op of the untraced pass. The residual is the time no
  // busy layer accounts for -- the measured queue wait, a search caller
  // blocked on its encode leg, code outside every span -- less the tracing
  // overhead that inflates the traced side.
  const double per_op = std::max<double>(1.0, static_cast<double>(ops));
  const double busy_us = busy_total * 1e3 / per_op;
  const double wait_us = wait_ms * 1e3 / per_op;
  out.set("bench.untraced_us_per_op", untraced_thread_us_per_op, "us");
  out.set("bench.traced_busy_us_per_op", busy_us, "us");
  out.set("bench.queue_wait_us_per_op", wait_us, "us");
  out.set("bench.reconcile_residual_pct",
          100.0 * (untraced_thread_us_per_op - busy_us) /
              untraced_thread_us_per_op,
          "%");
  out.set("bench.unexplained_pct",
          100.0 * (untraced_thread_us_per_op - busy_us - wait_us) /
              untraced_thread_us_per_op,
          "%");
  out.set("bench.trace_overhead_pct",
          100.0 * (traced_thread_us_per_op / untraced_thread_us_per_op - 1.0),
          "%");
  out.set("bench.trace_dropped", static_cast<double>(trace::dropped()), "count");

  // Kernel time and bytes per op from the profiler counters of the traced
  // pass (inclusive of the spans nested under each kernel).
  const auto snap = prof::snapshot();
  for (const char* name : {"gemm", "igemm", "im2col"}) {
    double ms = 0.0, mb = 0.0;
    for (const auto& c : snap)
      if (c.name == name || (std::string(name) == "im2col" && c.name == "im2row")) {
        ms += static_cast<double>(c.total_ns) / 1e6;
        mb += static_cast<double>(c.bytes) / 1e6;
      }
    out.set(std::string("tensor.") + name + "_ms_per_op", ms / per_op, "ms");
    out.set(std::string("tensor.") + name + "_mb_per_op", mb / per_op, "MB");
  }
}

}  // namespace perfbench
