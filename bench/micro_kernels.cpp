// Microbenchmarks (google-benchmark) for the kernels the CQ pipelines lean
// on: the Eq. 10 quantizer, GEMM, convolution forward/backward, NT-Xent, and
// the augmentation pipeline. Also serves as the ablation bench for the
// quantizer's rounding / range-mode design choices (DESIGN.md Sec. 5).
//
// Two extra modes bypass the google-benchmark runner:
//   --gemm_json=PATH  time blocked vs reference GEMM per shape class and
//                     write the GFLOP/s report to PATH (run_benches.sh
//                     writes bench_out/gemm.json; see DESIGN.md).
//   --gemm_smoke      tiny-size run of the same harness incl. equivalence
//                     checks; wired up as the `bench_smoke` ctest (label
//                     `bench`) so CI catches bench bitrot cheaply.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/losses.hpp"
#include "data/augment.hpp"
#include "data/synth.hpp"
#include "nn/conv2d.hpp"
#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace cq;

void BM_QuantizeMinMaxNearest(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{state.range(0)}, rng);
  quant::LinearQuantizer q;
  for (auto _ : state)
    benchmark::DoNotOptimize(q.quantize(a, static_cast<int>(state.range(1))));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeMinMaxNearest)
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Args({65536, 4})
    ->Args({65536, 8});

void BM_QuantizeFloorVsNearest(benchmark::State& state) {
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{65536}, rng);
  quant::QuantizerConfig cfg;
  cfg.rounding = state.range(0) == 0 ? quant::RoundingMode::kNearest
                                     : quant::RoundingMode::kFloor;
  quant::LinearQuantizer q(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(q.quantize(a, 8));
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_QuantizeFloorVsNearest)->Arg(0)->Arg(1);

void BM_QuantizePercentileRange(benchmark::State& state) {
  Rng rng(3);
  Tensor a = Tensor::randn(Shape{65536}, rng);
  quant::QuantizerConfig cfg;
  cfg.range = quant::RangeMode::kPercentile;
  quant::LinearQuantizer q(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(q.quantize(a, 8));
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_QuantizePercentileRange);

// ---- GEMM: blocked kernels vs the naive reference --------------------------
//
// Shape classes mirror the library's real GEMM call sites:
//   conv     NN  [cout, krows] x [krows, oh*ow]   (im2col forward)
//   head     NT  [batch, in] x [out, in]^T        (Linear forward)
//   backward TN  [batch, out]^T x [batch, in]     (Linear dW)

struct GemmShape {
  const char* cls;
  gemm::Trans trans;
  std::int64_t m, n, k;
};

const char* trans_name(gemm::Trans t) {
  switch (t) {
    case gemm::Trans::kNN: return "NN";
    case gemm::Trans::kTN: return "TN";
    case gemm::Trans::kNT: return "NT";
  }
  return "?";
}

std::pair<std::int64_t, std::int64_t> gemm_operand_sizes(const GemmShape& s) {
  switch (s.trans) {
    case gemm::Trans::kNN: return {s.m * s.k, s.k * s.n};
    case gemm::Trans::kTN: return {s.k * s.m, s.k * s.n};
    case gemm::Trans::kNT: return {s.m * s.k, s.n * s.k};
  }
  return {0, 0};
}

using GemmFn = void (*)(gemm::Trans, std::int64_t, std::int64_t, std::int64_t,
                        const float*, const float*, float*, bool);

/// Time `fn` on shape `s`, returning GFLOP/s (bench::time_best: each of
/// the three runs calibrated to ~0.1s, at least `min_reps` calls).
double gemm_gflops(GemmFn fn, const GemmShape& s, const Tensor& a,
                   const Tensor& b, Tensor& c, int min_reps) {
  const double flops = 2.0 * double(s.m) * double(s.n) * double(s.k);
  const double seconds = bench::time_best(
      [&] { fn(s.trans, s.m, s.n, s.k, a.data(), b.data(), c.data(), false); },
      0.1, min_reps);
  return flops / seconds / 1e9;
}

/// Run the blocked-vs-reference sweep; write JSON to `path` when non-empty.
/// Returns 0 on success, 1 if any blocked result drifts from the reference
/// (so the bench doubles as an equivalence check in CI smoke runs).
int run_gemm_report(const std::string& path, bool smoke) {
  const std::vector<GemmShape> shapes =
      smoke ? std::vector<GemmShape>{{"conv", gemm::Trans::kNN, 9, 33, 17},
                                     {"head", gemm::Trans::kNT, 5, 9, 13},
                                     {"backward", gemm::Trans::kTN, 9, 13, 5}}
            : std::vector<GemmShape>{
                  // conv-shaped: resnet stage at 32x32 and the repo's
                  // width-8 tiny stage at 16x16
                  {"conv", gemm::Trans::kNN, 64, 1024, 576},
                  {"conv", gemm::Trans::kNN, 16, 256, 72},
                  // head-shaped: projection/prediction MLPs
                  {"head", gemm::Trans::kNT, 128, 128, 512},
                  {"head", gemm::Trans::kNT, 64, 16, 32},
                  // backward-shaped: weight gradients
                  {"backward", gemm::Trans::kTN, 512, 128, 128},
                  {"backward", gemm::Trans::kTN, 576, 1024, 64},
              };
  int rc = 0;
  std::string body;
  char line[512];
  Rng rng(0xBE7C);
  for (std::size_t idx = 0; idx < shapes.size(); ++idx) {
    const GemmShape& s = shapes[idx];
    const auto [asize, bsize] = gemm_operand_sizes(s);
    Tensor a = Tensor::randn(Shape{asize}, rng);
    Tensor b = Tensor::randn(Shape{bsize}, rng);
    Tensor c(Shape{s.m * s.n}), c_ref(Shape{s.m * s.n});
    // Equivalence first: a bench comparing two kernels that disagree would
    // be reporting nonsense.
    gemm::gemm(s.trans, s.m, s.n, s.k, a.data(), b.data(), c.data(), false);
    gemm::reference::gemm(s.trans, s.m, s.n, s.k, a.data(), b.data(),
                          c_ref.data(), false);
    double max_err = 0.0;
    for (std::int64_t i = 0; i < s.m * s.n; ++i)
      max_err = std::max(max_err, std::abs(double(c[i]) - c_ref[i]) /
                                      (1.0 + std::abs(double(c_ref[i]))));
    if (max_err > 1e-4) {
      std::fprintf(stderr, "FAIL %s %s: blocked vs reference err %.3g\n",
                   s.cls, trans_name(s.trans), max_err);
      rc = 1;
    }
    const int min_reps = smoke ? 1 : 5;
    const double ref = gemm_gflops(gemm::reference::gemm, s, a, b, c_ref,
                                   min_reps);
    const double blk = gemm_gflops(gemm::gemm, s, a, b, c, min_reps);
    std::snprintf(line, sizeof(line),
                  "    {\"class\": \"%s\", \"trans\": \"%s\", \"m\": %lld, "
                  "\"n\": %lld, \"k\": %lld, \"reference_gflops\": %.3f, "
                  "\"blocked_gflops\": %.3f, \"speedup\": %.2f, "
                  "\"max_rel_err\": %.3g}%s\n",
                  s.cls, trans_name(s.trans), static_cast<long long>(s.m),
                  static_cast<long long>(s.n), static_cast<long long>(s.k),
                  ref, blk, blk / ref, max_err,
                  idx + 1 < shapes.size() ? "," : "");
    body += line;
    std::fprintf(stderr, "%-8s %s  m=%-4lld n=%-4lld k=%-4lld  ref %7.3f  "
                 "blocked %7.3f GFLOP/s  (%.2fx)\n",
                 s.cls, trans_name(s.trans), static_cast<long long>(s.m),
                 static_cast<long long>(s.n), static_cast<long long>(s.k),
                 ref, blk, blk / ref);
  }
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"gemm_micro\",\n";
  json += "  \"unit\": \"gflops\",\n";
  json += "  \"regenerate\": \"build/bench/micro_kernels "
          "--gemm_json=bench_out/gemm.json\",\n";
  std::snprintf(line, sizeof(line),
                "  \"tile\": {\"mr\": %lld, \"nr\": %lld, \"mc\": %lld, "
                "\"kc\": %lld, \"nc\": %lld},\n",
                static_cast<long long>(gemm::kMR),
                static_cast<long long>(gemm::kNR),
                static_cast<long long>(gemm::kMC),
                static_cast<long long>(gemm::kKC),
                static_cast<long long>(gemm::kNC));
  json += line;
  json += "  \"cases\": [\n" + body + "  ]\n}\n";
  if (!path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    out << json;
  }
  return rc;
}

void BM_GemmConvShaped(benchmark::State& state) {
  Rng rng(40);
  const std::int64_t m = 64, n = 1024, k = 576;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  const bool blocked = state.range(0) != 0;
  for (auto _ : state) {
    if (blocked)
      gemm::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(), c.data());
    else
      gemm::reference::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(),
                            c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);  // flops
}
BENCHMARK(BM_GemmConvShaped)->Arg(0)->Arg(1);

void BM_GemmHeadShaped(benchmark::State& state) {
  Rng rng(41);
  const std::int64_t m = 128, n = 128, k = 512;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{n, k}, rng);
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    gemm::gemm(gemm::Trans::kNT, m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmHeadShaped);

void BM_GemmBackwardShaped(benchmark::State& state) {
  Rng rng(42);
  const std::int64_t m = 512, n = 128, k = 128;
  Tensor a = Tensor::randn(Shape{k, m}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    gemm::gemm(gemm::Trans::kTN, m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmBackwardShaped);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv({.in_channels = 8, .out_channels = 16, .kernel = 3,
                   .stride = 1, .pad = 1},
                  rng);
  conv.set_mode(nn::Mode::kEval);
  Tensor x = Tensor::randn(Shape{state.range(0), 8, 16, 16}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(8)->Arg(32);

void BM_Conv2dTrainStep(benchmark::State& state) {
  Rng rng(5);
  nn::Conv2d conv({.in_channels = 8, .out_channels = 16, .kernel = 3,
                   .stride = 1, .pad = 1},
                  rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(conv.backward(Tensor::ones(y.shape())));
    conv.zero_grad();
  }
}
BENCHMARK(BM_Conv2dTrainStep);

void BM_DepthwiseConvForward(benchmark::State& state) {
  Rng rng(6);
  nn::Conv2d conv({.in_channels = 16, .out_channels = 16, .kernel = 3,
                   .stride = 1, .pad = 1, .groups = 16},
                  rng);
  conv.set_mode(nn::Mode::kEval);
  Tensor x = Tensor::randn(Shape{8, 16, 16, 16}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_DepthwiseConvForward);

void BM_NtXent(benchmark::State& state) {
  Rng rng(7);
  Tensor za = Tensor::randn(Shape{state.range(0), 16}, rng);
  Tensor zb = Tensor::randn(Shape{state.range(0), 16}, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::nt_xent(za, zb, 0.5f));
}
BENCHMARK(BM_NtXent)->Arg(16)->Arg(32)->Arg(64);

void BM_AugmentPipeline(benchmark::State& state) {
  Rng rng(8);
  auto cfg = data::synth_cifar_config();
  const auto ds = data::make_synth_dataset(cfg, 8, rng);
  data::AugmentPipeline aug;
  for (auto _ : state)
    benchmark::DoNotOptimize(aug(ds.images[0], rng));
}
BENCHMARK(BM_AugmentPipeline);

void BM_SynthRender(benchmark::State& state) {
  Rng rng(9);
  const auto cls = data::make_class_def(3, 8, 1);
  for (auto _ : state) {
    const auto inst = data::sample_instance(rng, 0.5f);
    benchmark::DoNotOptimize(data::render_instance(cls, inst, 16, 16, rng));
  }
}
BENCHMARK(BM_SynthRender);

}  // namespace

int main(int argc, char** argv) {
  // Pre-parse the GEMM report flags (combinable in any order) before
  // handing the rest to google-benchmark.
  std::string gemm_json;
  bool gemm_report = false, gemm_smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--gemm_json=", 0) == 0) {
      gemm_json = arg.substr(12);
      gemm_report = true;
    } else if (arg == "--gemm_smoke") {
      gemm_smoke = gemm_report = true;
    }
  }
  if (gemm_report) return run_gemm_report(gemm_json, gemm_smoke);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
