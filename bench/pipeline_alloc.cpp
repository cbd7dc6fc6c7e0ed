// Steady-state allocation/throughput bench for the pooled-tensor pipeline.
//
// Trains each CQ variant for a few epochs on the synthetic CIFAR stand-in
// and reports, per variant: ms per iteration at steady state, heap
// allocations during the first (cold-pool) iteration — which approximates
// the pre-pool per-iteration allocation behavior, since a cold pool misses
// on exactly the tensors the old Tensor malloc'd every iteration — and heap
// allocations per iteration once the pool is warm. The headline number is
// the steady-state reduction vs the cold baseline.
//
// Usage: pipeline_alloc [--json=PATH] [--trace=PATH]   (run_benches.sh
// writes the JSON to bench_out/pipeline.json. --trace enables the
// scoped-span tracer and writes a chrome://tracing document covering every
// variant's run.)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/simclr.hpp"
#include "core/trace.hpp"
#include "data/synth.hpp"
#include "tensor/storage.hpp"
#include "util/table.hpp"

using namespace cq;

namespace {

struct VariantResult {
  std::string name;
  int branches = 0;
  std::int64_t iterations = 0;
  double ms_per_iter = 0.0;
  std::uint64_t first_iter_allocs = 0;
  double steady_allocs_per_iter = 0.0;
  double reduction_pct = 0.0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

VariantResult run_variant(core::CqVariant variant,
                          const data::Dataset& dataset) {
  core::PretrainConfig cfg;
  cfg.variant = variant;
  if (variant != core::CqVariant::kVanilla)
    cfg.precisions = quant::PrecisionSet::range(6, 16);
  if (variant == core::CqVariant::kCqQuant) cfg.augment.identity = true;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  cfg.lr = 0.05f;
  cfg.warmup_epochs = 0;
  cfg.proj_hidden = 32;
  cfg.proj_dim = 16;
  cfg.seed = 7;

  // Fresh encoder per variant; trim the pool so every variant starts cold
  // and first-iteration numbers are comparable.
  tensor::trim_pool();
  Rng rng(42);
  auto encoder = models::make_encoder("resnet18", rng);
  core::SimClrCqTrainer trainer(encoder, cfg);
  const auto stats = trainer.train(dataset);

  VariantResult r;
  r.name = core::variant_name(variant);
  r.branches = core::branches_per_iteration(variant);
  r.iterations = stats.iterations;
  if (!stats.epoch_seconds.empty() && stats.iterations > 0) {
    const auto iters_per_epoch =
        stats.iterations / static_cast<std::int64_t>(stats.epoch_seconds.size());
    if (iters_per_epoch > 0)
      r.ms_per_iter = stats.epoch_seconds.back() * 1000.0 /
                      static_cast<double>(iters_per_epoch);
  }
  r.first_iter_allocs = stats.first_iteration_heap_allocs;
  r.steady_allocs_per_iter = stats.steady_allocs_per_iteration;
  if (r.first_iter_allocs > 0)
    r.reduction_pct = 100.0 * (1.0 - r.steady_allocs_per_iter /
                                         static_cast<double>(
                                             r.first_iter_allocs));
  r.pool_hits = stats.pool_hits;
  r.pool_misses = stats.pool_misses;
  return r;
}

void write_json(const std::string& path,
                const std::vector<VariantResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"pipeline_alloc\",\n");
  std::fprintf(f, "  \"unit\": \"heap allocations per iteration\",\n");
  std::fprintf(
      f,
      "  \"regenerate\": \"build/bench/pipeline_alloc "
      "--json=bench_out/pipeline.json\",\n");
  std::fprintf(
      f,
      "  \"baseline\": \"first (cold-pool) iteration: every pool miss there "
      "is a malloc the pre-pool Tensor paid per iteration\",\n");
  std::fprintf(f, "  \"setup\": {\"arch\": \"resnet18\", \"dataset\": "
                  "\"synth-cifar-64\", \"batch\": 16, \"epochs\": 3},\n");
  std::fprintf(f, "  \"variants\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"branches\": %d, \"iterations\": %lld, "
        "\"ms_per_iter\": %.2f, \"first_iter_heap_allocs\": %llu, "
        "\"steady_allocs_per_iter\": %.3f, \"reduction_pct\": %.2f, "
        "\"pool_hits\": %llu, \"pool_misses\": %llu}%s\n",
        r.name.c_str(), r.branches,
        static_cast<long long>(r.iterations), r.ms_per_iter,
        static_cast<unsigned long long>(r.first_iter_allocs),
        r.steady_allocs_per_iter, r.reduction_pct,
        static_cast<unsigned long long>(r.pool_hits),
        static_cast<unsigned long long>(r.pool_misses),
        i + 1 < results.size() ? "," : "");
  }
  // Aggregate profiler table, cumulative over every variant above: where
  // the iteration time actually goes (gemm, pack, im2col, augment, ...).
  std::fprintf(f, "  ],\n  \"profile\": %s\n}\n", prof::json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  if (!trace_path.empty()) trace::enable(true);

  auto scfg = data::synth_cifar_config();
  Rng data_rng(scfg.seed);
  const auto dataset = data::make_synth_dataset(scfg, 64, data_rng);

  const core::CqVariant variants[] = {
      core::CqVariant::kVanilla, core::CqVariant::kCqA,
      core::CqVariant::kCqB, core::CqVariant::kCqC,
      core::CqVariant::kCqQuant};

  std::vector<VariantResult> results;
  for (auto v : variants) {
    results.push_back(run_variant(v, dataset));
    const auto& r = results.back();
    std::printf("%-9s branches=%d iters=%lld ms/iter=%.1f cold=%llu "
                "steady=%.2f/iter reduction=%.1f%%\n",
                r.name.c_str(), r.branches,
                static_cast<long long>(r.iterations), r.ms_per_iter,
                static_cast<unsigned long long>(r.first_iter_allocs),
                r.steady_allocs_per_iter, r.reduction_pct);
  }

  if (!json_path.empty()) write_json(json_path, results);
  if (!trace_path.empty()) {
    trace::enable(false);
    if (trace_export::chrome(trace_path))
      std::printf("wrote %s (%zu spans, %llu dropped)\n", trace_path.c_str(),
                  trace::span_count(),
                  static_cast<unsigned long long>(trace::dropped()));
    else
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  return 0;
}
