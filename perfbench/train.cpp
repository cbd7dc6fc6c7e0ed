// Training-layer probe: one epoch of CQ-C contrastive pretraining (the
// paper's method) of a ResNet-18 over seeded SynthVision images, reported by
// every traced run. Training has no end-to-end workload of its own: a
// train_cqc workload did not repeat within its bounds on the reference host
// (README.md, steadiness report), so the training layers reach the
// benchmark as per-layer figures.
//
// Per-iteration latency comes from the trainer's own always-on
// `simclr.iteration` profiler counter, sampled from a second thread: each
// time its call count steps by one, the step in its total time is that
// iteration's duration.
#include <cmath>
#include <thread>

#include "core/prof.hpp"
#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cq;

namespace {

core::PretrainConfig train_config(std::uint64_t seed) {
  core::PretrainConfig cfg;
  cfg.variant = core::CqVariant::kCqC;
  cfg.precisions = quant::PrecisionSet::range(6, 16);
  cfg.batch_size = 32;
  cfg.lr = 0.1f;
  cfg.warmup_epochs = 1;
  cfg.proj_hidden = 32;
  cfg.proj_dim = 16;
  cfg.tau = 0.5f;
  cfg.epochs = 1;
  cfg.seed = seed;
  return cfg;
}

/// Samples the trainer's iteration counter until a stop is requested, with
/// one last read after that; returns one duration (us) per iteration.
std::vector<double> sample_iterations(std::stop_token stop) {
  prof::Counter& c = prof::Counter::get("simclr.iteration");
  std::vector<double> out;
  std::uint64_t calls = c.calls(), ns = c.total_ns();
  for (bool last = false; !last;) {
    last = stop.stop_requested();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::uint64_t now_ns = c.total_ns();
    const std::uint64_t now_calls = c.calls();
    // calls is bumped with total_ns in one record(); re-read the total so
    // a record landing between the two reads is not split.
    if (now_calls == calls || c.total_ns() != now_ns) continue;
    const double per = static_cast<double>(now_ns - ns) / 1e3 /
                       static_cast<double>(now_calls - calls);
    for (std::uint64_t i = calls; i < now_calls; ++i) out.push_back(per);
    calls = now_calls;
    ns = now_ns;
  }
  return out;
}

}  // namespace

void train_probe(const Args& args, Result& out) {
  // The class definitions stay fixed; the seed draws the instances.
  const data::SynthConfig scfg = data::synth_cifar_config();
  Rng data_rng(args.seed * 1000003 + 1);
  const auto dataset =
      data::make_synth_dataset(scfg, args.tiny ? 64 : 256, data_rng);
  Rng init(7);  // fixed-seed weights, as in the serving workloads
  auto encoder = models::make_encoder("resnet18", init);
  core::SimClrCqTrainer trainer(encoder, train_config(args.seed));

  prof::reset();
  std::vector<double> iter_us;
  core::PretrainStats st;
  {
    // Stopped and joined when the scope ends, also if train() throws.
    std::jthread sampler(
        [&](std::stop_token stop) { iter_us = sample_iterations(stop); });
    st = trainer.train(dataset);
  }
  bool finite = std::isfinite(st.final_loss);
  for (float l : st.epoch_loss) finite = finite && std::isfinite(l);
  if (!finite || st.diverged)
    fail_gate("training probe diverged or produced a non-finite loss");
  out.add_phase({"train_probe", static_cast<std::uint64_t>(st.iterations),
                 static_cast<std::uint64_t>(st.iterations), 0});

  const auto snap = prof::snapshot();
  const double iters = static_cast<double>(std::max<std::int64_t>(1, st.iterations));
  auto per_iter_ms = [&](const char* name) {
    for (const auto& c : snap)
      if (c.name == name) return static_cast<double>(c.total_ns) / 1e6 / iters;
    return 0.0;
  };
  out.set("train.iter_ms_p50", percentile(iter_us, 50) / 1e3, "ms");
  out.set("train.augment_ms", per_iter_ms("simclr.augment"), "ms");
  out.set("train.forward_ms", per_iter_ms("simclr.forward"), "ms");
  out.set("train.backward_ms", per_iter_ms("simclr.backward"), "ms");
  out.set("train.loss_ms", per_iter_ms("simclr.loss"), "ms");
  out.set("train.step_ms", per_iter_ms("simclr.step"), "ms");
  out.set("quant.weight_apply_ms", per_iter_ms("quant.weight.apply"), "ms");
  out.set("quant.quantize_ms", per_iter_ms("kernels.quantize"), "ms");
  out.set("train.steady_allocs_per_iter", st.steady_allocs_per_iteration,
          "count");
}

}  // namespace perfbench
