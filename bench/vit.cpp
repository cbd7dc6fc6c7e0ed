// Transformer-encoder bench (DESIGN.md §16). Three sections:
//
//   attn     attention-shaped GEMM throughput: the score product Q K^T
//            (kNT, [seq, dh] x [seq, dh]) and the value product A V (kNN,
//            [seq, seq] x [seq, dh]) at transformer head shapes. GFLOP/s
//            absolutes for the table (host-dependent).
//
//   forward  compiled-vs-eager ViT forward at serving batch: the static
//            plan (arena + prepacked B + fused epilogues) against the eager
//            module tree, fp32 and int8. The fp32 speedup is a same-host
//            ratio; the int8 plan rides the igemm path the conv backbones
//            already use.
//
//   ptq      the CPT-V story: a CQ-pretrained ViT's embeddings are
//            quantized to int8 three ways — fp32 reference, naive min-max
//            scales, and CPT-V contrastive calibration (quant/ptq.hpp) —
//            and each variant retrieves against the fp32 cosine top-10
//            ground truth. A deployment-recovery leg miscalibrates a plan
//            (stale per-tensor scales) and re-applies the calibrated
//            ScaleTable, which must land bitwise on the calibrated plan.
//            The headline gate: CPT-V recall@10 within 2% of fp32
//            (ROADMAP.md), recovery bitwise, and byte-identical scale
//            tables across two independent calibrations (the determinism
//            contract).
//
// Protocol: bitwise equivalence gates run before any timing — compiled fp32
// plan vs the eager module tree, and pool-size 1 vs 2 parity of the int8
// plan. A mismatch fails the bench and is reported as
// "bitwise_equivalent": false.
//
// Flags: --json=PATH writes the report; --smoke runs the gates + a tiny
// calibration determinism check only (the `vit_bench_smoke` ctest, label
// `bench`).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/threadpool.hpp"
#include "graph/executor.hpp"
#include "quant/ptq.hpp"
#include "search/recall.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace {

using namespace cq;

using bench::check;
using bench::g_failures;
using bench::time_best;

constexpr std::int64_t kImg = 16;
constexpr std::int64_t kTopK = 10;

models::Encoder fresh_vit(std::uint64_t seed) {
  Rng rng(seed);
  auto enc = models::make_encoder("vit", rng);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  return enc;
}

graph::CompiledModel compile_vit(models::Encoder& enc,
                                 std::int64_t max_batch,
                                 graph::Precision precision) {
  return graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                        graph::CompileOptions{max_batch, precision,
                                              /*run_passes=*/true});
}

// ---- equivalence gates -----------------------------------------------------

/// Compiled fp32 == eager bitwise at several widths, and pool-size 1 vs 2
/// parity of the int8 plan. Runs before any timing.
bool equivalence_gate(models::Encoder& enc) {
  auto fp = compile_vit(enc, 4, graph::Precision::kF32);
  Rng rng(0xA77);
  for (std::int64_t n : {1, 3, 4}) {
    const Tensor x = Tensor::uniform(Shape{n, 3, kImg, kImg}, rng,
                                     -1.0f, 1.0f);
    const Tensor eager = enc.backbone->forward(x);
    const Tensor& got = fp.forward(x);
    bool same = got.shape() == eager.shape();
    for (std::int64_t i = 0; same && i < got.numel(); ++i)
      same = got.data()[i] == eager.data()[i];
    check(same, "compiled fp32 != eager (bitwise)");
  }

  auto q = compile_vit(enc, 4, graph::Precision::kInt8);
  const Tensor x = Tensor::uniform(Shape{4, 3, kImg, kImg}, rng, -1.0f, 1.0f);
  core::ThreadPool& pool = core::ThreadPool::instance();
  const std::size_t old_size = pool.size();
  pool.set_size(1);
  const Tensor serial = q.forward(x);  // copy: arena reused below
  pool.set_size(2);
  const Tensor& threaded = q.forward(x);
  pool.set_size(old_size);
  bool same = threaded.shape() == serial.shape();
  for (std::int64_t i = 0; same && i < serial.numel(); ++i)
    same = threaded.data()[i] == serial.data()[i];
  check(same, "int8 plan pool-size 1 != 2 (bitwise)");
  return g_failures == 0;
}

// ---- attn: attention-shaped GEMM throughput --------------------------------

struct AttnCase {
  std::string name;
  std::int64_t seq = 0, dh = 0;
  double gflops = 0.0;
};

std::vector<AttnCase> bench_attn(double target) {
  std::vector<AttnCase> cases;
  Rng rng(0x5C02E);
  struct Shape2 {
    std::int64_t seq, dh;
  };
  for (const auto& s : {Shape2{16, 32}, Shape2{64, 64}, Shape2{256, 64}}) {
    std::vector<float> q(static_cast<std::size_t>(s.seq * s.dh));
    std::vector<float> k(q.size());
    std::vector<float> a(static_cast<std::size_t>(s.seq * s.seq));
    std::vector<float> v(q.size()), o(q.size());
    for (auto& x : q) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : k) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : a) x = rng.uniform(0.0f, 1.0f);
    for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
    const double flops = 2.0 * static_cast<double>(s.seq) * s.seq * s.dh;

    const double ts = time_best(
        [&] {
          gemm::gemm(gemm::Trans::kNT, s.seq, s.seq, s.dh, q.data(), k.data(),
                     a.data(), false);
        },
        target);
    cases.push_back({"score_seq" + std::to_string(s.seq) + "_dh" +
                         std::to_string(s.dh),
                     s.seq, s.dh, flops / ts / 1e9});

    const double tv = time_best(
        [&] {
          gemm::gemm(gemm::Trans::kNN, s.seq, s.dh, s.seq, a.data(), v.data(),
                     o.data(), false);
        },
        target);
    cases.push_back({"value_seq" + std::to_string(s.seq) + "_dh" +
                         std::to_string(s.dh),
                     s.seq, s.dh, flops / tv / 1e9});
  }
  return cases;
}

// ---- forward: compiled vs eager --------------------------------------------

struct ForwardSection {
  std::int64_t batch = 8;
  double eager_ms = 0.0;
  double fp32_ms = 0.0;
  double int8_ms = 0.0;
};

ForwardSection bench_forward(models::Encoder& enc, double target) {
  ForwardSection fwd;
  auto fp = compile_vit(enc, fwd.batch, graph::Precision::kF32);
  auto q = compile_vit(enc, fwd.batch, graph::Precision::kInt8);
  Rng rng(0xF0E);
  const Tensor x = Tensor::uniform(Shape{fwd.batch, 3, kImg, kImg}, rng,
                                   -1.0f, 1.0f);
  fwd.eager_ms =
      1e3 * time_best([&] { enc.backbone->forward(x); }, target);
  fwd.fp32_ms = 1e3 * time_best([&] { fp.forward(x); }, target);
  fwd.int8_ms = 1e3 * time_best([&] { q.forward(x); }, target);
  return fwd;
}

// ---- ptq: CPT-V recall study -----------------------------------------------

struct PtqSection {
  std::int64_t base_rows = 0, num_queries = 0, dim = 0;
  quant::PtqResult result;
  bool deterministic = false;
  double naive_recall = 0.0;
  double cptv_recall = 0.0;
  // The deployment-recovery scenario: a plan with stale/miscalibrated
  // scales, fixed by re-applying the calibrated ScaleTable.
  double miscal_recall = 0.0;
  double reapplied_recall = 0.0;
  bool recovered = false;
};

/// Miscalibrate every int8 layer: one per-tensor scale (the absmax of its
/// per-channel min-max scales) inflated 4x — a stale scale table fit on a
/// different checkpoint / activation range, the classic silent deployment
/// failure. The inflated step size wastes ~2 bits of resolution.
void miscalibrate(graph::CompiledModel& qm) {
  for (std::size_t idx : qm.int8_nodes()) {
    const auto& s = qm.node_scales(idx);
    const float mx = 4.0f * *std::max_element(s.begin(), s.end());
    qm.requantize_node(idx, std::vector<float>(s.size(), mx));
  }
}

/// Chunked forward of [N, ...] through a compiled plan into one [N, D]
/// feature matrix.
Tensor embed_all(graph::CompiledModel& model, const Tensor& images) {
  const std::int64_t n = images.dim(0);
  const std::int64_t per = images.numel() / n;
  Tensor out;
  std::int64_t done = 0;
  while (done < n) {
    const std::int64_t take = std::min(model.max_batch(), n - done);
    Tensor chunk(Shape{take, images.dim(1), images.dim(2), images.dim(3)});
    std::memcpy(chunk.data(), images.data() + done * per,
                static_cast<std::size_t>(take * per) * sizeof(float));
    const Tensor& z = model.forward(chunk);
    if (done == 0) out = Tensor::zeros(Shape{n, z.dim(1)});
    std::memcpy(out.data() + done * z.dim(1), z.data(),
                static_cast<std::size_t>(take * z.dim(1)) * sizeof(float));
    done += take;
  }
  return out;
}

/// recall@k of a quantized embedding space against the fp32 cosine top-k
/// ground truth: both sides retrieve with their own embeddings; overlap of
/// the id sets is averaged over queries.
double recall_vs_fp32(
    const std::vector<std::vector<std::int64_t>>& gt_fp,
    const Tensor& base, const Tensor& queries) {
  const auto got = search::cosine_ground_truth(
      base.data(), base.dim(0), queries.data(), queries.dim(0), base.dim(1),
      kTopK);
  double hits = 0.0;
  for (std::size_t qi = 0; qi < gt_fp.size(); ++qi) {
    for (const std::int64_t id : got[qi])
      if (std::find(gt_fp[qi].begin(), gt_fp[qi].end(), id) !=
          gt_fp[qi].end())
        hits += 1.0;
  }
  return hits / (static_cast<double>(gt_fp.size()) * kTopK);
}

bool tables_equal(const quant::ScaleTable& a, const quant::ScaleTable& b) {
  if (a.labels != b.labels || a.scales.size() != b.scales.size())
    return false;
  for (std::size_t e = 0; e < a.scales.size(); ++e)
    if (a.scales[e] != b.scales[e]) return false;
  return true;
}

PtqSection bench_ptq(models::Encoder& enc, const core::DatasetBundle& bundle,
                     const quant::PtqConfig& config) {
  PtqSection ptq;
  const std::int64_t base_rows =
      std::min<std::int64_t>(256, bundle.ssl_train.size());
  const std::int64_t num_queries =
      std::min<std::int64_t>(64, bundle.test.size());
  ptq.base_rows = base_rows;
  ptq.num_queries = num_queries;

  std::vector<std::int64_t> idx(static_cast<std::size_t>(base_rows));
  for (std::int64_t i = 0; i < base_rows; ++i) idx[static_cast<std::size_t>(i)] = i;
  const Tensor base_imgs = data::gather_images(bundle.ssl_train, idx);
  idx.resize(static_cast<std::size_t>(num_queries));
  const Tensor query_imgs = data::gather_images(bundle.test, idx);

  // Calibration batch: bigger is strictly better for the InfoNCE objective
  // (more negatives -> the accept rule measures the geometry retrieval
  // actually uses; a small batch lets proposals overfit the few samples).
  const std::int64_t max_batch = std::min<std::int64_t>(256, base_rows);
  auto fp = compile_vit(enc, max_batch, graph::Precision::kF32);
  const Tensor base_fp = embed_all(fp, base_imgs);
  const Tensor query_fp = embed_all(fp, query_imgs);
  ptq.dim = base_fp.dim(1);
  const auto gt_fp = search::cosine_ground_truth(
      base_fp.data(), base_rows, query_fp.data(), num_queries, ptq.dim,
      kTopK);

  // Naive min-max scales: the plan exactly as compiled.
  auto naive = compile_vit(enc, max_batch, graph::Precision::kInt8);
  ptq.naive_recall = recall_vs_fp32(gt_fp, embed_all(naive, base_imgs),
                                    embed_all(naive, query_imgs));

  // CPT-V calibration on the first max_batch base images, fp32 embeddings
  // of the same rows as the contrastive reference.
  Tensor calib(Shape{max_batch, 3, kImg, kImg});
  std::memcpy(calib.data(), base_imgs.data(),
              static_cast<std::size_t>(calib.numel()) * sizeof(float));
  Tensor zfp(Shape{max_batch, ptq.dim});
  std::memcpy(zfp.data(), base_fp.data(),
              static_cast<std::size_t>(zfp.numel()) * sizeof(float));

  auto cal = compile_vit(enc, max_batch, graph::Precision::kInt8);
  ptq.result = quant::calibrate(cal, calib, zfp, config);
  const Tensor cal_base = embed_all(cal, base_imgs);
  const Tensor cal_query = embed_all(cal, query_imgs);
  ptq.cptv_recall = recall_vs_fp32(gt_fp, cal_base, cal_query);

  // The deployment-recovery scenario: a serving plan with stale per-tensor
  // scales (the classic silent failure — a table fit on a different
  // checkpoint). The fix the ScaleTable machinery exists for: re-apply the
  // calibrated table by label, which must land the plan bitwise on the
  // calibrated operating point.
  auto pt = compile_vit(enc, max_batch, graph::Precision::kInt8);
  miscalibrate(pt);
  ptq.miscal_recall = recall_vs_fp32(gt_fp, embed_all(pt, base_imgs),
                                     embed_all(pt, query_imgs));
  quant::apply(pt, ptq.result.table);
  const Tensor re_base = embed_all(pt, base_imgs);
  const Tensor re_query = embed_all(pt, query_imgs);
  ptq.reapplied_recall = recall_vs_fp32(gt_fp, re_base, re_query);
  const auto bitwise = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::equal(a.data(), a.data() + a.numel(), b.data());
  };
  ptq.recovered = bitwise(re_base, cal_base) && bitwise(re_query, cal_query);
  check(ptq.recovered,
        "re-applied scale table does not reproduce the calibrated plan");

  // Determinism: a second fresh-plan calibration must emit the identical
  // table byte for byte.
  auto cal2 = compile_vit(enc, max_batch, graph::Precision::kInt8);
  const auto again = quant::calibrate(cal2, calib, zfp, config);
  ptq.deterministic = tables_equal(ptq.result.table, again.table);
  check(ptq.deterministic, "CPT-V tables differ across calibrations");
  return ptq;
}

// ---- report ----------------------------------------------------------------

void write_json(const std::string& path, const std::vector<AttnCase>& attn,
                const ForwardSection& fwd, const PtqSection& ptq,
                const quant::PtqConfig& config) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    ++g_failures;
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"vit\",\n");
  std::fprintf(f,
               "  \"regenerate\": \"build/bench/vit "
               "--json=bench_out/vit.json\",\n");
  std::fprintf(f, "  \"hardware\": {\"cores\": %u, \"cq_threads\": %llu},\n",
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(core::configured_threads()));
  std::fprintf(f, "  \"bitwise_equivalent\": %s,\n",
               g_failures == 0 ? "true" : "false");

  std::fprintf(f, "  \"attn_gemm\": {\"cases\": [\n");
  for (std::size_t i = 0; i < attn.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seq\": %lld, \"d_head\": %lld, "
                 "\"attn_gflops\": %.2f}%s\n",
                 attn[i].name.c_str(), static_cast<long long>(attn[i].seq),
                 static_cast<long long>(attn[i].dh), attn[i].gflops,
                 i + 1 < attn.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");

  std::fprintf(f,
               "  \"forward\": {\"batch\": %lld, \"eager_ms\": %.4f, "
               "\"compiled_fp32_ms\": %.4f, \"compiled_int8_ms\": %.4f, "
               "\"speedup\": %.2f, \"int8_vs_fp32\": %.2f},\n",
               static_cast<long long>(fwd.batch), fwd.eager_ms, fwd.fp32_ms,
               fwd.int8_ms, fwd.eager_ms / fwd.fp32_ms,
               fwd.fp32_ms / fwd.int8_ms);

  std::fprintf(f,
               "  \"ptq\": {\"base_rows\": %lld, \"num_queries\": %lld, "
               "\"dim\": %lld, \"k\": %lld,\n",
               static_cast<long long>(ptq.base_rows),
               static_cast<long long>(ptq.num_queries),
               static_cast<long long>(ptq.dim),
               static_cast<long long>(kTopK));
  std::fprintf(f,
               "    \"calibration\": {\"rounds\": %d, \"candidates\": %d, "
               "\"spread\": %.2f, \"tau\": %.2f, \"proposed\": %d, "
               "\"accepted\": %d, \"initial_loss\": %.6f, \"final_loss\": "
               "%.6f, \"deterministic\": %s},\n",
               config.rounds, config.candidates,
               static_cast<double>(config.spread),
               static_cast<double>(config.tau), ptq.result.proposed,
               ptq.result.accepted,
               static_cast<double>(ptq.result.initial_loss),
               static_cast<double>(ptq.result.final_loss),
               ptq.deterministic ? "true" : "false");
  std::fprintf(f,
               "    \"naive_int8\": {\"recall_at_10\": %.4f},\n"
               "    \"cptv_int8\": {\"recall_at_10\": %.4f},\n"
               "    \"cptv_minus_naive\": %.4f,\n",
               ptq.naive_recall, ptq.cptv_recall,
               ptq.cptv_recall - ptq.naive_recall);
  std::fprintf(f,
               "    \"recovery\": {\"miscalibrated\": {\"recall_at_10\": "
               "%.4f},\n"
               "      \"table_reapplied\": {\"recall_at_10\": %.4f},\n"
               "      \"recovered\": %s}},\n",
               ptq.miscal_recall, ptq.reapplied_recall,
               ptq.recovered ? "true" : "false");

  // The acceptance contract (ROADMAP.md / ISSUE 10): CPT-V int8 retrieval
  // within 2% of the fp32 ground truth at k=10, tables deterministic, the
  // table re-apply recovery bitwise, and every bitwise gate green.
  const bool met = ptq.cptv_recall >= 0.98 && ptq.recovered &&
                   ptq.deterministic && g_failures == 0;
  std::fprintf(f,
               "  \"headline\": {\"recall_at_10\": %.4f, "
               "\"compile_speedup\": %.2f, \"target_met\": %s}\n",
               ptq.cptv_recall, fwd.eager_ms / fwd.fp32_ms,
               met ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (target_met=%s)\n", path.c_str(),
              met ? "true" : "false");
  if (!met) {
    std::fprintf(stderr,
                 "headline target missed: cptv recall@10 %.4f (need >=0.98) "
                 "deterministic=%d\n",
                 ptq.cptv_recall, ptq.deterministic ? 1 : 0);
    ++g_failures;
  }
}

int smoke() {
  auto enc = fresh_vit(42);
  if (!equivalence_gate(enc)) return 1;
  // Tiny calibration determinism check on the random-init encoder.
  Rng rng(0x51);
  const Tensor calib = Tensor::uniform(Shape{4, 3, kImg, kImg}, rng,
                                       -1.0f, 1.0f);
  const Tensor zfp = enc.backbone->forward(calib);
  quant::PtqConfig cfg;
  cfg.rounds = 1;
  cfg.candidates = 2;
  auto q1 = compile_vit(enc, 4, graph::Precision::kInt8);
  auto q2 = compile_vit(enc, 4, graph::Precision::kInt8);
  const auto r1 = quant::calibrate(q1, calib, zfp, cfg);
  const auto r2 = quant::calibrate(q2, calib, zfp, cfg);
  check(tables_equal(r1.table, r2.table), "smoke: tables not deterministic");
  check(r1.final_loss <= r1.initial_loss, "smoke: loss increased");
  if (g_failures != 0) return 1;
  std::printf("VIT_SMOKE_OK\n");
  return 0;
}

int run(const std::string& json_path) {
  // The CQ-pretrained encoder (cached across bench binaries): the PTQ story
  // is about preserving a *trained* embedding geometry.
  const auto bundle = core::make_bundle("synth-cifar");
  core::PretrainConfig pcfg;
  pcfg.variant = core::CqVariant::kCqA;
  pcfg.precisions = quant::PrecisionSet::range(6, 16);
  pcfg.epochs = core::env_int("CQ_EPOCHS", 6);
  pcfg.batch_size = 16;
  pcfg.lr = 0.05f;
  pcfg.warmup_epochs = 0;
  pcfg.proj_hidden = 32;
  pcfg.proj_dim = 16;
  pcfg.seed = 7;
  core::PretrainStats stats;
  auto enc = bench::pretrained_encoder("vit", bundle, pcfg, "simclr",
                                       &stats);
  check(!stats.diverged, "vit pretraining diverged");
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);

  if (!equivalence_gate(enc)) return 1;

  const auto attn = bench_attn(0.1);
  const auto fwd = bench_forward(enc, 0.1);
  const quant::PtqConfig config;  // the library defaults are the contract
  const auto ptq = bench_ptq(enc, bundle, config);

  std::printf("attn GEMM:\n");
  for (const auto& c : attn)
    std::printf("  %-18s %8.2f GFLOP/s\n", c.name.c_str(), c.gflops);
  std::printf(
      "forward batch %lld: eager %.3f ms, compiled fp32 %.3f ms (%.2fx), "
      "int8 %.3f ms\n",
      static_cast<long long>(fwd.batch), fwd.eager_ms, fwd.fp32_ms,
      fwd.eager_ms / fwd.fp32_ms, fwd.int8_ms);
  std::printf(
      "ptq: fp32 gt, naive int8 recall@10 %.4f, cptv int8 recall@10 %.4f "
      "(loss %.4f -> %.4f, %d/%d accepted)\n",
      ptq.naive_recall, ptq.cptv_recall, ptq.result.initial_loss,
      ptq.result.final_loss, ptq.result.accepted, ptq.result.proposed);
  std::printf(
      "     miscalibrated recall@10 %.4f -> table reapplied %.4f "
      "(recovered=%s)\n",
      ptq.miscal_recall, ptq.reapplied_recall,
      ptq.recovered ? "true" : "false");
  if (!json_path.empty()) write_json(json_path, attn, fwd, ptq, config);
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json;
  bool smoke_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke_only = true;
    } else {
      std::fprintf(stderr, "usage: vit [--json=PATH] [--smoke]\n");
      return 2;
    }
  }
  return smoke_only ? smoke() : run(json);
}
