// The paper's experiments in one binary. `experiments <name>` runs one of
// table1 ... table8, fig2, ablation or extensions and prints its table; with
// no name or an unknown one it lists the names and exits 2.
//
// Every table prints the paper's reference numbers next to the measured
// ones. Absolute values are NOT expected to match (the substrate is a
// scaled-down synthetic stand-in — see DESIGN.md); the *shape* (ordering,
// approximate factors) is what EXPERIMENTS.md tracks.
//
// Environment knobs: CQ_SCALE (dataset sizes), CQ_EPOCHS (pretrain epochs),
// CQ_FT_EPOCHS (fine-tune epochs), CQ_DET_EPOCHS / CQ_DET_TRAIN /
// CQ_DET_TEST (Table 3), CQ_TSNE_ITERS (Fig. 2) and CQ_CACHE_DIR (encoder
// checkpoints, shared between tables that pretrain the same encoder).
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "core/simclr.hpp"
#include "detect/ap.hpp"
#include "detect/dataset.hpp"
#include "detect/head.hpp"
#include "eval/classifier.hpp"
#include "eval/separability.hpp"
#include "eval/tsne.hpp"
#include "models/resnet.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace cq;

namespace {

eval::EvalConfig finetune_config(int bits) {
  eval::EvalConfig cfg;
  cfg.epochs = static_cast<std::int64_t>(core::env_int("CQ_FT_EPOCHS", 15));
  cfg.batch_size = 16;
  cfg.lr = 0.02f;
  cfg.eval_bits = bits;
  return cfg;
}

/// Test accuracy of a linear probe on the frozen encoder's features.
float linear_acc(models::Encoder& encoder, const core::DatasetBundle& b) {
  eval::EvalConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 32;
  cfg.lr = 0.05f;
  return eval::linear_eval(encoder, b.labeled, b.test, cfg).test_accuracy;
}

/// The four fine-tuning cells of the paper's tables: FP 10%, FP 1%,
/// 4-bit 10%, 4-bit 1% labels.
std::vector<float> finetune_four(models::Encoder& encoder,
                                 const core::DatasetBundle& bundle) {
  Rng split_rng(77);
  const auto lab10 = data::subset_fraction(bundle.labeled, 0.10, split_rng);
  const auto lab1 = data::subset_fraction(bundle.labeled, 0.01, split_rng);
  std::vector<float> cells;
  for (const int bits : {32, 4})
    for (const auto* labeled : {&lab10, &lab1})
      cells.push_back(eval::finetune_eval(encoder, *labeled, bundle.test,
                                          finetune_config(bits))
                          .test_accuracy);
  return cells;
}

/// "measured (paper ref)" cell formatting; a reference of -1 is a cell the
/// paper leaves blank.
std::string cell(float measured) { return TableWriter::num(measured, 1); }

std::string cell(float measured, float paper) {
  return cell(measured) +
         (paper < 0 ? " (-)" : " (" + TableWriter::num(paper, 2) + ")");
}

void print_preamble(const char* table_id, const char* description) {
  std::printf("==== %s ====\n%s\n", table_id, description);
  std::printf(
      "Cells show: measured-on-synthetic (paper reference). Absolute values "
      "are not comparable;\nthe tracked claim is the ordering/shape — see "
      "EXPERIMENTS.md.\n\n");
}

// ---- Tables 1, 2, 4, 5, 6, 7: one (arch x method) grid each ---------------

/// One pretraining recipe: standard_pretrain(variant, precisions) with the
/// given lr, trained by `family`.
struct Method {
  const char* label;
  core::CqVariant variant;
  quant::PrecisionSet precisions;
  const char* family = "simclr";
  float lr = 0.1f;
};

enum class Eval { kFinetune, kLinear };

struct Grid {
  const char* title;
  const char* description;
  const char* bundle;
  std::vector<const char*> archs;
  std::vector<Method> methods;
  Eval eval;
  /// paper[arch][method]: the four fine-tune cells or the one linear-probe
  /// cell; -1 where the paper leaves a cell blank.
  std::vector<std::vector<std::vector<float>>> paper;
  std::vector<std::string> header;
  bool precision_column = false;  // fine-tune rows name the precision set
  bool grad_column = false;       // fine-tune rows end in the max |grad|
  bool methods_as_rows = false;   // linear probes: a row per method
};

/// Pretrains (or loads) an encoder per (arch, method), evaluates it, and
/// prints a fine-tune row per pair, or the linear probes as an arch x method
/// matrix.
void run_grid(const Grid& g) {
  print_preamble(g.title, g.description);
  const auto bundle = core::make_bundle(g.bundle);
  TableWriter table(g.header);
  // probes[a][m]: the linear-probe cell of (arch a, method m).
  std::vector<std::vector<std::string>> probes(g.archs.size());
  for (std::size_t a = 0; a < g.archs.size(); ++a) {
    for (std::size_t m = 0; m < g.methods.size(); ++m) {
      const Method& method = g.methods[m];
      auto cfg = bench::standard_pretrain(method.variant, method.precisions);
      cfg.lr = method.lr;
      core::PretrainStats stats;
      auto encoder = bench::pretrained_encoder(g.archs[a], bundle, cfg,
                                               method.family, &stats);
      if (g.eval == Eval::kLinear) {
        probes[a].push_back(
            cell(linear_acc(encoder, bundle), g.paper[a][m][0]));
        continue;
      }
      const auto cells = finetune_four(encoder, bundle);
      std::vector<std::string> row = {g.archs[a], method.label};
      if (g.precision_column)
        row.push_back(method.precisions.empty() ? "-"
                                                : method.precisions.str());
      for (std::size_t c = 0; c < cells.size(); ++c)
        row.push_back(cell(cells[c], g.paper[a][m][c]));
      if (g.grad_column) {
        std::string grad = stats.iterations > 0
                               ? TableWriter::num(stats.max_grad_norm, 1)
                               : "(cached)";
        if (stats.diverged) grad += " DIVERGED";
        row.push_back(grad);
      }
      table.add_row(row);
    }
  }
  if (g.eval == Eval::kLinear && g.methods_as_rows) {
    for (std::size_t m = 0; m < g.methods.size(); ++m) {
      std::vector<std::string> row = {g.methods[m].label};
      for (const auto& arch_probes : probes) row.push_back(arch_probes[m]);
      table.add_row(row);
    }
  } else if (g.eval == Eval::kLinear) {
    for (std::size_t a = 0; a < g.archs.size(); ++a) {
      std::vector<std::string> row = {g.archs[a]};
      row.insert(row.end(), probes[a].begin(), probes[a].end());
      table.add_row(row);
    }
  }
  table.print();
}

const quant::PrecisionSet kFull;  // no quantization (vanilla baselines)
const auto k6to16 = quant::PrecisionSet::range(6, 16);
const auto k8to16 = quant::PrecisionSet::range(8, 16);

const std::vector<std::string> kFinetuneHeader = {
    "Network", "Method", "FP 10%", "FP 1%", "4-bit 10%", "4-bit 1%"};

// Tables 1-3 share these encoders through the pretraining cache.
const std::vector<const char*> kImagenetArchs = {"resnet18", "resnet34"};
const Method kSimclr = {"SimCLR", core::CqVariant::kVanilla, kFull};
const Method kImagenetCqA = {"CQ-A", core::CqVariant::kCqA, k6to16};
const Method kImagenetCqC = {"CQ-C", core::CqVariant::kCqC, k8to16};

// Tables 4-5 share these encoders (and Fig. 2 its resnet18/34 ones).
const std::vector<const char*> kCifarArchs = {
    "resnet18", "resnet34", "resnet74", "resnet110", "resnet152",
    "mobilenetv2"};
const Method kCifarCqC = {"CQ-C", core::CqVariant::kCqC, k6to16};

void table1() {
  run_grid({
      .title = "Table 1 — ImageNet fine-tuning",
      .description =
          "SimCLR vs Contrastive Quant (CQ-A 6-16, CQ-C 8-16) on "
          "ResNet-18/34; semi-supervised fine-tuning.",
      .bundle = "synth-imagenet",
      .archs = kImagenetArchs,
      .methods = {kSimclr, kImagenetCqA, kImagenetCqC},
      .eval = Eval::kFinetune,
      .paper = {{{42.44f, 19.18f, 39.12f, 17.24f},
                 {51.39f, 28.87f, 48.80f, 27.13f},
                 {51.13f, 28.97f, 48.63f, 26.66f}},
                {{47.53f, 23.43f, 44.65f, 21.69f},
                 {55.76f, 33.37f, 53.32f, 31.30f},
                 {55.72f, 33.70f, 53.33f, 31.64f}}},
      .header = {"Network", "Method", "Precision Set", "FP 10%", "FP 1%",
                 "4-bit 10%", "4-bit 1%"},
      .precision_column = true,
  });
}

void table2() {
  run_grid({
      .title = "Table 2 — ImageNet linear evaluation",
      .description = "Frozen-encoder linear probes for SimCLR / CQ-C (8-16) "
                     "/ CQ-A (6-16).",
      .bundle = "synth-imagenet",
      .archs = kImagenetArchs,
      .methods = {kSimclr, kImagenetCqC, kImagenetCqA},
      .eval = Eval::kLinear,
      .paper = {{{29.31f}, {31.90f}, {44.91f}},
                {{34.96f}, {36.14f}, {47.88f}}},
      .header = {"Network", "SimCLR", "CQ-C", "CQ-A"},
  });
}

void table4() {
  run_grid({
      .title = "Table 4 — CIFAR fine-tuning, six networks",
      .description = "SimCLR vs CQ-C (precision set 6-16) on "
                     "ResNet-18/34/74/110/152 + MobileNetV2.",
      .bundle = "synth-cifar",
      .archs = kCifarArchs,
      .methods = {kSimclr, kCifarCqC},
      .eval = Eval::kFinetune,
      .paper = {{{61.51f, 42.51f, 59.78f, 40.73f},
                 {61.75f, 43.80f, 60.12f, 42.59f}},
                {{63.05f, 45.11f, 61.44f, 43.63f},
                 {63.58f, 48.05f, 61.47f, 45.75f}},
                {{51.93f, 30.40f, 50.37f, 28.56f},
                 {52.52f, 31.39f, 51.12f, 29.70f}},
                {{52.78f, 31.16f, 51.69f, 30.11f},
                 {54.47f, 33.17f, 52.28f, 32.66f}},
                {{53.57f, 32.93f, 52.14f, 31.06f},
                 {55.44f, 34.98f, 53.04f, 33.54f}},
                {{49.73f, 24.18f, 46.47f, 18.98f},
                 {51.59f, 26.12f, 49.82f, 20.82f}}},
      .header = kFinetuneHeader,
  });
}

void table5() {
  run_grid({
      .title = "Table 5 — CIFAR linear evaluation, six networks",
      .description = "Frozen-encoder linear probes: SimCLR vs CQ-C (6-16).",
      .bundle = "synth-cifar",
      .archs = kCifarArchs,
      .methods = {kSimclr, kCifarCqC},
      .eval = Eval::kLinear,
      .paper = {{{64.91f}, {64.78f}},
                {{65.92f}, {66.54f}},
                {{52.96f}, {54.06f}},
                {{53.53f}, {54.76f}},
                {{53.97f}, {55.12f}},
                {{52.53f}, {53.97f}}},
      .header = {"Method", "r18", "r34", "r74", "r110", "r152", "mnv2"},
      .methods_as_rows = true,
  });
}

void table6() {
  // BYOL needs a slightly gentler LR than NT-Xent training. The paper
  // leaves BYOL's FP cells blank; both methods are measured in all four.
  run_grid({
      .title = "Table 6 — BYOL fine-tuning",
      .description = "Vanilla BYOL vs Contrastive Quant (CQ-C, 6-16) applied "
                     "on BYOL; ResNet-18/34 + MobileNetV2.",
      .bundle = "synth-cifar",
      .archs = {"resnet18", "resnet34", "mobilenetv2"},
      .methods = {{"BYOL", core::CqVariant::kVanilla, k6to16, "byol", 0.05f},
                  {"CQ-C", core::CqVariant::kCqC, k6to16, "byol", 0.05f}},
      .eval = Eval::kFinetune,
      .paper = {{{-1, -1, 55.26f, 34.22f}, {58.84f, 39.21f, 56.74f, 37.54f}},
                {{-1, -1, 65.83f, 50.95f}, {66.77f, 51.91f, 65.21f, 50.55f}},
                {{-1, -1, 49.85f, 23.32f}, {54.59f, 31.96f, 50.97f, 26.60f}}},
      .header = kFinetuneHeader,
  });
}

void table7() {
  run_grid({
      .title = "Table 7 — CQ variant ablation",
      .description =
          "SimCLR baseline vs CQ-A / CQ-B / CQ-C (all 6-16) on "
          "ResNet-34/74 + MobileNetV2. The paper reports CQ-B is prone to "
          "gradient explosion; the last column shows our measured max "
          "grad-norm (and a DIVERGED flag when training blew up).",
      .bundle = "synth-cifar",
      .archs = {"resnet34", "resnet74", "mobilenetv2"},
      .methods = {kSimclr,
                  {"CQ-A", core::CqVariant::kCqA, k6to16},
                  {"CQ-B", core::CqVariant::kCqB, k6to16},
                  kCifarCqC},
      .eval = Eval::kFinetune,
      .paper = {{{63.05f, 45.11f, 61.44f, 43.63f},
                 {63.63f, 45.60f, 61.77f, 43.56f},
                 {63.57f, 45.26f, 61.76f, 43.60f},
                 {63.58f, 48.05f, 61.47f, 45.75f}},
                {{51.93f, 30.40f, 50.37f, 28.56f},
                 {51.89f, 29.95f, 51.45f, 28.99f},
                 {52.36f, 30.48f, 51.20f, 29.28f},
                 {52.52f, 31.39f, 51.12f, 29.70f}},
                {{49.73f, 24.18f, 46.47f, 18.98f},
                 {49.93f, 24.57f, 46.01f, 19.38f},
                 {51.78f, 25.21f, 47.81f, 20.81f},
                 {51.59f, 26.12f, 49.82f, 20.82f}}},
      .header = {"Network", "Method", "FP 10%", "FP 1%", "4-bit 10%",
                 "4-bit 1%", "max |grad|"},
      .grad_column = true,
  });
}

// ---- Table 3: transfer to detection ----------------------------------------

/// The Table 1 encoders' weights moved into spatial trunks, with a grid
/// detection head trained on their frozen features (Pascal VOC + YOLO
/// stand-in).
void table3() {
  print_preamble(
      "Table 3 — transfer to detection",
      "Frozen pretrained trunks + grid detection head on synthetic "
      "localization canvases (Pascal VOC stand-in). AP in percent.");

  const auto bundle = core::make_bundle("synth-imagenet");
  detect::DetectionConfig dcfg;
  dcfg.synth = bundle.config;
  Rng data_rng(555);
  const auto det_train = detect::make_detection_dataset(
      dcfg, core::env_int("CQ_DET_TRAIN", 160), data_rng);
  const auto det_test = detect::make_detection_dataset(
      dcfg, core::env_int("CQ_DET_TEST", 96), data_rng);

  // Paper Table 3 reference values (AP, AP50, AP75).
  const float paper[2][3][3] = {
      {{25.09f, 49.20f, 22.74f},
       {32.94f, 63.96f, 29.28f},
       {36.39f, 69.08f, 32.64f}},
      {{35.58f, 67.51f, 31.88f},
       {36.54f, 68.77f, 34.17f},
       {38.77f, 72.13f, 35.85f}},
  };
  const Method vanilla = {"Vanilla SimCLR", core::CqVariant::kVanilla, kFull};
  const Method methods[] = {vanilla, kImagenetCqC, kImagenetCqA};

  TableWriter table({"Network", "Method", "AP", "AP50", "AP75"});
  for (std::size_t a = 0; a < kImagenetArchs.size(); ++a) {
    const std::string arch = kImagenetArchs[a];
    for (int m = 0; m < 3; ++m) {
      auto encoder = bench::pretrained_encoder(
          arch, bundle,
          bench::standard_pretrain(methods[m].variant,
                                   methods[m].precisions));
      // GAP has no parameters, so the pooled backbone's parameters and
      // buffers map one to one onto the spatial trunk's.
      Rng trunk_rng(1);
      auto policy = std::make_shared<quant::QuantPolicy>();
      std::int64_t trunk_dim = 0;
      auto trunk = models::build_resnet(
          arch == "resnet18" ? models::resnet18_config()
                             : models::resnet34_config(),
          policy, trunk_rng, &trunk_dim, /*include_gap=*/false);
      nn::copy_parameters(*encoder.backbone, *trunk);

      detect::DetectorConfig det_cfg;
      det_cfg.epochs = core::env_int("CQ_DET_EPOCHS", 30);
      detect::Detector detector(*trunk, trunk_dim, det_cfg);
      detector.train(det_train);
      const auto ap = detect::evaluate_ap(detector.detect(det_test),
                                          det_test.boxes);
      table.add_row({arch, methods[m].label,
                     cell(100.0f * ap.ap, paper[a][m][0]),
                     cell(100.0f * ap.ap50, paper[a][m][1]),
                     cell(100.0f * ap.ap75, paper[a][m][2])});
    }
  }
  table.print();
}

// ---- Table 8: quantization as the only augmentation ------------------------

void table8() {
  print_preamble(
      "Table 8 — CQ-Quant (quantization-only augmentation)",
      "Loss = NCE(f1, f2): same un-augmented input through two sampled "
      "precisions. Compared against 'No SSL Training' (random init). "
      "Wider precision sets should help (diversity of augmentation).");

  const auto bundle = core::make_bundle("synth-cifar");
  Rng split_rng(77);
  const auto lab10 = data::subset_fraction(bundle.labeled, 0.10, split_rng);
  const auto lab1 = data::subset_fraction(bundle.labeled, 0.01, split_rng);

  const char* archs[] = {"resnet74", "resnet110"};
  // Paper Table 8: rows {6-16, 8-16, no-SSL}; cols {ft1%, ft10%, linear}.
  const float paper[2][3][3] = {
      {{7.64f, 29.14f, 15.79f},
       {4.64f, 21.37f, 10.98f},
       {2.90f, 20.76f, 3.69f}},
      {{7.43f, 27.69f, 14.10f},
       {6.41f, 21.58f, 11.83f},
       {2.21f, 20.56f, 3.15f}},
  };
  const char* set_names[] = {"6-16", "8-16", "No SSL Training"};

  TableWriter table({"Network", "Precision Set", "FT 1%", "FT 10%",
                     "Linear eval"});
  for (int a = 0; a < 2; ++a) {
    for (int s = 0; s < 3; ++s) {
      models::Encoder encoder = [&]() {
        if (s == 2) {  // No SSL training: random init.
          Rng rng(42);
          return models::make_encoder(archs[a], rng);
        }
        auto cfg = bench::standard_pretrain(core::CqVariant::kCqQuant,
                                            s == 0 ? k6to16 : k8to16);
        cfg.augment.identity = true;  // Sec 4.5: no input augmentation
        return bench::pretrained_encoder(archs[a], bundle, cfg);
      }();

      const float ft1 = eval::finetune_eval(encoder, lab1, bundle.test,
                                            finetune_config(32))
                            .test_accuracy;
      const float ft10 = eval::finetune_eval(encoder, lab10, bundle.test,
                                             finetune_config(32))
                             .test_accuracy;
      table.add_row({archs[a], set_names[s], cell(ft1, paper[a][s][0]),
                     cell(ft10, paper[a][s][1]),
                     cell(linear_acc(encoder, bundle), paper[a][s][2])});
    }
  }
  table.print();
}

// ---- Figure 2: t-SNE of the learned representations ------------------------

/// Emits the embeddings as CSV (point clouds for plotting) plus separability
/// metrics, since "better linear separability" should be measurable, not
/// just visual.
void fig2() {
  print_preamble(
      "Figure 2 — t-SNE of learned representations",
      "Embeddings written to fig2_<method>_<arch>.csv; the table reports "
      "silhouette score and kNN accuracy of the 2-D embeddings (higher = "
      "more separable, the paper's qualitative claim).");

  const auto bundle = core::make_bundle("synth-cifar");
  const struct {
    const char* file_tag;
    Method method;
  } methods[] = {{"simclr", kSimclr}, {"cqc", kCifarCqC}};

  TableWriter table({"Network", "Method", "silhouette", "kNN acc (2-D)",
                     "kNN acc (feature)"});
  for (const std::string arch : {"resnet18", "resnet34"}) {
    for (const auto& [file_tag, method] : methods) {
      auto encoder = bench::pretrained_encoder(
          arch, bundle,
          bench::standard_pretrain(method.variant, method.precisions));
      const Tensor features =
          eval::extract_features(encoder, bundle.test, 32);

      eval::TsneConfig tsne_cfg;
      tsne_cfg.perplexity = 12.0;
      tsne_cfg.iterations = core::env_int("CQ_TSNE_ITERS", 300);
      const Tensor embedding = eval::tsne(features, tsne_cfg);

      CsvWriter csv("fig2_" + std::string(file_tag) + "_" + arch + ".csv",
                    {"x", "y", "label"});
      for (std::int64_t i = 0; i < embedding.dim(0); ++i)
        csv.add_row(std::vector<double>{
            embedding.at(i, 0), embedding.at(i, 1),
            static_cast<double>(
                bundle.test.labels[static_cast<std::size_t>(i)])});
      csv.close();

      table.add_row(
          {arch, method.label,
           TableWriter::num(eval::silhouette_score(embedding,
                                                   bundle.test.labels),
                            3),
           cell(eval::knn_accuracy(embedding, bundle.test.labels, 5)),
           cell(eval::knn_accuracy(features, bundle.test.labels, 5))});
    }
  }
  table.print();
  std::printf(
      "\nPaper's Fig. 2 shows CQ-C clusters visibly tighter than SimCLR's, "
      "especially for larger models;\nhere the silhouette / kNN columns "
      "quantify the same comparison.\n");
}

// ---- Not paper tables -------------------------------------------------------

/// The quantizer design choices DESIGN.md calls out, beyond the paper's own
/// Table 8 precision-set ablation: Eq. 10's rounding mode (the paper prints
/// floor, standard quantizers round to nearest), min/max vs percentile
/// range, and distinct vs with-replacement (q1, q2) sampling. Each row
/// pretrains CQ-C on the CIFAR stand-in with one knob flipped.
void ablation() {
  print_preamble(
      "Ablation — quantizer design choices",
      "CQ-C (6-16) on the CIFAR stand-in with one quantizer knob flipped "
      "per row; linear-eval accuracy. (Not a paper table; DESIGN.md Sec. 5.)");

  const auto bundle = core::make_bundle("synth-cifar");
  const struct {
    const char* name;
    quant::RoundingMode rounding;
    quant::RangeMode range;
    bool distinct_pair;
  } knobs[] = {
      {"baseline (nearest, minmax, distinct q1!=q2)",
       quant::RoundingMode::kNearest, quant::RangeMode::kMinMax, true},
      {"floor rounding (paper Eq. 10 as printed)",
       quant::RoundingMode::kFloor, quant::RangeMode::kMinMax, true},
      {"percentile-clipped range (p=0.999)",
       quant::RoundingMode::kNearest, quant::RangeMode::kPercentile, true},
      {"q1, q2 sampled with replacement",
       quant::RoundingMode::kNearest, quant::RangeMode::kMinMax, false},
  };

  TableWriter table({"Quantizer knob", "Linear eval", "final SSL loss"});
  for (const auto& knob : knobs) {
    quant::QuantizerConfig qcfg;
    qcfg.rounding = knob.rounding;
    qcfg.range = knob.range;

    Rng rng(42);
    auto encoder = models::make_encoder("resnet18", rng, qcfg);
    auto cfg = bench::standard_pretrain(core::CqVariant::kCqC, k6to16);
    cfg.distinct_pair = knob.distinct_pair;
    // No cache: the quantizer config is part of the encoder, not the key.
    core::SimClrCqTrainer trainer(encoder, cfg);
    const auto stats = trainer.train(bundle.ssl_train);
    table.add_row({knob.name, cell(linear_acc(encoder, bundle)),
                   TableWriter::num(stats.final_loss, 3)});
  }
  table.print();
}

/// Probes of the paper's generality claims and future-work pointers
/// (DESIGN.md Sec. 5):
///   E1 — MoCo (ref [1]) with and without CQ-A: does quantization-as-
///        augmentation transfer to queue-based contrastive learning?
///   E2 — CQ-Noise: Gaussian weight/activation perturbation matched to the
///        quantizer's step size, the "other kinds of perturbations" the
///        paper suggests exploring.
///   E3 — CPT-style cyclic precision schedule (ref [3]) vs the paper's
///        random pair sampling.
void extensions() {
  print_preamble(
      "Extensions — MoCo, CQ-Noise, cyclic precision",
      "Linear-eval accuracy on the CIFAR stand-in. Not paper tables; these "
      "probe the paper's generality claims and future-work directions.");

  const auto bundle = core::make_bundle("synth-cifar");
  TableWriter table({"Experiment", "Method", "Linear eval"});

  // E1: MoCo vanilla vs MoCo + CQ-A.
  for (const bool use_cq : {false, true}) {
    auto cfg = bench::standard_pretrain(
        use_cq ? core::CqVariant::kCqA : core::CqVariant::kVanilla, k6to16);
    cfg.byol_ema = 0.95f;  // key-encoder momentum
    cfg.moco_queue = 256;
    auto encoder = bench::pretrained_encoder("resnet18", bundle, cfg, "moco");
    table.add_row({"E1 MoCo", use_cq ? "MoCo + CQ-A" : "MoCo",
                   cell(linear_acc(encoder, bundle))});
  }

  // E2: CQ-C with quantization vs magnitude-matched Gaussian noise.
  for (const bool noise : {false, true}) {
    quant::QuantizerConfig qcfg;
    if (noise) qcfg.perturb = quant::PerturbMode::kGaussian;
    Rng rng(42);
    auto encoder = models::make_encoder("resnet18", rng, qcfg);
    auto cfg = bench::standard_pretrain(core::CqVariant::kCqC, k6to16);
    core::SimClrCqTrainer trainer(encoder, cfg);  // uncached (custom qconfig)
    trainer.train(bundle.ssl_train);
    table.add_row({"E2 perturbation type",
                   noise ? "CQ-Noise (Gaussian)" : "CQ-C (quantization)",
                   cell(linear_acc(encoder, bundle))});
  }

  // E3: random pair sampling vs cyclic precision schedule.
  for (const bool cyclic : {false, true}) {
    auto cfg = bench::standard_pretrain(core::CqVariant::kCqC, k6to16);
    if (cyclic) {
      cfg.precision_sampling =
          core::PretrainConfig::PrecisionSampling::kCyclic;
      cfg.precision_cycles = 4;
    }
    auto encoder = bench::pretrained_encoder("resnet18", bundle, cfg);
    table.add_row({"E3 precision schedule",
                   cyclic ? "cyclic (CPT-style)" : "random pair (paper)",
                   cell(linear_acc(encoder, bundle))});
  }

  table.print();
}

const struct {
  const char* name;
  void (*run)();
} kExperiments[] = {
    {"table1", table1},
    {"table2", table2},
    {"table3", table3},
    {"table4", table4},
    {"table5", table5},
    {"table6", table6},
    {"table7", table7},
    {"table8", table8},
    {"fig2", fig2},
    {"ablation", ablation},
    {"extensions", extensions},
};

}  // namespace

int main(int argc, char** argv) {
  for (const auto& e : kExperiments) {
    if (argc == 2 && std::strcmp(argv[1], e.name) == 0) {
      e.run();
      return 0;
    }
  }
  std::fprintf(stderr, "usage: experiments <name>, one of:");
  for (const auto& e : kExperiments) std::fprintf(stderr, " %s", e.name);
  std::fprintf(stderr, "\n");
  return 2;
}
