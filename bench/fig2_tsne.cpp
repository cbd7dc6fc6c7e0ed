// Figure 2: t-SNE visualization of the learned representations — SimCLR vs
// Contrastive Quant (CQ-C). Emits the embeddings as CSV (point clouds for
// plotting) plus quantitative separability metrics, since "better linear
// separability" should be measurable, not just visual.
#include "bench_common.hpp"
#include "eval/separability.hpp"
#include "eval/tsne.hpp"
#include "util/csv.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Figure 2 — t-SNE of learned representations",
      "Embeddings written to fig2_<method>_<arch>.csv; the table reports "
      "silhouette score and kNN accuracy of the 2-D embeddings (higher = "
      "more separable, the paper's qualitative claim).");

  const auto bundle = core::make_bundle("synth-cifar");
  const char* archs[] = {"resnet18", "resnet34"};

  TableWriter table({"Network", "Method", "silhouette", "kNN acc (2-D)",
                     "kNN acc (feature)"});
  for (const char* arch : archs) {
    for (int m = 0; m < 2; ++m) {
      const bool is_cq = m == 1;
      auto cfg = bench::standard_pretrain(
          is_cq ? core::CqVariant::kCqC : core::CqVariant::kVanilla,
          is_cq ? quant::PrecisionSet::range(6, 16) : quant::PrecisionSet());
      auto encoder = bench::pretrained_encoder(arch, bundle, cfg);
      const Tensor features =
          eval::extract_features(encoder, bundle.test, 32);

      eval::TsneConfig tsne_cfg;
      tsne_cfg.perplexity = 12.0;
      tsne_cfg.iterations = core::env_int("CQ_TSNE_ITERS", 300);
      const Tensor embedding = eval::tsne(features, tsne_cfg);

      const std::string method = is_cq ? "cqc" : "simclr";
      CsvWriter csv("fig2_" + method + "_" + arch + ".csv",
                    {"x", "y", "label"});
      for (std::int64_t i = 0; i < embedding.dim(0); ++i)
        csv.add_row(std::vector<double>{
            embedding.at(i, 0), embedding.at(i, 1),
            static_cast<double>(
                bundle.test.labels[static_cast<std::size_t>(i)])});
      csv.close();

      table.add_row(
          {arch, is_cq ? "CQ-C" : "SimCLR",
           TableWriter::num(eval::silhouette_score(embedding,
                                                   bundle.test.labels),
                            3),
           bench::cell(eval::knn_accuracy(embedding, bundle.test.labels, 5)),
           bench::cell(eval::knn_accuracy(features, bundle.test.labels, 5))});
    }
  }
  table.print();
  std::printf(
      "\nPaper's Fig. 2 shows CQ-C clusters visibly tighter than SimCLR's, "
      "especially for larger models;\nhere the silhouette / kNN columns "
      "quantify the same comparison.\n");
  return 0;
}
