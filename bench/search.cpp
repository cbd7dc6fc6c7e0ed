// Binary-embedding search bench (DESIGN.md §15). Four sections:
//
//   scan     raw kernel throughput past LLC: the query path's bound scan
//            (kernels::hamming_below at the bound a k=10, overfetch=8 query
//            holds: the 80th-smallest distance to the query row) over
//            packed 1-bit and 2-bit codes vs kernels::dot_scan fp32 cosine
//            brute force, same 400k x 64 corpus. The memory-bound regime is
//            the honest one for retrieval — a resident fp32 matrix at this
//            size streams from DRAM while the 1-bit codes fit in cache.
//
//   query    end-to-end Index::query (bound scan + counting selection +
//            exact-cosine rerank of the overfetched pool; the build's
//            hamming_below backend is recorded) vs an fp32 brute-force query
//            (dot_scan + a bounded std::priority_queue top-k) on the same
//            corpus, per-query qps. The 1-bit rerank speedup here is the
//            headline: it keeps the ground-truth-equal operating point
//            (recall section) AND the >=8x target of DESIGN.md §15.
//
//   recall   recall@10-vs-bits on real encoders: CQ-pretrained vs plain
//            SimCLR (cached standard_pretrain recipes), features from
//            eval::extract_features, all four code variants through
//            search::recall_vs_bits_features.
//
//   service  closed-loop search::Service load (encode -> binarize -> scan)
//            with concurrent clients: sustained qps + e2e p50/p99.
//
// Protocol: bitwise equivalence gates (backend vs scalar kernels on the scan
// path) run before any timing. A mismatch fails the bench and is reported as
// "bitwise_equivalent": false.
//
// Flags: --json=PATH writes the report; --smoke runs the gates + a tiny
// service burst only (the `search_smoke` ctest, label `bench`).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "eval/classifier.hpp"
#include "search/recall.hpp"
#include "search/service.hpp"
#include "tensor/kernels/hamming.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace cq;

using bench::check;
using bench::escape;
using bench::g_failures;
using bench::time_best;

// The operating point shared by the query and recall sections: the speedup
// is only meaningful "at equal recall", so both measure k=10 with the same
// overfetch+rerank setting.
constexpr std::int64_t kTopN = 10;
constexpr std::int64_t kOverfetch = 8;

// ---- equivalence gates -----------------------------------------------------

/// Backend-vs-scalar bitwise parity on the scan kernels (odd shapes
/// included). Runs before any timing; returns false (and records a failure)
/// on the first mismatch.
bool equivalence_gate() {
  Rng rng(0xB17);
  const std::int64_t dim = 64, rows = 12805;
  std::vector<float> base(static_cast<std::size_t>(rows * dim));
  for (auto& v : base) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> thr(static_cast<std::size_t>(dim), 0.0f);

  // binarize + hamming_below backend vs scalar, including odd tail widths
  // (one of them on the one-word path), at a limit that keeps every row and
  // at one that keeps about half.
  std::vector<std::int64_t> ra(static_cast<std::size_t>(rows)), rb(ra);
  std::vector<std::uint32_t> da(static_cast<std::size_t>(rows)), db(da);
  for (std::int64_t cols : {dim, std::int64_t{37}, std::int64_t{31}}) {
    const std::int64_t words = (cols + 31) / 32;
    std::vector<std::uint32_t> a(static_cast<std::size_t>(rows * words));
    std::vector<std::uint32_t> b(a.size());
    kernels::binarize_1bit(base.data(), rows, cols, thr.data(), words,
                           a.data());
    kernels::scalar::binarize_1bit(base.data(), rows, cols, thr.data(), words,
                                   b.data());
    check(a == b, "binarize_1bit backend != portable (bitwise)");
    for (const std::uint32_t limit :
         {std::numeric_limits<std::uint32_t>::max(),
          static_cast<std::uint32_t>(cols / 2)}) {
      const std::int64_t na = kernels::hamming_below(
          a.data(), a.data(), rows, words, limit, ra.data(), da.data());
      const std::int64_t nb = kernels::scalar::hamming_below(
          a.data(), a.data(), rows, words, limit, rb.data(), db.data());
      check(na == nb && std::equal(ra.begin(), ra.begin() + na, rb.begin()) &&
                std::equal(da.begin(), da.begin() + na, db.begin()),
            "hamming_below backend != portable (bitwise)");
    }
  }
  return g_failures == 0;
}

// ---- scan: raw kernel throughput past LLC ----------------------------------

struct ScanCase {
  std::string name;
  std::int64_t words_per_row = 0;
  double bytes_per_row = 0.0;
  std::uint32_t bound = 0;     // the query's strict distance limit
  std::int64_t survivors = 0;  // rows under it
  double seconds = 0.0;        // per full scan
};

struct ScanSection {
  std::int64_t rows = 0, dim = 0;
  double fp32_seconds = 0.0;
  std::vector<ScanCase> cases;
};

ScanSection bench_scan(const std::vector<float>& base, std::int64_t rows,
                       std::int64_t dim, double target) {
  ScanSection s;
  s.rows = rows;
  s.dim = dim;

  std::vector<float> scores(static_cast<std::size_t>(rows));
  s.fp32_seconds = time_best(
      [&] {
        kernels::dot_scan(base.data(), base.data(), rows, dim, scores.data());
        escape(scores.data());
      },
      target);

  std::vector<std::int64_t> hit_rows(static_cast<std::size_t>(rows));
  std::vector<std::uint32_t> dist(static_cast<std::size_t>(rows));
  for (const auto layout :
       {search::CodeLayout::k1Bit, search::CodeLayout::k2Bit}) {
    const auto bin = search::Binarizer::fit(base.data(), rows, dim, layout);
    const std::int64_t words = bin.words_per_row();
    std::vector<std::uint32_t> codes(static_cast<std::size_t>(rows * words));
    bin.encode(base.data(), rows, codes.data());
    ScanCase c;
    c.name = layout == search::CodeLayout::k1Bit ? "hamming_1bit"
                                                 : "hamming_2bit";
    c.words_per_row = words;
    c.bytes_per_row = 4.0 * static_cast<double>(words);
    // The query is row 0. A k x overfetch query ends its scan holding the
    // (k*overfetch)-th smallest distance as its strict bound; time the
    // whole index against that bound.
    kernels::scalar::hamming_below(codes.data(), codes.data(), rows, words,
                                   std::numeric_limits<std::uint32_t>::max(),
                                   hit_rows.data(), dist.data());
    const auto mth = dist.begin() + (kTopN * kOverfetch - 1);
    std::nth_element(dist.begin(), mth, dist.end());
    c.bound = *mth;
    c.seconds = time_best(
        [&] {
          c.survivors =
              kernels::hamming_below(codes.data(), codes.data(), rows, words,
                                     c.bound, hit_rows.data(), dist.data());
          escape(dist.data());
        },
        target);
    std::printf(
        "scan   %-13s %8.1f Mcodes/s  %7.2f GB/s  (%5.2fx fp32)  "
        "bound %u, %lld survivors\n",
        c.name.c_str(), static_cast<double>(rows) / c.seconds / 1e6,
        c.bytes_per_row * static_cast<double>(rows) / c.seconds / 1e9,
        s.fp32_seconds / c.seconds, c.bound,
        static_cast<long long>(c.survivors));
    s.cases.push_back(c);
  }
  std::printf("scan   %-13s %8.1f Mrows/s   %7.2f GB/s\n", "fp32_dot",
              static_cast<double>(rows) / s.fp32_seconds / 1e6,
              4.0 * static_cast<double>(dim * rows) / s.fp32_seconds / 1e9);
  return s;
}

// ---- query: end-to-end Index::query vs fp32 brute force --------------------

struct QueryCase {
  std::string name;
  double qps = 0.0;
  double speedup = 0.0;  // vs the fp32 brute-force query
};

struct QuerySection {
  std::int64_t rows = 0;
  double fp32_qps = 0.0;
  std::vector<QueryCase> cases;
};

QuerySection bench_query(const std::vector<float>& base, std::int64_t rows,
                         std::int64_t dim, double target) {
  QuerySection s;
  s.rows = rows;

  // fp32 brute force: normalized corpus resident, per query one dot_scan +
  // a bounded top-k heap over (key, row) — the strongest exact baseline on
  // this hardware.
  std::vector<float> nbase = base;
  kernels::l2_normalize_rows(nbase.data(), rows, dim, nullptr, 1e-12f);
  std::vector<float> scores(static_cast<std::size_t>(rows));
  std::vector<float> q(base.begin(), base.begin() + dim);
  kernels::l2_normalize_rows(q.data(), 1, dim, nullptr, 1e-12f);
  using KeyRow = std::pair<std::uint32_t, std::int64_t>;
  std::priority_queue<KeyRow> heap;  // max-heap: top is the k-th best
  const double fp32_s = time_best(
      [&] {
        kernels::dot_scan(q.data(), nbase.data(), rows, dim, scores.data());
        while (!heap.empty()) heap.pop();
        for (std::int64_t r = 0; r < rows; ++r) {
          // Monotone float->u32 key on the negated score (flip all bits of
          // negatives, set the sign bit of non-negatives), so the bounded
          // heap keeps exactly the k highest cosines.
          float neg = -scores[r];
          std::uint32_t bits;
          std::memcpy(&bits, &neg, sizeof(bits));
          bits = (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
          const KeyRow c{bits, r};
          if (static_cast<std::int64_t>(heap.size()) < kTopN) {
            heap.push(c);
          } else if (c < heap.top()) {
            heap.pop();
            heap.push(c);
          }
        }
        escape(&heap.top());
      },
      target);
  s.fp32_qps = 1.0 / fp32_s;

  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    ids[r] = static_cast<std::uint64_t>(r);
  std::vector<search::Result> hits(static_cast<std::size_t>(kTopN));
  for (const auto layout :
       {search::CodeLayout::k1Bit, search::CodeLayout::k2Bit}) {
    search::IndexConfig icfg;
    icfg.dim = dim;
    icfg.layout = layout;
    icfg.store_embeddings = true;
    search::Index index(
        icfg, search::Binarizer::fit(base.data(), rows, dim, layout));
    index.add(base.data(), ids.data(), rows);
    search::QueryOptions opts;
    opts.k = kTopN;
    opts.overfetch = kOverfetch;
    opts.rerank = true;
    search::QueryScratch scratch;
    index.prepare(opts, scratch);
    QueryCase c;
    c.name = layout == search::CodeLayout::k1Bit ? "1bit_rerank"
                                                 : "2bit_rerank";
    const double sec = time_best(
        [&] {
          index.query(base.data(), opts, scratch, hits.data());
          escape(hits.data());
        },
        target);
    c.qps = 1.0 / sec;
    c.speedup = fp32_s / sec;
    std::printf("query  %-13s %8.0f qps  (%5.2fx fp32 brute force)\n",
                c.name.c_str(), c.qps, c.speedup);
    s.cases.push_back(c);
  }
  std::printf("query  %-13s %8.0f qps\n", "fp32_brute", s.fp32_qps);
  std::printf("query  hamming_below backend: %s\n",
              kernels::hamming_below_backend());
  return s;
}

// ---- recall: CQ-pretrained vs plain SimCLR ---------------------------------

struct EncoderRecall {
  std::string name;
  search::RecallReport report;
};

std::vector<EncoderRecall> bench_recall(const core::DatasetBundle& bundle) {
  std::vector<EncoderRecall> out;
  for (int m = 0; m < 2; ++m) {
    const bool is_cq = m == 0;
    // Identical recipes to the paper-table benches, so the encoder
    // checkpoints come from (and land in) the shared pretrain cache.
    auto cfg = bench::standard_pretrain(
        is_cq ? core::CqVariant::kCqC : core::CqVariant::kVanilla,
        is_cq ? quant::PrecisionSet::range(6, 16) : quant::PrecisionSet());
    auto encoder = bench::pretrained_encoder("resnet18", bundle, cfg);
    const Tensor features = eval::extract_features(encoder, bundle.labeled, 32);
    search::RecallConfig rcfg;
    rcfg.k = kTopN;
    rcfg.overfetch = kOverfetch;
    EncoderRecall er;
    er.name = is_cq ? "cq" : "simclr";
    er.report = search::recall_vs_bits_features(
        features, std::max<std::int64_t>(features.dim(0) / 5, 1), rcfg);
    for (const auto& p : er.report.points)
      std::printf("recall %-6s %-12s %.0f bits/dim  recall@%lld %.3f\n",
                  er.name.c_str(), p.variant.c_str(), p.bits_per_dim,
                  static_cast<long long>(er.report.k), p.recall_at_k);
    out.push_back(std::move(er));
  }
  return out;
}

// ---- service: closed-loop end-to-end load ----------------------------------

struct ServiceResult {
  std::int64_t rows = 0;
  std::uint64_t queries = 0;
  double rps = 0.0;
  double p50_us = 0.0, p99_us = 0.0;
  double scan_codes_per_s = 0.0;
};

std::string service_checkpoint(std::int64_t h, std::int64_t w) {
  Rng rng(7);
  auto enc = models::make_encoder("resnet18", rng);
  enc.backbone->set_mode(nn::Mode::kTrain);
  for (int i = 0; i < 6; ++i) {  // warm batchnorm stats
    enc.forward(Tensor::uniform(Shape{4, 3, h, w}, rng));
    enc.backbone->clear_cache();
  }
  enc.backbone->set_mode(nn::Mode::kEval);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cq_bench_search_ckpt.bin")
          .string();
  models::save_module(path, *enc.backbone);
  return path;
}

ServiceResult run_service_load(std::int64_t rows, std::size_t clients,
                               int per_client) {
  constexpr std::int64_t kH = 8, kW = 8;
  search::ServiceConfig cfg;
  cfg.engine.checkpoint = service_checkpoint(kH, kW);
  cfg.engine.in_h = kH;
  cfg.engine.in_w = kW;
  cfg.engine.workers = 1;
  cfg.engine.max_batch = 8;
  cfg.engine.max_wait = std::chrono::microseconds(1000);

  // Index over synthetic unit-scale embeddings at the encoder's dim.
  Rng rng(0x5EA7C4);
  const std::int64_t dim = 64;
  std::vector<float> base(static_cast<std::size_t>(rows * dim));
  for (auto& v : base) v = rng.uniform(-1.0f, 1.0f);
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r)
    ids[r] = static_cast<std::uint64_t>(r);
  search::IndexConfig icfg;
  icfg.dim = dim;
  icfg.store_embeddings = true;
  search::Index index(
      icfg, search::Binarizer::fit(base.data(), rows, dim,
                                   search::CodeLayout::k1Bit));
  index.add(base.data(), ids.data(), rows);
  search::Service svc(cfg, std::move(index));

  search::QueryOptions opts;
  opts.k = kTopN;
  opts.overfetch = kOverfetch;
  opts.rerank = true;
  std::vector<Tensor> images;
  for (std::size_t c = 0; c < clients; ++c)
    images.push_back(Tensor::uniform(Shape{3, kH, kW}, rng, -1.0f, 1.0f));

  std::atomic<std::uint64_t> failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      search::Service::Context ctx;
      svc.prewarm(opts, ctx);
      std::vector<search::Result> hits(static_cast<std::size_t>(kTopN));
      std::int64_t n = 0;
      for (int i = 0; i < per_client; ++i)
        if (svc.search(images[c].data(), opts, ctx, hits.data(), &n) !=
                serve::Status::kOk ||
            n != kTopN)
          failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  check(failures.load() == 0, "service load saw non-kOk searches");

  const auto stats = svc.search_stats();
  svc.stop();
  ServiceResult r;
  r.rows = rows;
  r.queries = stats.queries;
  r.rps = seconds > 0.0 ? static_cast<double>(stats.queries) / seconds : 0.0;
  r.p50_us = stats.e2e_latency.percentile(50.0);
  r.p99_us = stats.e2e_latency.percentile(99.0);
  r.scan_codes_per_s = stats.scan_codes_per_s;
  std::printf(
      "service %zu clients  %7.0f qps  p50 %7.0f us  p99 %7.0f us  "
      "scan %.1f Mcodes/s\n",
      clients, r.rps, r.p50_us, r.p99_us, r.scan_codes_per_s / 1e6);
  return r;
}

// ---- report ----------------------------------------------------------------

void write_json(const std::string& path, const ScanSection& scan,
                const QuerySection& query,
                const std::vector<EncoderRecall>& recall,
                const ServiceResult& service) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    ++g_failures;
    return;
  }
  double scan_speedup_1bit = 0.0, query_speedup_1bit = 0.0;
  for (const auto& c : scan.cases)
    if (c.name == "hamming_1bit") scan_speedup_1bit = scan.fp32_seconds /
                                                      c.seconds;
  for (const auto& c : query.cases)
    if (c.name == "1bit_rerank") query_speedup_1bit = c.speedup;
  double cq_recall = -1.0;
  for (const auto& er : recall)
    if (er.name == "cq") cq_recall = er.report.recall("1bit_rerank");

  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"search\",\n");
  std::fprintf(f,
               "  \"regenerate\": \"build/bench/search "
               "--json=bench_out/search.json\",\n");
  std::fprintf(f,
               "  \"hardware\": {\"cores\": %u, "
               "\"hamming_below_backend\": \"%s\"},\n",
               std::thread::hardware_concurrency(),
               kernels::hamming_below_backend());
  std::fprintf(f, "  \"bitwise_equivalent\": %s,\n",
               g_failures == 0 ? "true" : "false");
  std::fprintf(f,
               "  \"operating_point\": {\"k\": %lld, \"overfetch\": %lld, "
               "\"rerank\": true},\n",
               static_cast<long long>(kTopN),
               static_cast<long long>(kOverfetch));

  std::fprintf(f, "  \"scan\": {\"rows\": %lld, \"dim\": %lld,\n",
               static_cast<long long>(scan.rows),
               static_cast<long long>(scan.dim));
  std::fprintf(f,
               "    \"fp32_rows_per_s\": %.3e, \"fp32_gbps\": %.3f,\n",
               static_cast<double>(scan.rows) / scan.fp32_seconds,
               4.0 * static_cast<double>(scan.dim * scan.rows) /
                   scan.fp32_seconds / 1e9);
  std::fprintf(f, "    \"cases\": [\n");
  for (std::size_t i = 0; i < scan.cases.size(); ++i) {
    const ScanCase& c = scan.cases[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"words_per_row\": %lld, "
                 "\"bound\": %u, \"survivors\": %lld, "
                 "\"codes_per_s\": %.3e, \"gbps\": %.3f, \"speedup\": "
                 "%.2f}%s\n",
                 c.name.c_str(), static_cast<long long>(c.words_per_row),
                 c.bound, static_cast<long long>(c.survivors),
                 static_cast<double>(scan.rows) / c.seconds,
                 c.bytes_per_row * static_cast<double>(scan.rows) / c.seconds /
                     1e9,
                 scan.fp32_seconds / c.seconds,
                 i + 1 < scan.cases.size() ? "," : "");
  }
  std::fprintf(f, "    ]},\n");

  std::fprintf(f, "  \"query\": {\"rows\": %lld, \"fp32_qps\": %.1f,\n",
               static_cast<long long>(query.rows), query.fp32_qps);
  std::fprintf(f, "    \"cases\": [\n");
  for (std::size_t i = 0; i < query.cases.size(); ++i) {
    const QueryCase& c = query.cases[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"qps\": %.1f, \"speedup\": "
                 "%.2f}%s\n",
                 c.name.c_str(), c.qps, c.speedup,
                 i + 1 < query.cases.size() ? "," : "");
  }
  std::fprintf(f, "    ]},\n");

  std::fprintf(f, "  \"recall\": {\n");
  for (std::size_t e = 0; e < recall.size(); ++e) {
    const auto& er = recall[e];
    std::fprintf(f,
                 "    \"%s\": {\"base_rows\": %lld, \"num_queries\": %lld, "
                 "\"dim\": %lld, \"k\": %lld, \"points\": [\n",
                 er.name.c_str(), static_cast<long long>(er.report.base_rows),
                 static_cast<long long>(er.report.num_queries),
                 static_cast<long long>(er.report.dim),
                 static_cast<long long>(er.report.k));
    for (std::size_t i = 0; i < er.report.points.size(); ++i) {
      const auto& p = er.report.points[i];
      std::fprintf(f,
                   "      {\"variant\": \"%s\", \"bits_per_dim\": %.0f, "
                   "\"recall_at_10\": %.4f}%s\n",
                   p.variant.c_str(), p.bits_per_dim, p.recall_at_k,
                   i + 1 < er.report.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", e + 1 < recall.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");

  std::fprintf(f,
               "  \"service\": {\"rows\": %lld, \"queries\": %llu, "
               "\"rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
               "\"scan_codes_per_s\": %.3e},\n",
               static_cast<long long>(service.rows),
               static_cast<unsigned long long>(service.queries), service.rps,
               service.p50_us, service.p99_us, service.scan_codes_per_s);

  // The acceptance target (DESIGN.md §15): 1-bit search >=8x the fp32 exact
  // baseline — both the raw scan AND the end-to-end reranked query — while
  // the SAME operating point holds recall@10 >= 0.9 on the CQ-pretrained
  // encoder.
  const bool met = scan_speedup_1bit >= 8.0 && query_speedup_1bit >= 8.0 &&
                   cq_recall >= 0.9 && g_failures == 0;
  std::fprintf(f,
               "  \"headline\": {\"scan_speedup_1bit\": %.2f, "
               "\"query_speedup_1bit_rerank\": %.2f, "
               "\"recall_at_10\": %.4f, \"target_met\": %s}\n",
               scan_speedup_1bit, query_speedup_1bit, cq_recall,
               met ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (target_met=%s)\n", path.c_str(),
              met ? "true" : "false");
  if (!met) {
    std::fprintf(stderr,
                 "headline target missed: scan speedup %.2f / query speedup "
                 "%.2f (both need >=8), recall@10 %.3f (need >=0.9)\n",
                 scan_speedup_1bit, query_speedup_1bit, cq_recall);
    ++g_failures;
  }
}

int smoke() {
  if (!equivalence_gate()) return 1;
  const auto r = run_service_load(/*rows=*/3000, /*clients=*/3,
                                  /*per_client=*/4);
  if (g_failures != 0 || r.queries != 12) {
    std::fprintf(stderr, "smoke burst failed: queries=%llu failures=%d\n",
                 static_cast<unsigned long long>(r.queries), g_failures);
    return 1;
  }
  std::printf("SEARCH_SMOKE_OK\n");
  return 0;
}

int run(const std::string& json_path) {
  if (!equivalence_gate()) return 1;

  // Corpus sized past LLC for the fp32 matrix (400k x 64 fp32 = 102 MB; the
  // 1-bit codes are 3.2 MB) — the deployment regime the codes exist for.
  const std::int64_t rows = 400000, dim = 64;
  Rng rng(0xB15EC);
  std::vector<float> base(static_cast<std::size_t>(rows * dim));
  for (auto& v : base) v = rng.uniform(-1.0f, 1.0f);

  const ScanSection scan = bench_scan(base, rows, dim, 0.2);
  const QuerySection query = bench_query(base, rows, dim, 0.2);
  std::vector<float>().swap(base);  // release 102 MB before pretraining

  const auto bundle = core::make_bundle("synth-cifar");
  const auto recall = bench_recall(bundle);
  const auto service = run_service_load(/*rows=*/100000, /*clients=*/4,
                                        /*per_client=*/32);

  if (!json_path.empty())
    write_json(json_path, scan, query, recall, service);
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
      std::fprintf(stderr, "usage: search [--json=PATH] [--smoke]\n");
      return 2;
    }
  }
  return smoke_only ? smoke() : run(json);
}
