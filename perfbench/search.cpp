// search_vit: search::Service over an int8 ViT encoder (1 engine worker) and
// a 1-bit index with stored embeddings, queried at k=10, overfetch=8 with
// cosine rerank.
//
// Service::search blocks its caller through the encode leg and the scan, so
// the load comes from a few caller threads. The open-loop phase precomputes
// a seeded schedule of Poisson query arrivals merged with Service::add
// batches; each caller takes the next event, waits for its scheduled time
// and runs it, and latency counts from the scheduled time, so an event that
// waited for a free caller pays that wait. The closed loop runs one caller
// back to back and is also the light phase.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "core/prof.hpp"
#include "core/trace.hpp"
#include "data/synth.hpp"
#include "search/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cq;

namespace {

// Offered query rate of the open-loop phase (1/s), well below the
// closed-loop capacity on the reference host for the reason given in
// encode.cpp, and the rate of Service::add batches beside it.
constexpr double kOpenRate = 1000.0;
constexpr double kAddRate = 20.0;
constexpr std::int64_t kAddBatch = 64;
// Open-loop callers. The closed loop runs one caller: with two, blocking
// callers settle either in step (one batch of two per forward) or staggered
// (the worker never idle), and run to run closed-loop throughput flipped
// between the two by up to 2.5x.
constexpr std::size_t kCallers = 2;
constexpr std::int64_t kImg = 16;
constexpr std::int64_t kK = 10;
constexpr std::int64_t kOverfetch = 8;
constexpr float kJitter = 0.15f;  // relative to the row's RMS coordinate

search::QueryOptions query_options() {
  search::QueryOptions o;
  o.k = kK;
  o.overfetch = kOverfetch;
  o.rerank = true;
  return o;
}

serve::EngineConfig engine_config(const std::string& ckpt) {
  serve::EngineConfig cfg;
  cfg.checkpoint = ckpt;
  cfg.arch = "vit";
  cfg.in_h = kImg;
  cfg.in_w = kImg;
  cfg.instance = serve::InstanceKind::kInt8;
  cfg.workers = 1;
  cfg.max_batch = 8;
  // No batching window: with blocking callers a window makes every batch
  // wait it out. Requests still batch when they queue behind a forward.
  cfg.max_wait = std::chrono::microseconds(0);
  cfg.queue_capacity = 64;
  return cfg;
}

bool same_hits(const search::Result* a, const search::Result* b,
               std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    if (a[i].id != b[i].id || a[i].dist != b[i].dist ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0)
      return false;
  return true;
}

struct Event {
  double t = 0.0;         // seconds after phase start
  std::int64_t add = -1;  // add batch index, or -1 for a query
  std::int64_t query = 0;
};

struct PhaseStats {
  PhaseCount count;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<double> add_us;
  double wall_s = 0.0;
  std::uint64_t mismatches = 0;
};

struct Workload {
  const Args& args;
  search::Service& svc;
  const std::vector<float>& queries;  // [nq, sample]
  const std::vector<float>& qrefs;    // [nq, dim] plan features
  std::int64_t nq = 0;
  std::int64_t dim = 0;
  std::int64_t sample = 0;
  const float* add_rows;  // [batches * kAddBatch, dim]
  const std::uint64_t* add_ids;
  std::atomic<std::int64_t> next_add{0};
  bool traced = false;

  /// The benchmark's call wrappers: spans named after the public call, the
  /// op id as their argument.
  serve::Status search(std::uint64_t id, std::int64_t q,
                       search::Service::Context& ctx, search::Result* hits,
                       std::int64_t* n) {
    if (args.inject_delay_us > 0.0) spin_for_us(args.inject_delay_us);
    const float* img = queries.data() + q * sample;
    if (!traced) return svc.search(img, query_options(), ctx, hits, n);
    static prof::Counter& c = prof::Counter::get("bench.search");
    trace::Scope span(c, "bench.search", static_cast<std::int64_t>(id));
    return svc.search(img, query_options(), ctx, hits, n);
  }

  void add(std::uint64_t id, std::int64_t batch) {
    const float* rows = add_rows + batch * kAddBatch * dim;
    const std::uint64_t* ids = add_ids + batch * kAddBatch;
    if (!traced) return svc.add(rows, ids, kAddBatch);
    static prof::Counter& c = prof::Counter::get("bench.add");
    trace::Scope span(c, "bench.add", static_cast<std::int64_t>(id));
    svc.add(rows, ids, kAddBatch);
  }

  /// One query plus its gates: status, full result count, and the encode
  /// leg's embedding bitwise equal to the plan's forward of that image.
  bool checked_query(std::uint64_t id, std::int64_t q,
                     search::Service::Context& ctx, search::Result* hits,
                     PhaseStats& ps, Clock::time_point sched,
                     std::vector<double>& lat) {
    std::int64_t n = 0;
    const serve::Status st = search(id, q, ctx, hits, &n);
    lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - sched)
                      .count());
    if (st != serve::Status::kOk || n != kK) return false;
    if (std::memcmp(ctx.feature.data(), qrefs.data() + q * dim,
                    static_cast<std::size_t>(dim) * sizeof(float)) != 0)
      ++ps.mismatches;
    return true;
  }

  /// Open loop over a precomputed event schedule.
  PhaseStats open(double seconds, Rng& rng, std::int64_t add_batches) {
    std::mt19937_64 gen(rng.next_u64());
    std::vector<Event> events;
    std::exponential_distribution<double> qgap(
        args.rate > 0.0 ? args.rate : kOpenRate),
        agap(kAddRate);
    std::uniform_int_distribution<std::int64_t> pick(0, nq - 1);
    for (double t = qgap(gen); t < seconds; t += qgap(gen))
      events.push_back({t, -1, pick(gen)});
    std::int64_t adds = next_add.load();
    for (double t = agap(gen); t < seconds && adds < add_batches; t += agap(gen))
      events.push_back({t, adds++, 0});
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.t < b.t; });

    PhaseStats ps;
    ps.count.name = "open";
    std::atomic<std::size_t> cursor{0};
    std::vector<PhaseStats> per(kCallers);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kCallers; ++c)
      threads.emplace_back([&, c] {
        PhaseStats& mine = per[c];
        search::Service::Context ctx;
        svc.prewarm(query_options(), ctx);
        std::vector<search::Result> hits(kK);
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= events.size()) break;
          const Event& ev = events[i];
          const auto sched = t0 + std::chrono::nanoseconds(
                                      static_cast<std::int64_t>(ev.t * 1e9));
          wait_until(sched);
          mine.late_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - sched)
                  .count());
          if (ev.add >= 0) {
            const auto start = Clock::now();
            add(i, ev.add);
            mine.add_us.push_back(std::chrono::duration<double, std::micro>(
                                      Clock::now() - start)
                                      .count());
            continue;
          }
          ++mine.count.attempted;
          if (checked_query(i, ev.query, ctx, hits.data(), mine, sched,
                            mine.latency_us))
            ++mine.count.ok;
          else
            ++mine.count.failed;
        }
      });
    for (auto& t : threads) t.join();
    ps.wall_s = seconds_since(t0);
    next_add = adds;
    for (auto& m : per) {
      ps.count.attempted += m.count.attempted;
      ps.count.ok += m.count.ok;
      ps.count.failed += m.count.failed;
      ps.mismatches += m.mismatches;
      ps.latency_us.insert(ps.latency_us.end(), m.latency_us.begin(),
                           m.latency_us.end());
      ps.late_us.insert(ps.late_us.end(), m.late_us.begin(), m.late_us.end());
      ps.add_us.insert(ps.add_us.end(), m.add_us.begin(), m.add_us.end());
    }
    return ps;
  }

  /// Closed loop of one caller, on this thread: queries back to back. Every
  /// 16th is also compared bitwise against search_features on the same
  /// embedding (a sample, so the check adds little to the phase's time).
  PhaseStats closed(const std::string& name, double seconds, Rng& rng) {
    PhaseStats ps;
    ps.count.name = name;
    std::mt19937_64 gen(rng.next_u64());
    std::uniform_int_distribution<std::int64_t> pick(0, nq - 1);
    search::Service::Context ctx;
    svc.prewarm(query_options(), ctx);
    search::QueryScratch scratch;
    std::vector<search::Result> hits(kK), direct(kK);
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::nanoseconds(
                              static_cast<std::int64_t>(seconds * 1e9));
    for (std::uint64_t id = 0; Clock::now() < end; ++id) {
      ++ps.count.attempted;
      if (!checked_query(id, pick(gen), ctx, hits.data(), ps, Clock::now(),
                         ps.latency_us)) {
        ++ps.count.failed;
        continue;
      }
      ++ps.count.ok;
      if (id % 16 != 0) continue;
      const std::int64_t n = svc.search_features(
          ctx.feature.data(), query_options(), scratch, direct.data());
      if (n != kK || !same_hits(hits.data(), direct.data(), kK))
        ++ps.mismatches;
    }
    ps.wall_s = seconds_since(t0);
    return ps;
  }
};

void gate(const PhaseStats& ps) {
  if (ps.mismatches > 0)
    fail_gate("search_vit " + ps.count.name + ": " +
              std::to_string(ps.mismatches) +
              " queries whose embedding or hits differ from the reference");
}

/// Gate one phase and add its ops to the running total.
void tally(PhaseCount& total, const PhaseStats& ps) {
  gate(ps);
  total.attempted += ps.count.attempted;
  total.ok += ps.count.ok;
  total.failed += ps.count.failed;
}

}  // namespace

Result run_search_vit(const Args& args) {
  Result res;
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 23);
  const std::string ckpt = checkpoint(args, "vit");
  const std::int64_t sample = 3 * kImg * kImg;

  // Inputs from the seed: base images (encoded into the index), query
  // images (same classes, other instances), jitter and add batches.
  const data::SynthConfig scfg = data::synth_cifar_config();
  const std::int64_t nbase = args.tiny ? 128 : 2048;
  const std::int64_t rows = args.tiny ? 5000 : 100000;
  const std::int64_t nq = args.tiny ? 64 : 2048;
  Rng base_rng(args.seed * 1000003 + 7), query_rng(args.seed * 1000003 + 8);
  const auto base_ds = data::make_synth_dataset(scfg, nbase, base_rng);
  const auto query_ds = data::make_synth_dataset(scfg, nq, query_rng);
  auto stack = [&](const data::Dataset& ds) {
    std::vector<float> v(static_cast<std::size_t>(ds.size() * sample));
    for (std::int64_t i = 0; i < ds.size(); ++i)
      std::memcpy(v.data() + i * sample, ds.images[i].data(),
                  static_cast<std::size_t>(sample) * sizeof(float));
    return v;
  };
  const std::vector<float> base_imgs = stack(base_ds);
  const std::vector<float> queries = stack(query_ds);

  auto enc = load_encoder("vit", ckpt);
  const std::int64_t dim = enc.feature_dim;
  auto plan = serve::make_instance(serve::InstanceKind::kInt8, *enc.backbone,
                                   Shape{3, kImg, kImg}, 64);
  auto encode = [&](const std::vector<float>& imgs, std::int64_t n,
                    std::int64_t width) {
    std::vector<float> out(static_cast<std::size_t>(n * dim));
    for (std::int64_t b = 0; b < n; b += width) {
      const std::int64_t m = std::min(width, n - b);
      Tensor x(Shape{m, 3, kImg, kImg});
      std::memcpy(x.data(), imgs.data() + b * sample,
                  static_cast<std::size_t>(m * sample) * sizeof(float));
      const Tensor& y = plan->forward(x);
      std::memcpy(out.data() + b * dim, y.data(),
                  static_cast<std::size_t>(m * dim) * sizeof(float));
    }
    return out;
  };
  // Batched == serial bitwise is the plan's contract, so a wide forward
  // gives the same reference rows as batch-1 ones.
  const std::vector<float> qrefs = encode(queries, nq, 64);

  // Index rows: the encoded base images, then seeded jittered copies; add
  // batches are further jittered copies with ids after the index rows, as
  // many as one service takes (one round's open phase, or a traced run's).
  // row_base maps every id to the base image (and so the class) it came
  // from. The rows are built once, outside every timed region; each
  // round's set-up re-encodes the base images, which the plan's bitwise
  // determinism makes equal to the rows here (checked).
  const int rounds = args.trace ? 1 : args.tiny ? 2 : 16;
  const double round_s = args.seconds / rounds;
  const std::int64_t add_batches =
      static_cast<std::int64_t>(kAddRate * 0.5 * round_s) + 4;
  const std::int64_t total = rows + add_batches * kAddBatch;
  const std::vector<float> base = encode(base_imgs, nbase, 64);
  std::vector<std::int64_t> row_base(static_cast<std::size_t>(total));
  std::vector<float> all_rows(static_cast<std::size_t>(total * dim));
  std::vector<std::uint64_t> all_ids(static_cast<std::size_t>(total));
  Rng pick_rng(args.seed * 1000003 + 9);
  for (std::int64_t r = 0; r < total; ++r) {
    all_ids[r] = static_cast<std::uint64_t>(r);
    row_base[r] = r < nbase ? r
                            : static_cast<std::int64_t>(
                                  pick_rng.uniform_index(nbase));
    const float* src = base.data() + row_base[r] * dim;
    float* dst = all_rows.data() + r * dim;
    if (r < nbase) {
      std::memcpy(dst, src, static_cast<std::size_t>(dim) * sizeof(float));
    } else {
      double ss = 0.0;
      for (std::int64_t d = 0; d < dim; ++d) ss += double(src[d]) * src[d];
      const float scale = kJitter * static_cast<float>(std::sqrt(
                                        ss / static_cast<double>(dim)));
      for (std::int64_t d = 0; d < dim; ++d)
        dst[d] = src[d] + scale * static_cast<float>(pick_rng.normal());
    }
    if (std::all_of(dst, dst + dim, [](float v) { return v == 0.0f; }))
      fail_gate("search_vit: row " + std::to_string(r) + " is all zero");
  }

  // Set-up, timed: encode the base images, fit the binarizer on them, build
  // the index, start the service.
  std::vector<double> setup_s, build_s;
  auto build_service = [&] {
    const auto t0 = Clock::now();
    const std::vector<float> encoded = encode(base_imgs, nbase, 64);
    const auto tb = Clock::now();
    search::IndexConfig icfg;
    icfg.dim = dim;
    icfg.layout = search::CodeLayout::k1Bit;
    icfg.store_embeddings = true;
    search::Index index(icfg, search::Binarizer::fit(encoded.data(), nbase, dim,
                                                     search::CodeLayout::k1Bit));
    index.add(all_rows.data(), all_ids.data(), rows);
    build_s.push_back(seconds_since(tb));
    search::ServiceConfig cfg;
    cfg.engine = engine_config(ckpt);
    auto svc = std::make_unique<search::Service>(cfg, std::move(index));
    setup_s.push_back(seconds_since(t0));
    if (std::memcmp(encoded.data(), base.data(),
                    encoded.size() * sizeof(float)) != 0)
      fail_gate("search_vit: re-encoded base images differ from the index rows");
    return svc;
  };
  auto workload = [&](search::Service& svc) {
    return std::unique_ptr<Workload>(new Workload{
        args, svc, queries, qrefs, nq, dim, sample,
        all_rows.data() + rows * dim, all_ids.data() + rows});
  };

  const double s = args.seconds;
  const double warmup_s = std::min(0.3, 0.02 * s);
  std::unique_ptr<search::Service> svc;
  std::unique_ptr<Workload> w;
  PhaseStats open, closed, traced;
  double traced_scan_ms = 0.0;
  search::SearchStats before_open, after_open;
  serve::EngineStats engine_open;
  std::vector<double> tput, p50, p99, light_p50;
  if (!args.trace) {
    // Rounds as in encode.cpp: a fresh service per round (one set-up
    // sample), then a closed phase with one caller, which is also the light
    // phase, and an open phase.
    // The peak resident set covers the rounds alone: the benchmark's own
    // inputs and rows are resident from here on, the services come and go.
    // One service is alive at a time.
    PhaseCount c_total{"closed"}, o_total{"open"};
    reset_peak_rss();
    res.note("rss_before_rounds_mb", rss_mb());
    for (int r = 0; r < rounds; ++r) {
      w.reset();
      if (svc) svc->stop();
      svc.reset();
      svc = build_service();
      w = workload(*svc);
      gate(w->closed("warmup", warmup_s, rng));
      closed = w->closed("closed", 0.5 * round_s, rng);
      open = w->open(0.5 * round_s, rng, add_batches);
      tally(c_total, closed);
      tally(o_total, open);
      tput.push_back(static_cast<double>(closed.count.ok) / closed.wall_s);
      light_p50.push_back(percentile(closed.latency_us, 50));
      p50.push_back(percentile(open.latency_us, 50));
      p99.push_back(percentile(open.latency_us, 99));
    }
    for (const auto& p : {c_total, o_total}) res.add_phase(p);
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Traced run as in encode.cpp: no warm-up, so the engine's latency
    // histograms cover the open-loop phase alone.
    svc = build_service();
    w = workload(*svc);
    before_open = svc->search_stats();
    open = w->open(0.35 * s, rng, add_batches);
    gate(open);
    res.add_phase(open.count);
    after_open = svc->search_stats();
    engine_open = svc->engine().stats();
    closed = w->closed("closed", 0.2 * s, rng);
    gate(closed);
    res.add_phase(closed.count);
    trace::set_ring_capacity(std::size_t{1} << 20);
    trace::reset();
    prof::reset();
    const std::uint64_t scan_before = svc->search_stats().scan_micros;
    trace::enable(true);
    w->traced = true;
    traced = w->closed("closed_traced", 0.05 * s, rng);
    w->traced = false;
    trace::enable(false);
    traced_scan_ms =
        static_cast<double>(svc->search_stats().scan_micros - scan_before) / 1e3;
    gate(traced);
    res.add_phase(traced.count);
  }

  // Quiescent checks: sampled Service::search hits bitwise equal to
  // search_features on the same embedding; recall@10 of the service against
  // a brute-force fp32 cosine top-10 over every row now in the index; top-1
  // class agreement.
  const std::int64_t indexed = rows + w->next_add.load() * kAddBatch;
  search::Service::Context ctx;
  svc->prewarm(query_options(), ctx);
  search::QueryScratch scratch;
  std::vector<search::Result> hits(kK), direct(kK);
  std::mt19937_64 sample_gen(rng.next_u64());
  std::uniform_int_distribution<std::int64_t> pick(0, nq - 1);
  for (int i = 0; i < 32; ++i) {
    const std::int64_t q = pick(sample_gen);
    std::int64_t n = 0;
    if (svc->search(queries.data() + q * sample, query_options(), ctx,
                    hits.data(), &n) != serve::Status::kOk || n != kK)
      fail_gate("search_vit: quiescent sampled search failed");
    const std::int64_t m = svc->search_features(ctx.feature.data(),
                                                query_options(), scratch,
                                                direct.data());
    if (args.corrupt && i == 0) hits[0].score = std::nextafter(hits[0].score, 2.0f);
    if (m != n || !same_hits(hits.data(), direct.data(), n))
      fail_gate("search_vit: Service::search hits differ from search_features");
  }
  const auto normed = normalized_rows(all_rows.data(), indexed, dim);
  const auto qnormed = normalized_rows(qrefs.data(), nq, dim);
  double recall = 0.0, top1 = 0.0;
  constexpr std::int64_t kBlock = 8;  // queries per pass over the rows
  std::vector<float> qt(static_cast<std::size_t>(dim * kBlock));
  for (std::int64_t q0 = 0; q0 < nq; q0 += kBlock) {
    const std::int64_t nb = std::min(kBlock, nq - q0);
    std::fill(qt.begin(), qt.end(), 0.0f);
    for (std::int64_t j = 0; j < nb; ++j)
      for (std::int64_t d = 0; d < dim; ++d)
        qt[d * kBlock + j] = qnormed[(q0 + j) * dim + d];
    // Exact top-k by cosine per query: a sorted list of the k best.
    std::vector<std::vector<std::pair<float, std::int64_t>>> best(kBlock);
    float floor[kBlock];  // k-th best so far, -inf until k are held
    std::fill(floor, floor + kBlock, -std::numeric_limits<float>::infinity());
    for (std::int64_t r = 0; r < indexed; ++r) {
      const float* row = normed.data() + r * dim;
      // One lane per query, so the eight sums stay in one register.
      typedef float Lanes __attribute__((vector_size(kBlock * sizeof(float))));
      Lanes acc = {};
      for (std::int64_t d = 0; d < dim; ++d) {
        Lanes qd;
        std::memcpy(&qd, qt.data() + d * kBlock, sizeof(qd));
        acc += qd * row[d];
      }
      float dot[kBlock];
      std::memcpy(dot, &acc, sizeof(dot));
      for (std::int64_t j = 0; j < nb; ++j) {
        if (dot[j] <= floor[j]) continue;
        auto& b = best[j];
        auto at = std::find_if(b.begin(), b.end(),
                               [&](const auto& e) { return dot[j] > e.first; });
        b.insert(at, {dot[j], r});
        if (static_cast<std::int64_t>(b.size()) > kK) b.pop_back();
        if (static_cast<std::int64_t>(b.size()) == kK) floor[j] = b.back().first;
      }
    }
    for (std::int64_t j = 0; j < nb; ++j) {
      const std::int64_t q = q0 + j;
      const std::int64_t n = svc->search_features(qrefs.data() + q * dim,
                                                  query_options(), scratch,
                                                  direct.data());
      std::int64_t hit = 0;
      for (const auto& e : best[j])
        for (std::int64_t i = 0; i < n; ++i)
          hit += static_cast<std::int64_t>(direct[i].id) == e.second;
      recall += static_cast<double>(hit) / kK;
      top1 += base_ds.labels[row_base[direct[0].id]] == query_ds.labels[q];
    }
  }
  recall /= static_cast<double>(nq);
  top1 /= static_cast<double>(nq);

  if (!args.trace) {
    svc->stop();
    res.set("setup_s", median(setup_s), "s");
    res.set("throughput_per_s", median(tput), "1/s");
    res.set("p50_us", median(p50), "us");
    res.set("light_p50_us", median(light_p50), "us");
    res.note("open_p99_us", median(p99));
    res.set("recall_at_10", recall, "ratio");
    res.set("knn_top1", top1, "ratio");
    return res;
  }

  svc->stop();
  const double queries_open =
      static_cast<double>(after_open.queries - before_open.queries);
  const double cand_per_query =
      static_cast<double>(after_open.candidates - before_open.candidates) /
      std::max(1.0, queries_open);
  res.set("search.scan_us_p50", after_open.scan_latency.percentile(50), "us");
  res.set("search.encode_leg_us", engine_open.total_latency.percentile(50), "us");
  res.set("search.scan_codes_per_s", after_open.scan_codes_per_s, "1/s");
  res.set("search.candidates_per_query", cand_per_query, "count");
  res.set("search.useful_ratio",
          cand_per_query > 0.0 ? static_cast<double>(kK) / cand_per_query : 0.0,
          "ratio");
  res.set("search.add_us_p50", percentile(open.add_us, 50), "us");
  res.set("search.index_build_s", median(build_s), "s");
  res.set("bench.gen_late_p99_us", percentile(open.late_us, 99), "us");
  // The index has no spans of its own: the search layer's busy time is the
  // service's own scan-time counter over the traced pass.
  const double threads = 2.0;  // the caller and the engine worker
  report_self_times(self_times(), {{"search", traced_scan_ms}},
                    threads * closed.wall_s * 1e6 / static_cast<double>(closed.count.ok),
                    threads * traced.wall_s * 1e6 / static_cast<double>(traced.count.ok),
                    traced.count.ok, res);
  write_chrome_trace(args);
  return res;
}

}  // namespace perfbench
