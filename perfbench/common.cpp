#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "tensor/kernels/igemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cq;

void fail_gate(const std::string& what) { throw GateFailure{what}; }

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics)
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Result::add_phase(const PhaseCount& p) {
  if (p.attempted != p.ok + p.failed)
    fail_gate("phase " + p.name + ": attempted != ok + failed");
  phases.push_back(p);
}

void wait_until(Clock::time_point t) {
  const auto now = Clock::now();
  if (t - now > std::chrono::microseconds(300))
    std::this_thread::sleep_until(t - std::chrono::microseconds(200));
  while (Clock::now() < t) {
  }
}

void spin_for_us(double us) {
  wait_until(Clock::now() + std::chrono::nanoseconds(
                                static_cast<std::int64_t>(us * 1e3)));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

namespace {
bool g_peak_reset = false;

/// A "Vm...:  N kB" field of /proc/self/status in MiB, or -1.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
  return -1.0;
}
}  // namespace

bool reset_peak_rss() {
  // Writing 5 to clear_refs resets this process's VmHWM (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  g_peak_reset = g_peak_reset || static_cast<bool>(out);
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  const double hwm = status_mb("VmHWM");
  if (hwm >= 0.0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double rss_mb() { return status_mb("VmRSS"); }

std::string stamp_json(const Args& args) {
  const char* sha = std::getenv("CQ_GIT_SHA");
  const char* threads = std::getenv("CQ_THREADS");
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cq_threads_env\": \"" << (threads ? threads : "") << "\""
     << ", \"pool_threads\": " << core::configured_threads()
     << ", \"simd_backend\": \"" << kernels::backend() << "\""
     << ", \"igemm_backend\": \"" << igemm::backend() << "\""
     << ", \"build_type\": \"" << CQ_BUILD_TYPE << "\""
     << ", \"git_sha\": \"" << (sha ? sha : "unknown") << "\""
     << ", \"workload\": \"" << args.workload << "\""
     << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"peak_rss_reset\": " << (g_peak_reset ? "true" : "false") << "}";
  return os.str();
}

std::string checkpoint(const Args& args, const std::string& arch) {
  std::filesystem::create_directories(args.workdir);
  const std::string path = args.workdir + "/weights_" + arch + ".bin";
  // Written fresh every run: the file is a few MB and the write is outside
  // every timed region.
  Rng rng(7);
  auto enc = models::make_encoder(arch, rng);
  if (arch != "vit") {
    enc.backbone->set_mode(nn::Mode::kTrain);
    for (int i = 0; i < 6; ++i) {
      enc.forward(Tensor::uniform(Shape{8, 3, 16, 16}, rng, -1.0f, 1.0f));
      enc.backbone->clear_cache();
    }
  }
  enc.backbone->set_mode(nn::Mode::kEval);
  models::save_module(path, *enc.backbone);
  return path;
}

models::Encoder load_encoder(const std::string& arch, const std::string& path) {
  Rng rng(1);
  auto enc = models::make_encoder(arch, rng);
  models::load_module(path, *enc.backbone);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  return enc;
}

std::vector<float> normalized_rows(const float* x, std::int64_t rows,
                                   std::int64_t dim) {
  std::vector<float> out(static_cast<std::size_t>(rows * dim));
  for (std::int64_t r = 0; r < rows; ++r) {
    double ss = 0.0;
    for (std::int64_t d = 0; d < dim; ++d) ss += double(x[r * dim + d]) * x[r * dim + d];
    const double inv = ss > 0.0 ? 1.0 / std::sqrt(ss) : 0.0;
    for (std::int64_t d = 0; d < dim; ++d)
      out[static_cast<std::size_t>(r * dim + d)] =
          static_cast<float>(x[r * dim + d] * inv);
  }
  return out;
}

std::vector<std::vector<std::int64_t>> cosine_topk(const float* x,
                                                   std::int64_t rows,
                                                   std::int64_t dim,
                                                   std::int64_t k) {
  const auto n = normalized_rows(x, rows, dim);
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(rows));
  std::vector<std::pair<double, std::int64_t>> scored;
  for (std::int64_t i = 0; i < rows; ++i) {
    scored.clear();
    for (std::int64_t j = 0; j < rows; ++j) {
      if (j == i) continue;
      double dot = 0.0;
      for (std::int64_t d = 0; d < dim; ++d)
        dot += double(n[i * dim + d]) * n[j * dim + d];
      scored.push_back({-dot, j});
    }
    const auto kk = std::min<std::int64_t>(k, static_cast<std::int64_t>(scored.size()));
    std::partial_sort(scored.begin(), scored.begin() + kk, scored.end());
    for (std::int64_t t = 0; t < kk; ++t) out[i].push_back(scored[t].second);
  }
  return out;
}

double set_recall(const std::vector<std::vector<std::int64_t>>& a,
                  const std::vector<std::vector<std::int64_t>>& b,
                  std::int64_t k) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t hit = 0;
    for (auto id : a[i])
      hit += std::count(b[i].begin(), b[i].end(), id) > 0 ? 1 : 0;
    sum += static_cast<double>(hit) / static_cast<double>(k);
  }
  return a.empty() ? 0.0 : sum / static_cast<double>(a.size());
}

// ---- traced runs -----------------------------------------------------------

namespace {
std::string layer_of(const std::string& name) {
  const std::string head = name.substr(0, name.find('.'));
  if (head == "gemm" || head == "igemm" || head == "im2col" ||
      head == "im2row" || head == "col2im" || head == "kernels")
    return "tensor";
  if (head == "simclr") return "core";
  if (head == "augment") return "data";
  return head;  // bench, serve, graph, search, nn, quant, optim
}
}  // namespace

const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers = {
      "serve", "graph", "search", "tensor", "nn",
      "quant", "core",  "optim",  "data"};
  return layers;
}

const std::vector<std::string>& traced_node_ops() {
  static const std::vector<std::string> ops = {
      "conv_int8", "linear_int8", "conv",  "linear",  "add",
      "relu",      "maxpool",     "gap",   "patch_embed", "layernorm",
      "gelu",      "attn",        "seq_mean"};
  return ops;
}

SelfTimes self_times() {
  auto spans = trace::snapshot();
  // Per thread, in (start asc, end desc) order a parent precedes its
  // children; a stack of open spans finds each span's direct parent.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const trace::Span& a, const trace::Span& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.end_ns > b.end_ns;
                   });
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    // Request spans of the open-loop client overlap one another on one
    // thread; they are latencies, not nested work, and stay out of the tree.
    if (std::string(s.name).rfind("bench.request", 0) == 0) continue;
    while (!stack.empty() && (spans[stack.back()].tid != s.tid ||
                              spans[stack.back()].end_ns <= s.start_ns))
      stack.pop_back();
    if (!stack.empty() && s.end_ns <= spans[stack.back()].end_ns)
      child_ns[stack.back()] += static_cast<double>(s.end_ns - s.start_ns);
    stack.push_back(i);
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::string name = s.name;
    if (name.rfind("bench.request", 0) == 0) continue;
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const double self_ms = std::max(0.0, dur_ms - child_ns[i] / 1e6);
    out.by_name_ms[name] += self_ms;
    out.by_layer_ms[layer_of(name)] += self_ms;
    out.total_ms += self_ms;
  }
  return out;
}

void write_chrome_trace(const Args& args) {
  std::filesystem::create_directories(args.workdir);
  trace_export::chrome(args.workdir + "/trace_" + args.workload + ".json");
}

}  // namespace perfbench
