// End-to-end benchmark entry point (see README.md).
//
//   perfbench --workload encode_r18|search_vit --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//             [--tiny] [--inject-delay-us D] [--corrupt] [--rate R]
//
// Prints a human summary, one report line ({"stamp", "phases", "notes",
// "metrics"}, also written under the workdir), and as the
// last line the result object {"correct", "attempted", "failed",
// "metrics"} with the metrics the run measured: the end-to-end ones
// untraced, the per-layer ones traced. A failed correctness gate prints no
// result and exits 3.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload encode_r18|search_vit "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] [--tiny] "
               "[--inject-delay-us D] [--corrupt] [--rate R]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // One GEMM thread: the engine workers and load generators are the
  // process's parallelism (README.md). Must precede the pool's first use.
  setenv("CQ_THREADS", "1", /*overwrite=*/0);

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() == "1";
      else if (a == "--workdir") args.workdir = value();
      else if (a == "--tiny") args.tiny = true;
      else if (a == "--inject-delay-us") args.inject_delay_us = std::stod(value());
      else if (a == "--corrupt") args.corrupt = true;
      else if (a == "--rate") args.rate = std::stod(value());
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
  }
  if (args.seconds <= 0.0) return usage();

  Result res;
  try {
    if (args.workload == "encode_r18") res = run_encode_r18(args);
    else if (args.workload == "search_vit") res = run_search_vit(args);
    else return usage();
    if (args.trace) layer_probes(args, res);
  } catch (const GateFailure& g) {
    std::fprintf(stderr, "GATE FAILED: %s\n", g.what.c_str());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // The metrics this run measured. run.py checks them against the set and
  // units BENCHMARK.json declares.
  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& [name, value_unit] = res.metrics[i];
    const auto& [value, unit] = value_unit;
    metrics << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
            << num(value) << ", \"unit\": \"" << unit << "\"}";
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  metrics << "}";

  std::uint64_t attempted = 0, failed = 0;
  std::ostringstream phases;
  phases << "[";
  for (std::size_t i = 0; i < res.phases.size(); ++i) {
    const auto& p = res.phases[i];
    attempted += p.attempted;
    failed += p.failed;
    phases << (i ? ", " : "") << "{\"phase\": \"" << p.name
           << "\", \"attempted\": " << p.attempted << ", \"ok\": " << p.ok
           << ", \"failed\": " << p.failed << "}";
    std::printf("  phase %-14s attempted %8llu ok %8llu failed %llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.failed));
  }
  phases << "]";

  std::ostringstream notes;
  notes << "{";
  for (std::size_t i = 0; i < res.notes.size(); ++i)
    notes << (i ? ", " : "") << "\"" << res.notes[i].first
          << "\": " << num(res.notes[i].second);
  notes << "}";
  const std::string report = "{\"stamp\": " + stamp_json(args) +
                             ", \"phases\": " + phases.str() +
                             ", \"notes\": " + notes.str() +
                             ", \"metrics\": " + metrics.str() + "}";
  std::filesystem::create_directories(args.workdir);
  std::ofstream(args.workdir + "/report_" + args.workload + "_seed" +
                std::to_string(args.seed) + (args.trace ? "_trace" : "") +
                ".json")
      << report << "\n";
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  return 0;
}
