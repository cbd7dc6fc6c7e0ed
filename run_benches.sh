#!/bin/bash
# Runs every paper experiment (`build/bench/experiments <name>`), skipping
# ones already completed (marker: bench_out/<name>.txt ends with the
# CQ_BENCH_DONE line), then
# the report-only micro benches, each writing a JSON report into bench_out/:
#   gemm.json        blocked-vs-reference GEMM GFLOP/s
#   pipeline.json    steady-state allocation accounting
#   kernels.json     SIMD kernel layer: fused epilogues, quantize-on-pack
#   search.json      binary-embedding search: Hamming scan vs fp32 brute
#                    force, recall@10-vs-bits, service qps/p99
#   vit.json         transformer encoder: attention GEMM GFLOP/s,
#                    compiled-vs-eager ViT, CPT-V int8 recall@10 study
# Nothing compares these numbers against a baseline; the end-to-end
# benchmark with its gates is perfbench/ (perfbench/README.md).
#
#   ./run_benches.sh            build ./build if needed, run benches + JSONs
#   ./run_benches.sh --check    correctness sweep instead of benches:
#                               substrate + kernel tests under ASan+UBSan
#                               (`sanitize` preset), under the portable scalar
#                               kernel backend (`scalar` preset,
#                               CQ_SCALAR_KERNELS=ON), and the serve-labeled
#                               threaded tests under ThreadSanitizer (`tsan`
#                               preset). Always reconfigures each preset:
#                               their build presets name explicit test
#                               targets, and a tree configured before a
#                               target was added fails with "No rule to
#                               make target" instead of self-regenerating.
#
# Any other flag is an error (exit 2): a typo must not silently fall through
# to the multi-hour full bench run.
#
# Scale knobs below trade runtime for statistical polish; unset them for a
# full-scale run.
set -u
cd "$(dirname "$0")"

case "${1:-}" in
--check)
  set -e
  echo "=== sanitize preset (ASan+UBSan, substrate + kernel tests) ==="
  cmake --preset sanitize
  cmake --build --preset sanitize -j"$(nproc)"
  ctest --preset sanitize -j"$(nproc)"
  echo "=== scalar preset (CQ_SCALAR_KERNELS=ON, portable backend) ==="
  cmake --preset scalar
  cmake --build --preset scalar -j"$(nproc)"
  ctest --preset scalar -j"$(nproc)"
  echo "=== tsan preset (ThreadSanitizer, serve-labeled tests) ==="
  cmake --preset tsan
  cmake --build --preset tsan -j"$(nproc)"
  ctest --preset tsan -j"$(nproc)"
  echo ALL_CHECKS_DONE
  exit 0
  ;;
"") ;;
*)
  echo "run_benches.sh: unknown flag '$1' (expected --check)" >&2
  exit 2
  ;;
esac

export CQ_FT_EPOCHS=${CQ_FT_EPOCHS:-10}
export CQ_DET_EPOCHS=${CQ_DET_EPOCHS:-20}
export CQ_TSNE_ITERS=${CQ_TSNE_ITERS:-200}

if [ ! -x build/bench/experiments ] || [ ! -x build/bench/micro_kernels ] \
   || [ ! -x build/bench/kernels ] \
   || [ ! -x build/bench/pipeline_alloc ] \
   || [ ! -x build/bench/search ] \
   || [ ! -x build/bench/vit ]; then
  cmake --preset default
  cmake --build --preset default -j"$(nproc)"
fi

mkdir -p bench_out
for b in table1 table2 table3 table4 table5 table6 table7 table8 fig2 \
         ablation extensions; do
  out="bench_out/${b}.txt"
  if [ -f "$out" ] && grep -q "^CQ_BENCH_DONE$" "$out"; then
    echo "skip $b (done)"
    continue
  fi
  echo "=== RUNNING $b ==="
  if ./build/bench/experiments "$b" > "$out.tmp" 2> "bench_out/${b}.err"; then
    echo "CQ_BENCH_DONE" >> "$out.tmp"
    mv "$out.tmp" "$out"
    echo "done $b"
  else
    echo "FAILED $b (see bench_out/${b}.err)"
    mv "$out.tmp" "$out.failed" 2>/dev/null
  fi
done

# Report-only micro bench JSONs. Each regenerates unconditionally (cheap
# next to the tables).
echo "=== RUNNING json reports ==="
json_report() { # name command...
  local name="$1"
  shift
  if "$@" > "bench_out/${name}_json.txt" 2>&1; then
    echo "done bench_out/${name}.json"
  else
    echo "FAILED bench_out/${name}.json (see bench_out/${name}_json.txt)"
  fi
}
json_report gemm ./build/bench/micro_kernels --gemm_json=bench_out/gemm.json
json_report pipeline ./build/bench/pipeline_alloc --json=bench_out/pipeline.json
json_report kernels ./build/bench/kernels --json=bench_out/kernels.json
json_report search ./build/bench/search --json=bench_out/search.json
json_report vit ./build/bench/vit --json=bench_out/vit.json
echo ALL_BENCHES_DONE
