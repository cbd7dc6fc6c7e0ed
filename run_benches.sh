#!/bin/bash
# Runs every table/figure bench, skipping ones already completed
# (marker: bench_out/<name>.txt ends with the CQ_BENCH_DONE line), then
# regenerates the repo-root machine-readable baselines:
#   BENCH_gemm.json      blocked-vs-reference GEMM GFLOP/s
#   BENCH_pipeline.json  steady-state allocation accounting
#   BENCH_kernels.json   SIMD kernel layer: fused epilogues, quantize-on-pack
#   BENCH_serve.json     serving engine: dynamic batching vs serial baseline,
#                        plus the sharded-worker load matrix + scaling curve
#   BENCH_threadpool.json  thread pool: size-1 parity, dispatch overhead,
#                        parallel_for scaling
#   BENCH_search.json    binary-embedding search: Hamming scan vs fp32 brute
#                        force, recall@10-vs-bits, service qps/p99
#   BENCH_vit.json       transformer encoder: attention GEMM GFLOP/s,
#                        compiled-vs-eager ViT, CPT-V int8 recall@10 study
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
#   ./run_benches.sh --ci-gate  CI perf gate: run the bench-labeled ctest
#                               smokes, regenerate the seven bench JSONs into
#                               bench_out/, and compare each against the
#                               checked-in repo-root baseline with
#                               tools/bench_check at ±30% on the
#                               machine-portable metrics plus the int8 serve
#                               rps/p99 and the scale-out summary (scaling
#                               curve rps/p99, scaling_efficiency,
#                               spike_p99_us — same-host comparisons; the
#                               fp32 throughput gates only under
#                               --absolute). Non-zero exit on any smoke
#                               failure or regression.
#
# Any other flag is an error (exit 2) — CI must not silently fall through to
# the multi-hour full bench run because of a typo.
#
# Scale knobs below trade runtime for statistical polish; unset them for a
# full-scale run.
set -u
cd "$(dirname "$0")"

# Bench numbers are only comparable when the thread count is pinned: detect
# the hardware, print it, persist it next to the outputs, and default
# CQ_THREADS to the detected core count (callers can still override). The
# bench paths (--ci-gate and the full run) call this before running
# anything; the serve/threadpool JSONs also record the same values under
# their "hardware" key. The --check sweeps do NOT pin: the sanitizer runs
# force CQ_THREADS=4 instead so the threaded paths are exercised with real
# concurrency even on a single-core host.
pin_bench_threads() {
  CORES="$(nproc)"
  export CQ_THREADS="${CQ_THREADS:-$CORES}"
  echo "hardware: ${CORES} cores, CQ_THREADS=${CQ_THREADS}"
  mkdir -p bench_out
  echo "cores=${CORES} cq_threads=${CQ_THREADS}" > bench_out/hardware.txt
}

# Configure a preset only when its build tree has no cache yet, so repeated
# sweeps skip the cmake re-run and a half-deleted tree self-heals.
configure_if_missing() { # preset builddir
  if [ ! -f "$2/CMakeCache.txt" ]; then
    cmake --preset "$1"
  fi
}

case "${1:-}" in
--check)
  set -e
  # CQ_THREADS=4 forces real pool/queue concurrency through the sanitizer
  # runs regardless of the host's core count (the threadpool, parallel-GEMM,
  # and MPMC queue tests must be clean at >=4 threads, not just at the
  # single-core default).
  echo "=== sanitize preset (ASan+UBSan, substrate + kernel tests) ==="
  cmake --preset sanitize
  cmake --build --preset sanitize -j"$(nproc)"
  CQ_THREADS=4 ctest --preset sanitize -j"$(nproc)"
  echo "=== scalar preset (CQ_SCALAR_KERNELS=ON, portable backend) ==="
  cmake --preset scalar
  cmake --build --preset scalar -j"$(nproc)"
  ctest --preset scalar -j"$(nproc)"
  echo "=== tsan preset (ThreadSanitizer, serve-labeled tests) ==="
  cmake --preset tsan
  cmake --build --preset tsan -j"$(nproc)"
  CQ_THREADS=4 ctest --preset tsan -j"$(nproc)"
  echo ALL_CHECKS_DONE
  exit 0
  ;;
--ci-gate)
  set -e
  pin_bench_threads
  configure_if_missing default build
  cmake --build --preset default -j"$(nproc)"
  echo "=== bench-labeled ctest smokes ==="
  ctest --preset default -L bench
  echo "=== regenerating bench JSONs into bench_out/ ==="
  mkdir -p bench_out
  ./build/bench/micro_kernels --gemm_json=bench_out/BENCH_gemm.json \
    2> bench_out/gemm_json.err
  ./build/bench/pipeline_alloc --json=bench_out/BENCH_pipeline.json \
    > bench_out/pipeline_json.txt 2>&1
  ./build/bench/kernels --json=bench_out/BENCH_kernels.json \
    2> bench_out/kernels_json.err
  ./build/bench/serve --json=bench_out/BENCH_serve.json \
    > bench_out/serve_json.txt 2>&1
  ./build/bench/threadpool --json=bench_out/BENCH_threadpool.json \
    > bench_out/threadpool_json.txt 2>&1
  ./build/bench/search --json=bench_out/BENCH_search.json \
    > bench_out/search_json.txt 2>&1
  ./build/bench/vit --json=bench_out/BENCH_vit.json \
    > bench_out/vit_json.txt 2>&1
  echo "=== comparing against repo-root baselines ==="
  status=0
  for b in gemm pipeline kernels serve threadpool search vit; do
    # Fail fast on a missing baseline: cq_bench_check would only see the
    # unreadable-file error, and a bench added without its checked-in
    # baseline must not look like a perf regression (or worse, pass).
    if [ ! -f "BENCH_${b}.json" ]; then
      echo "run_benches.sh: baseline BENCH_${b}.json missing from repo" \
        "root — run ./run_benches.sh once and commit the generated file" >&2
      echo "CI_GATE_MISSING_BASELINE" >&2
      exit 1
    fi
    # And fail fast when the bench didn't write its candidate: a bench that
    # exits 0 without emitting JSON (or a generation line dropped from the
    # list above) must not silently skip its gate.
    if [ ! -f "bench_out/BENCH_${b}.json" ]; then
      echo "run_benches.sh: candidate bench_out/BENCH_${b}.json was not" \
        "generated — see bench_out/${b}_json.* for the bench's output" >&2
      echo "CI_GATE_MISSING_CANDIDATE" >&2
      exit 1
    fi
    ./build/src/cq_bench_check "bench_out/BENCH_${b}.json" \
      "BENCH_${b}.json" || status=1
  done
  if [ "$status" -ne 0 ]; then
    echo "CI_GATE_REGRESSION" >&2
    exit 1
  fi
  echo CI_GATE_OK
  exit 0
  ;;
"") ;;
*)
  echo "run_benches.sh: unknown flag '$1' (expected --check or --ci-gate)" >&2
  exit 2
  ;;
esac

pin_bench_threads

export CQ_FT_EPOCHS=${CQ_FT_EPOCHS:-10}
export CQ_DET_EPOCHS=${CQ_DET_EPOCHS:-20}
export CQ_TSNE_ITERS=${CQ_TSNE_ITERS:-200}

if [ ! -x build/bench/micro_kernels ] || [ ! -x build/bench/kernels ] \
   || [ ! -x build/bench/pipeline_alloc ] || [ ! -x build/bench/serve ] \
   || [ ! -x build/bench/threadpool ] || [ ! -x build/bench/search ] \
   || [ ! -x build/bench/vit ]; then
  cmake --preset default
  cmake --build --preset default -j"$(nproc)"
fi

mkdir -p bench_out
for b in table1_imagenet_finetune table2_imagenet_linear table3_detection_transfer \
         table4_cifar_finetune table5_cifar_linear table6_byol_finetune \
         table7_cq_variants table8_cq_quant fig2_tsne ablation_quant_design \
         ext_extensions; do
  out="bench_out/${b}.txt"
  if [ -f "$out" ] && grep -q "^CQ_BENCH_DONE$" "$out"; then
    echo "skip $b (done)"
    continue
  fi
  echo "=== RUNNING $b ==="
  if ./build/bench/$b > "$out.tmp" 2> "bench_out/${b}.err"; then
    echo "CQ_BENCH_DONE" >> "$out.tmp"
    mv "$out.tmp" "$out"
    echo "done $b"
  else
    echo "FAILED $b (see bench_out/${b}.err)"
    mv "$out.tmp" "$out.failed" 2>/dev/null
  fi
done

# Machine-readable baselines live in the repo root so perf drift shows up in
# review diffs. Each regenerates unconditionally (cheap next to the tables).
echo "=== RUNNING json baselines ==="
./build/bench/micro_kernels --gemm_json=BENCH_gemm.json \
  2> bench_out/gemm_json.err && echo "done BENCH_gemm.json" \
  || echo "FAILED BENCH_gemm.json (see bench_out/gemm_json.err)"
./build/bench/pipeline_alloc --json=BENCH_pipeline.json \
  > bench_out/pipeline_json.txt 2>&1 && echo "done BENCH_pipeline.json" \
  || echo "FAILED BENCH_pipeline.json (see bench_out/pipeline_json.txt)"
./build/bench/kernels --json=BENCH_kernels.json \
  2> bench_out/kernels_json.err && echo "done BENCH_kernels.json" \
  || echo "FAILED BENCH_kernels.json (see bench_out/kernels_json.err)"
./build/bench/serve --json=BENCH_serve.json \
  > bench_out/serve_json.txt 2>&1 && echo "done BENCH_serve.json" \
  || echo "FAILED BENCH_serve.json (see bench_out/serve_json.txt)"
./build/bench/threadpool --json=BENCH_threadpool.json \
  > bench_out/threadpool_json.txt 2>&1 && echo "done BENCH_threadpool.json" \
  || echo "FAILED BENCH_threadpool.json (see bench_out/threadpool_json.txt)"
./build/bench/search --json=BENCH_search.json \
  > bench_out/search_json.txt 2>&1 && echo "done BENCH_search.json" \
  || echo "FAILED BENCH_search.json (see bench_out/search_json.txt)"
./build/bench/vit --json=BENCH_vit.json \
  > bench_out/vit_json.txt 2>&1 && echo "done BENCH_vit.json" \
  || echo "FAILED BENCH_vit.json (see bench_out/vit_json.txt)"
echo ALL_BENCHES_DONE
