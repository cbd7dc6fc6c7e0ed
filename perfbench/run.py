#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark from source into the build directory (CARGO_TARGET_DIR,
default .bench_build) under the current directory, runs one workload, checks
the result's metrics against the set and units BENCHMARK.json declares, and
prints the result object as the last line of standard output. Exits non-zero, with no
result line, when the build, a correctness gate or the check fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, args, extra=()):
    """Runs one workload; returns (returncode, stdout lines)."""
    env = dict(os.environ, CQ_THREADS="1", CQ_GIT_SHA=git_sha())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir(), "out"), *extra]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
        return 124, []
    return r.returncode, r.stdout.splitlines()


def parse_result(lines, trace):
    """The last line as a result object, or None if it breaks the contract.

    The metrics come back in BENCHMARK.json's order and units. Every declared
    end-to-end metric must have been measured; a per-layer metric of a layer
    the workload does not run reads 0. An undeclared metric or a unit other
    than the declared one is an error.
    """
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    want = declared_metrics(trace)
    got = res["metrics"]
    unknown = sorted(set(got) - set(want))
    wrong_unit = sorted(n for n in set(got) & set(want)
                        if got[n]["unit"] != want[n])
    missing = [] if trace else sorted(set(want) - set(got))
    for what, names in (("not declared in BENCHMARK.json", unknown),
                        ("in another unit than declared", wrong_unit),
                        ("declared but not measured", missing)):
        if names:
            log(f"metrics {what}: {names}")
            return None
    res["metrics"] = {n: got.get(n, {"value": 0.0, "unit": u})
                      for n, u in want.items()}
    return res


def selftest(binary):
    """The benchmark's own checks: tiny runs pass, corrupted rows fail their
    gates, and a fixed delay in the call wrapper moves p50_us by that delay."""
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def run(workload, trace=0, seconds=2, extra=()):
        ns = argparse.Namespace(workload=workload, seed=1, seconds=seconds,
                                trace=trace)
        return run_binary(binary, ns, ["--tiny", *extra])

    for w in ("encode_r18", "search_vit"):
        for trace in (0, 1):
            rc, lines = run(w, trace)
            res = parse_result(lines, trace) if rc == 0 else None
            check(res is not None and res["correct"] and res["failed"] == 0,
                  f"tiny {w} trace={trace} passes")
        rc, lines = run(w, 0, extra=["--corrupt"])
        check(rc != 0 and parse_result(lines, 0) is None,
              f"corrupted {w} output fails its gate")

    delay_us = 1000.0
    p50 = []
    for d in (0.0, delay_us):
        # A low rate keeps sends from overlapping earlier completions, which
        # the single client thread cannot stamp while it busy-waits.
        rc, lines = run("encode_r18", 0, seconds=8,
                        extra=["--rate", "50", "--inject-delay-us", str(d)])
        res = parse_result(lines, 0) if rc == 0 else None
        p50.append(res["metrics"]["p50_us"]["value"] if res else float("nan"))
    moved = p50[1] - p50[0]
    check(0.8 * delay_us <= moved <= 1.25 * delay_us,
          f"injected {delay_us:.0f} us delay moves p50_us by {moved:.0f} us")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    if not args.workload:
        ap.error("--workload is required")
    rc, lines = run_binary(binary, args)
    if rc != 0:
        log(f"{args.workload} exited {rc}")
        return rc
    res = parse_result(lines, args.trace)
    if res is None or not res["correct"]:
        log("result line missing or malformed")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
