#!/usr/bin/env python3
"""A/B runner for perf claims: two revisions, alternating perfbench pairs.

    python3 tools/ab_perfbench.py --base REV --change REV --scratch DIR
        [--workload NAME ...] [--pairs 10] [--seed 1000]

Exports each revision with `git archive` into DIR/base and DIR/change (DIR
must not hold them yet), then runs `perfbench/run.py` in each copy for
--pairs alternating pairs per workload. Pair i runs both sides at seed
--seed + i, base first when i is even and change first when i is odd, so
neither side always runs on the warmer host. Every timed run lasts
BENCHMARK.json's run_seconds. Each side builds its own benchmark in its
copy (one 1 s untimed run) before the first timed pair.

For every end-to-end metric BENCHMARK.json declares, it prints the median
[q1, q3] of each side, the change's median relative to the base's, and
the pairs the change won (ties count for neither side), reading which way
is better from the metric's `better` field. A metric equal in every pair
(the exact quality metrics) says so. Failed operations and failed runs
are reported per side; with fewer than two complete pairs the metric
table is left out.
A revision may be any commit-ish; `git stash create` names an
uncommitted working tree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def log(msg):
    print(f"ab_perfbench: {msg}", file=sys.stderr, flush=True)


def export(rev, dest):
    """Writes the tree of `rev` into the new directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", REPO, "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def run(tree, workload, seed, seconds):
    """One perfbench run in `tree`; the result object, or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def spread(values):
    """'median [q1, q3]' of values, and the median."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]", med


def report(workload, results, metrics):
    """Prints one workload's table; results[side] is a list per pair."""
    pairs = [(b, c) for b, c in zip(results["base"], results["change"])
             if b is not None and c is not None]
    print(f"\n{workload}: {len(pairs)} complete pairs of "
          f"{len(results['base'])}")
    for side in SIDES:
        runs = [r for r in results[side] if r is not None]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  {side}: {len(runs)} runs ok, {failed} of {attempted} "
              f"operations failed")
    if len(pairs) < 2:
        print("  fewer than 2 complete pairs: no metric table")
        return
    print(f"  {'metric':<18} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'delta':>8}  won")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if base == change:
            print(f"  {name:<18} equal in every pair ({base[0]:.4g} at the "
                  f"first seed)")
            continue
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        base_text, bm = spread(base)
        change_text, cm = spread(change)
        delta = (cm - bm) / bm * 100.0 if bm else float("nan")
        tie_text = f" ({ties} ties)" if ties else ""
        print(f"  {name:<18} {base_text:<32} {change_text:<32} "
              f"{delta:+7.1f}%  {won}/{len(pairs)}{tie_text}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare to")
    ap.add_argument("--change", required=True, help="revision under test")
    ap.add_argument("--scratch", required=True,
                    help="directory for the two exported trees")
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000,
                    help="pair i runs at seed + i")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    trees = {side: os.path.join(os.path.abspath(args.scratch), side)
             for side in SIDES}
    for side, rev in zip(SIDES, (args.base, args.change)):
        export(rev, trees[side])
        log(f"{side} = {rev} in {trees[side]}; building")
        if run(trees[side], workloads[0], args.seed, 1) is None:
            log(f"{side}: build or first run failed")
            return 1

    for workload in workloads:
        results = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                res = run(trees[side], workload, args.seed + i,
                          spec["run_seconds"])
                if res is None:
                    log(f"{workload} pair {i} {side}: run failed")
                results[side].append(res)
            log(f"{workload}: pair {i + 1}/{args.pairs} done")
        report(workload, results, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
