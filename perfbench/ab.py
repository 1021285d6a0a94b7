#!/usr/bin/env python3
"""Same-session A/B comparison of two perfbench builds.

    python3 perfbench/ab.py --base BUILD_A --change BUILD_B [--pairs 10]

BUILD_A and BUILD_B are perfbench build directories (each holding the
`perfbench` program), e.g. the parent commit's and the change's
.bench_build/perfbench after `python3 perfbench/run.py ...` in each
checkout. Every workload of BENCHMARK.json runs for its `run_seconds`,
untraced, pair by pair; the side that goes first alternates between
pairs. Pair i runs seed 1 + i on both sides, so the first pair runs the
golden seed.

For each workload and metric it reports both sides' median and
quartiles, the change's win fraction over the pairs (ties count for
neither side), and a verdict following the benchmark's rules:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the base's own quartile spread
  worse       the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the base's own spread exceeds the bound, and no gain
  same        otherwise

It also compares the two sides' result digests seed by seed. A speed-only
change must leave every digest identical; any seed whose digests differ
is listed, and the script then exits 1 after printing the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 175
FIRST_SEED = 1


def load_spec():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    return spec, metrics


def run_side(build_dir, workload, seed, seconds):
    """Runs one untraced workload; returns (metric values, result digest)."""
    binary = os.path.join(build_dir, "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--work-dir", os.path.join(build_dir, "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{binary} {workload} seed {seed}: incorrect "
                           f"({result['failed']} of {result['attempted']} "
                           "tasks failed)")
    digest = None
    for line in lines[:-1]:
        if line.startswith("perfbench-record "):
            digest = json.loads(line[len("perfbench-record "):])["digest"]
    if digest is None:
        raise RuntimeError(f"{binary} printed no perfbench-record line")
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def compare(base, change, better, bound):
    """Summary of one metric over paired samples."""
    b1, bm, b3 = statistics.quantiles(base, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    win_frac = wins / len(base)
    improvement = sign * (cm - bm)
    base_spread = b3 - b1
    if win_frac >= 0.9 and improvement > base_spread:
        verdict = "gain"
    elif bm != 0 and -improvement > bound * abs(bm):
        verdict = "worse"
    elif bm != 0 and base_spread > bound * abs(bm):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"base": {"median": bm, "q1": b1, "q3": b3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "delta_pct": 100.0 * (cm - bm) / bm if bm else 0.0,
            "win_frac": win_frac, "pairs": len(base), "verdict": verdict}


def summary(side):
    return f"{side['median']:.6g} [{side['q1']:.4g}, {side['q3']:.4g}]"


def main(argv):
    spec, metric_spec = load_spec()
    p = argparse.ArgumentParser(prog="perfbench/ab.py", allow_abbrev=False,
                                description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("--pairs must be at least 10")

    seconds = spec["run_seconds"]
    builds = {"base": args.base, "change": args.change}
    digests_differ = False
    for workload in (w["name"] for w in spec["workloads"]):
        samples = {"base": [], "change": []}
        mismatched = []
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            digests = {}
            for side in order:
                values, digests[side] = run_side(builds[side], workload,
                                                 seed, seconds)
                samples[side].append(values)
            if digests["base"] != digests["change"]:
                mismatched.append(seed)
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        print(f"\n{workload}")
        print(f"  {'metric':26s} {'base median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>5s} "
              "verdict")
        for name in samples["base"][0]:
            meta = metric_spec[name]
            r = compare([s[name] for s in samples["base"]],
                        [s[name] for s in samples["change"]],
                        meta["better"], meta["bound"])
            print(f"  {name:26s} {summary(r['base']):>34s} "
                  f"{summary(r['change']):>34s} {r['delta_pct']:+7.2f}% "
                  f"{r['win_frac']:5.2f} {r['verdict']}")
        if mismatched:
            digests_differ = True
            print(f"  digests differ on seeds {mismatched}: the change moves "
                  "simulated results")
        else:
            print(f"  digests identical on all {args.pairs} seeds")
    return 1 if digests_differ else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
