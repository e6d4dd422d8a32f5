#!/usr/bin/env python3
"""Runs the benchmark over a set of seeds and reports each end-to-end
metric's spread: min, median, max, and the quartile distance as a share of
the median next to the metric's bound from BENCHMARK.json.

Run from the repository root, one run at a time:

    python3 perfbench/spread.py                          # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads design-sweep --seeds 1-5
    python3 perfbench/spread.py --repeat                 # each seed twice; digests must match
    python3 perfbench/spread.py --sets 2                 # two sets; compare their medians

A metric is "steady" when its quartile spread is below a third of its
bound. With `--sets`, every workload runs once per set, and each later
set's median is compared with the first set's, in the metric's worse
direction, against the bound. The exit code is
1 when a run fails, reports `correct: false`, two runs at one seed print
different digests, or a later set's median is worse than the first's by
more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_ticks():
    """Busy and stolen CPU ticks so far (Linux), to report how much of a
    run's CPU time the hypervisor took away."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    idle = fields[3] + fields[4]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]) - idle, steal


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    before = cpu_ticks()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    after = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    digest = next((l for l in lines if l.startswith("digest ")), "")
    steal = None
    if before and after and after[0] > before[0]:
        steal = (after[1] - before[1]) / (after[0] - before[0])
    return json.loads(lines[-1]), digest, steal


def run_set(bench, workload, seeds, seconds, repeat):
    """One run per seed (two with `repeat`). Returns each metric's values
    and whether every run was correct with matching digests."""
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    ok = True
    for seed in seeds:
        for attempt in range(2 if repeat else 1):
            result, digest, steal = run_once(bench["command"], workload, seed, seconds)
            if attempt == 0:
                first_digest = digest
            elif digest != first_digest:
                ok = False
                print(f"{workload} seed {seed}: digests differ\n  {first_digest}\n  {digest}")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            stolen = "n/a" if steal is None else f"{100 * steal:.1f}%"
            hexes = "/".join(w for w in digest.split() if len(w) == 16)
            print(f"{workload} seed {seed}: digest {hexes} attempted {result['attempted']} steal {stolen} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    return values, ok


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=1,
                        help="run the seeds this many times and compare set medians")
    parser.add_argument("--repeat", action="store_true",
                        help="run every seed twice and compare digests")
    opts = parser.parse_args()

    metrics = bench["end_to_end"]
    workloads = opts.workloads.split(",")
    ok = True
    medians = {w: [] for w in workloads}
    for n in range(opts.sets):
        for workload in workloads:
            values, set_ok = run_set(bench, workload, parse_seeds(opts.seeds), opts.seconds, opts.repeat)
            ok = ok and set_ok
            print(f"\n{workload} set {n + 1}: {len(values[metrics[0]['name']])} runs")
            print(f"  {'metric':<16} {'min':>12} {'median':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
            for m in metrics:
                v = values[m["name"]]
                med = statistics.median(v)
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                spread = (q[2] - q[0]) / med
                bound = m["bound"]
                verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "NOISY")
                print(f"  {m['name']:<16} {min(v):>12.6g} {med:>12.6g} {max(v):>12.6g} "
                      f"{spread:>8.4f} {bound:>6} {verdict}")
            medians[workload].append({m["name"]: statistics.median(values[m["name"]]) for m in metrics})
            print(flush=True)
    for workload in workloads:
        for n, later in enumerate(medians[workload][1:], start=2):
            print(f"{workload} set {n} against set 1 (positive = worse)")
            for m in metrics:
                first, this = medians[workload][0][m["name"]], later[m["name"]]
                worse = (this - first) / first
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= m["bound"] else "WORSE"
                ok = ok and worse <= m["bound"]
                print(f"  {m['name']:<16} {first:>12.6g} {this:>12.6g} {worse:>+8.4f} {m['bound']:>6} {verdict}")
            print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
