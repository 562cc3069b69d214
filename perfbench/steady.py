#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady its metrics are.

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads service-mix
    python3 perfbench/steady.py --sets 2             # two sets, compared

Each run uses its own --seed. For every end-to-end metric of BENCHMARK.json
this prints the median, the first and third quartiles
(statistics.quantiles(n=4)) and the spread, (q3 - q1) / median, next to the
metric's bound. A spread above the bound marks the metric UNSTEADY
(setup_s is exempt: its bound only limits the median). With --sets 2 it
also prints how far the second set's median is worse than the first's, and
whether the share of failed operations agrees. --log-dir keeps every
run's full output (round times, sample counts). Run from the repository
root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, log_dir):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if log_dir:
        path = os.path.join(log_dir, f"{workload}-seed{seed}.txt")
        with open(path, "w") as f:
            f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def run_set(bench, workload, seeds, log_dir):
    results = []
    for seed in seeds:
        r = run_once(bench, workload, seed, log_dir)
        print(f"  {workload} seed {seed}: attempted {r['attempted']} "
              f"failed {r['failed']}", file=sys.stderr, flush=True)
        results.append(r)
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--log-dir", help="keep each run's full output here")
    args = ap.parse_args()
    if args.log_dir:
        os.makedirs(args.log_dir, exist_ok=True)

    bench = load_benchmark()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            base = args.seed_base + 1000 * s
            sets.append(run_set(bench, workload,
                                range(base, base + args.runs), args.log_dir))
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{bench['run_seconds']} s each")
        print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}" +
              ("  2nd/1st median" if args.sets == 2 else ""))
        for m in bench["end_to_end"]:
            line = ""
            for i, results in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, q2, q3, spread = summarize(values)
                steady = spread <= m["bound"] or m["name"] == "setup_s"
                ok &= steady
                if i == 0:
                    first = q2
                    line = (f"  {m['name']:22} {q2:14.6g} {q1:14.6g} "
                            f"{q3:14.6g} {spread:8.3f} {m['bound']:6.2f}"
                            f"{'' if steady else '  UNSTEADY'}")
                else:
                    worse = (q2 / first - 1 if m["better"] == "lower"
                             else first / q2 - 1)
                    within = worse <= m["bound"]
                    ok &= within
                    line += (f"  {q2 / first:6.3f} (spread {spread:.3f})"
                             f"{'' if within else '  WORSE'}")
            print(line)
        shares = [{r["failed"] / r["attempted"] for r in results}
                  for results in sets]
        same = all(len(s) == 1 for s in shares) and len(set.union(*shares)) == 1
        ok &= same
        print(f"  failed share: {sorted(set.union(*shares))}"
              f"{'' if same else '  DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
