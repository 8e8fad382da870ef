#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare the spread of
each end-to-end metric with its regression bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads cep-open,durable-rw] [--runs 10]
                                [--first-seed 1] [--seconds N] [--save set1.json]
    python3 perfbench/steady.py --compare set1.json set2.json

For every workload and metric it prints the median, the quartiles and the
inter-quartile range as a share of the median, next to the metric's bound
and a third of it (the target a steady benchmark stays below), the
same figures, without a bound, for the metrics each run reports outside
the bounded set (p99 latencies, throughputs), and the share of the
machine's CPU time the hypervisor stole during the runs. With
--compare it reads two saved sets and prints, per metric, how far the
second median moved from the first against the bound, and whether the
share of failed operations is the same. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    report = json.loads(lines[-2][len("report: "):])
    res["unbounded"] = {m["name"]: m["value"] for m in report.get("unbounded", [])}
    res["host_steal_share"] = report.get("host_steal_share", -1)
    return res


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(b, results):
    bounds = {m["name"]: m for m in b["end_to_end"]}
    for wl, runs in results.items():
        steal = [r.get("host_steal_share", -1) for r in runs]
        print(f"\n{wl}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed share={sorted({r['failed'] / r['attempted'] for r in runs})}, "
              f"host steal share {min(steal):.3f}..{max(steal):.3f} (median {statistics.median(steal):.3f})")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6} {'bound/3':>7}")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- wide"
            print(f"  {name:22} {q2:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {m['bound']:6.2f} {m['bound'] / 3:7.3f}{flag}")
        for name in sorted(runs[0].get("unbounded", {})):
            q1, q2, q3 = quartiles([r["unbounded"][name] for r in runs])
            print(f"  {name:22} {q2:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / q2:8.3f}      -       -")


def compare(b, first, second):
    bounds = {m["name"]: m for m in b["end_to_end"]}
    ok = True
    for wl in first:
        print(f"\n{wl}")
        for name, m in bounds.items():
            a = statistics.median(r["metrics"][name]["value"] for r in first[wl])
            c = statistics.median(r["metrics"][name]["value"] for r in second[wl])
            worse = (c - a) / a if m["better"] == "lower" else (a - c) / a
            flag = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and flag == "ok"
            print(f"  {name:22} {a:12.4f} -> {c:12.4f}  worse by {worse:+.3f} (bound {m['bound']}) {flag}")
        share = lambda runs: sorted({r["failed"] / r["attempted"] for r in runs})
        same = share(first[wl]) == share(second[wl])
        ok = ok and same
        print(f"  failed share {share(first[wl])} vs {share(second[wl])}: {'same' if same else 'DIFFERENT'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    b = spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(b, *sets) else 1)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in b["workloads"]]
    seconds = args.seconds or b["run_seconds"]
    results = {}
    for wl in names:
        results[wl] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(b["command"], wl, seed, seconds)
            results[wl].append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} steal={res['host_steal_share']:.3f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    summarize(b, results)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)


if __name__ == "__main__":
    main()
