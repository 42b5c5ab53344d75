"""Repeat the benchmark over seeds and summarize its run-to-run spread.

    python3 perfbench/sweep.py --rounds 10 --out perfbench/.work/sweep.json

Each round runs every workload of BENCHMARK.json once, for its
`run_seconds`, with a fresh seed, rotating the order of the workloads from
round to round, so slow drift of a shared machine spreads over all
workloads instead of landing on one.  For each workload
and metric it reports the median and the quartiles of the per-run values
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  Every run's environment
line (Python, commit, nproc, CPU, load average before and after) is kept
in the summary, so a noisy set can be told apart.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.splitlines()
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")),
               None)
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "run_s": time.monotonic() - t0,
            "env": env, "result": result,
            "problems": [ln for ln in lines if ln.startswith("FAILED")]}


def summarize(runs, bounds):
    table = {}
    for run in runs:
        if run["result"] is None:
            continue
        for name, metric in run["result"]["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(
                (name, metric["unit"]), []).append(metric["value"])
    out = {}
    for workload, metrics in table.items():
        for (name, unit), values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            out.setdefault(workload, {})[name] = {
                "unit": unit, "n": len(values), "median": median,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bounds.get(name), "values": values}
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="summary JSON path")
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for r in range(args.rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        for workload in order:
            run = one_run(workload, args.seed_base + r, seconds, args.trace)
            runs.append(run)
            status = "ok" if run["result"] and run["result"]["correct"] \
                else f"FAILED {run['problems'] or run['exit']}"
            print(f"round {r + 1} {workload} seed {run['seed']}:"
                  f" {run['run_s']:.1f} s {status}", flush=True)
    summary = summarize(runs, bounds)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(
        {"rounds": args.rounds, "seconds": seconds, "trace": args.trace,
         "summary": summary, "runs": runs}, indent=1))
    for workload, metrics in summary.items():
        counts = {n: s["values"] for n, s in metrics.items()
                  if s["unit"] == "count"}
        differ = {n: v for n, v in counts.items() if len(set(v)) > 1}
        if counts:
            print(f"{workload:20s} {len(counts) - len(differ)} of"
                  f" {len(counts)} counts repeat exactly"
                  + "".join(f"; {n} differs: {v}" for n, v in differ.items()))
        for name, s in metrics.items():
            if s["unit"] == "count" or (args.trace and not name.startswith(
                    ("trace.", "proc."))):
                continue
            flag = "" if s["bound"] is None else (
                "  ok" if s["spread"] <= s["bound"] / 3 else
                "  WITHIN BOUND" if s["spread"] <= s["bound"] else "  OVER BOUND")
            print(f"{workload:20s} {name:14s} median {s['median']:.4g}"
                  f" q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread"
                  f" {s['spread']:.3f} bound {s['bound']}{flag}")
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
