#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload is16-cold --runs 10 --seconds 20

For every metric it prints the median and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. With --out it
also writes the per-run values, the summary and the environment (the
benchmark's env line plus the CPU model and commit, when available) as
JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]

    runs, env = [], None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["python3", "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        for line in p.stderr.splitlines():
            if line.startswith("env "):
                env = json.loads(line[4:])
            if line.startswith("check failed"):
                print(line, file=sys.stderr)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if p.returncode != 0 or not res["correct"]:
            print(f"seed {seed}: exit {p.returncode}, correct={res['correct']}", file=sys.stderr)
        runs.append({"seed": seed, "exit": p.returncode, **res})
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              file=sys.stderr)

    summary = {}
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        share = (q3 - q1) / abs(med) if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.4f} {str(bounds.get(name)):>6}")

    if args.out:
        env = dict(env or {}, cpu=cpu_model(), commit=commit())
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "seconds": seconds,
                       "environment": env, "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
