"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/sweep.py --workloads toy_hier,field_mapillary --seeds 0-9
    python3 perfbench/sweep.py --workloads toy_flat --seeds 0,0,0,1,1,1 --out s.json

For every workload and every metric, in the JSON result line or on a
``metric`` line, it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median.
A gated metric is flagged when its spread reaches a third of its bound in
BENCHMARK.json. Runs are untraced and made one after another, never side
by side. ``--out`` writes the sweep's command line and every run (its
``env``/``input`` lines, set-up samples, metrics and stderr) with the
summary; the files under ``perfbench/results/`` were written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else {}
    values = {m: v["value"] for m, v in result.get("metrics", {}).items()}
    env = []
    for line in lines:
        if line.startswith(("env ", "input ", "computed ", "setup_s samples")):
            env.append(line)
        if line.startswith("metric "):
            _, name, value, _unit = line.split(" ", 3)
            values.setdefault(name, float(value))
    return {"seed": seed, "returncode": done.returncode, "correct": result.get("correct"),
            "attempted": result.get("attempted"), "failed": result.get("failed"),
            "metrics": values, "env": env, "stderr": done.stderr[-2000:]}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--out", help="write every run and the summary to this JSON file")
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"command": " ".join(["python3", "perfbench/sweep.py", *argv]),
              "seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, bench["run_seconds"])
            print(f"{workload} seed {seed}: rc {run['returncode']} attempted {run['attempted']} "
                  f"failed {run['failed']}", flush=True)
            ok &= run["returncode"] == 0
            runs.append(run)
        names = sorted({m for r in runs for m in r["metrics"]})
        summary = {m: summarize([r["metrics"][m] for r in runs if m in r["metrics"]])
                   for m in names}
        for m, s in summary.items():
            bound = bounds.get(m)
            flag = ""
            if bound is not None and s["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                ok = False
            print(f"  {m:<24} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.2%}" + (f"  bound {bound:.0%}" if bound else "") + flag)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
