"""Compare two sweeps written by ``sweep.py --out``, metric by metric.

Run from the root of a checkout:

    python3 perfbench/compare.py perfbench/results/set_a.json perfbench/results/set_b.json

For every workload and metric in both files it prints a markdown table
row: the median and quartiles of each sweep, each spread
(Q3 - Q1) / median, and the change of the second median from the first.
A gated metric is flagged when a spread other than that of ``setup_s``
exceeds its bound in BENCHMARK.json, or when the second median is worse
than the first by more than the bound; the exit code is then 1.
"""

from __future__ import annotations

import json
import sys


def load_workloads(path: str) -> dict:
    with open(path) as f:
        return json.load(f)["workloads"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        gated = {m["name"]: m for m in json.load(f)["end_to_end"]}
    first, second = (load_workloads(path) for path in argv)

    ok = True
    print("| Workload | Metric | First median [Q1, Q3] | Spread | Second median [Q1, Q3] "
          "| Spread | Second vs first |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload]["summary"], second[workload]["summary"]
        for name in a:
            if name not in b:
                continue
            sa, sb = a[name], b[name]
            change = sb["median"] / sa["median"] - 1.0 if sa["median"] else 0.0
            flag = ""
            metric = gated.get(name)
            if metric is not None:
                worse = change if metric["better"] == "lower" else -change
                wide = name != "setup_s" and max(sa["spread"], sb["spread"]) > metric["bound"]
                if worse > metric["bound"] or wide:
                    flag = " **out of bound**"
                    ok = False
            print(f"| `{workload}` | `{name}` | {sa['median']:.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}] "
                  f"| {sa['spread']:.1%} | {sb['median']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}] "
                  f"| {sb['spread']:.1%} | {change:+.1%}{flag} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
