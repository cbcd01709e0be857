#!/usr/bin/env python3
"""Summarises and compares saved perfbench/run.py outputs.

    python3 perfbench/compare.py RUNS...                  # spread of each metric
    python3 perfbench/compare.py --base RUNS... --head RUNS...

A RUNS file holds the stdout of one or more run.py invocations (append with
>>).  The first form prints, per workload and metric, the median over the
runs and the spread: the distance between the first and third quartiles as a
share of the median.  Each end-to-end spread is checked against a third of
the metric's bound in BENCHMARK.json.  The second form compares the medians
of two sets of runs against the bounds.  Both refuse to mix hosts with
different core counts.  Exit status 1 means a check failed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{(workload, trace): [result, ...]} and the set of core counts seen."""
    groups, cores = defaultdict(list), set()
    for path in paths:
        meta = None
        for line in Path(path).read_text().splitlines():
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "meta" in obj:
                meta = obj["meta"]
            elif meta is not None:
                cores.add(meta["cores"])
                groups[(meta["workload"], meta["trace"])].append(obj)
                meta = None
    return groups, cores


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="*")
    ap.add_argument("--base", nargs="+")
    ap.add_argument("--head", nargs="+")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sides = [args.runs] if args.runs else [args.base or [], args.head or []]
    loaded = [load(paths) for paths in sides]
    cores = set().union(*(c for _, c in loaded))
    if len(cores) != 1:
        print(f"compare: refusing to mix core counts {sorted(cores)}", file=sys.stderr)
        return 1

    ok = True
    if args.runs:
        for (workload, trace), results in sorted(loaded[0][0].items()):
            failed = sum(r["failed"] for r in results)
            print(f"{workload} trace={trace}: {len(results)} runs, {failed} failed runs inside")
            ok &= failed == 0
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                if len(values) < 2:
                    print(f"  {name:26s} {values[0]:.6g}")
                    continue
                med, rel = spread(values)
                line = f"  {name:26s} median {med:.6g}  spread {rel:.4f}"
                if not trace and name in bounds:
                    limit = bounds[name]["bound"] / 3
                    steady = rel <= limit
                    ok &= steady
                    line += f"  (limit {limit:.4f}{'' if steady else '  NOT STEADY'})"
                print(line)
        return 0 if ok else 1

    base, head = loaded[0][0], loaded[1][0]
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        if trace:
            continue
        print(f"{workload}:")
        for name, m in bounds.items():
            b = statistics.median(r["metrics"][name]["value"] for r in base[key])
            h = statistics.median(r["metrics"][name]["value"] for r in head[key])
            worse = (h - b) / b if m["better"] == "lower" else (b - h) / b
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            ok &= verdict == "ok"
            print(f"  {name:26s} base {b:.6g}  head {h:.6g}  worse by {worse:+.4f}"
                  f" (bound {m['bound']})  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
