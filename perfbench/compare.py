"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSONL that ``steadiness.py --out`` writes: one line
per run with its workload, seed, trace flag and the run's last-line
result.  Runs of the two sets are paired in file order, so make them
alternately (parent, change, parent, ...) with the same seeds.

Per workload and metric it prints each side's median and quartiles, the
change's win share over the pairs, and a verdict read with the bounds
in ``BENCHMARK.json``:

* ``unresolved`` -- the parent's own spread (interquartile distance over
  median) exceeds the bound, and the sides do not separate completely;
* ``gain`` -- the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile distance;
* ``regression`` -- the change's median is worse by more than the bound;
* ``within bound`` -- anything else.

Per-layer metrics have no bound; they are listed with medians and win
share only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import quartiles  # noqa: E402

WIN_SHARE = 0.9


def load(path: str) -> Dict[tuple, List[float]]:
    """``(workload, trace, metric) -> values`` in file order."""
    values: Dict[tuple, List[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, metric in run["result"]["metrics"].items():
                key = (run["workload"], run["trace"], name)
                values.setdefault(key, []).append(metric["value"])
    return values


def verdict(parent: List[float], change: List[float], better: str,
            bound) -> Dict[str, object]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q = quartiles(parent)
    c_q = quartiles(change)
    out = {"parent": p_q, "change": c_q,
           "wins": f"{wins}/{len(pairs)}"}
    if bound is None:
        out["verdict"] = "-"
        return out
    iqr = p_q[2] - p_q[0]
    gain = sign * (c_q[1] - p_q[1]) / abs(p_q[1]) if p_q[1] else 0.0
    out["delta"] = gain
    separated_better = min(sign * c for c in change) > max(
        sign * p for p in parent)
    separated_worse = max(sign * c for c in change) < min(
        sign * p for p in parent)
    if p_q[1] and iqr / abs(p_q[1]) > bound and not (
            separated_better or separated_worse):
        out["verdict"] = "unresolved"
    elif (pairs and wins >= WIN_SHARE * len(pairs)
          and abs(c_q[1] - p_q[1]) > iqr and gain > 0):
        out["verdict"] = "gain"
    elif gain < -bound:
        out["verdict"] = "regression"
    else:
        out["verdict"] = "within bound"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default="BENCHMARK.json",
                        help="benchmark spec with the bounds "
                             "(default: ./BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(args.bench, encoding="utf-8") as fh:
        spec = json.load(fh)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = load(args.parent)
    change = load(args.change)
    regressions = 0
    print(f"{'workload':<14s} {'metric':<40s} {'parent q1/med/q3':>32s}"
          f" {'change q1/med/q3':>32s} {'wins':>6s} {'delta':>8s}  "
          f"verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _, name = key
        info = meta.get(name, {"better": "higher", "unit": "?"})
        row = verdict(parent[key], change[key], info["better"],
                      info.get("bound"))
        regressions += row["verdict"] == "regression"

        def fmt(q):
            return "/".join(f"{v:.4g}" for v in q)

        delta = (f"{100 * row['delta']:+.1f}%" if "delta" in row
                 else "")
        print(f"{workload:<14s} {name:<40s} {fmt(row['parent']):>32s} "
              f"{fmt(row['change']):>32s} {row['wins']:>6s} "
              f"{delta:>8s}  {row['verdict']}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]:<14s} {key[2]:<40s} only in one set")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
