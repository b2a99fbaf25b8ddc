"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 --out runs.jsonl \\
        [--workloads batch-explore ...] [--seed-base 1] [--trace 0] \\
        [--record perfbench/steadiness.json]

Run ``i`` of every workload uses seed ``seed-base + i``; workloads are
interleaved run by run.  For each end-to-end metric it prints the
interquartile distance over the median (``statistics.quantiles`` with
``n=4``) next to the metric's bound in ``BENCHMARK.json``; a spread
above a third of the bound is flagged.  ``--out`` keeps every run as a
result set for ``compare.py``; ``--record`` writes the spread table
that the bounds rest on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import quartiles, spread  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=300)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    context = next((json.loads(line[len("context "):])
                    for line in lines if line.startswith("context ")),
                   None)
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "wall_s": wall,
            "result": json.loads(lines[-1]), "context": context}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", default=None)
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs = []
    out = open(args.out, "a", encoding="utf-8") if args.out else None
    try:
        for i in range(args.runs):
            for workload in workloads:
                run = one_run(workload, args.seed_base + i,
                              spec["run_seconds"], args.trace)
                runs.append(run)
                print(f"{workload} seed {run['seed']}: exit "
                      f"{run['exit']} in {run['wall_s']:.1f} s, correct "
                      f"{run['result']['correct']}", file=sys.stderr)
                if out is not None:
                    out.write(json.dumps(run) + "\n")
                    out.flush()
    finally:
        if out is not None:
            out.close()

    table = {}
    steady = True
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        table[workload] = {
            "runs": len(mine),
            "seeds": [r["seed"] for r in mine],
            "max_wall_s": max(r["wall_s"] for r in mine),
            "all_correct": all(r["result"]["correct"] for r in mine),
            "metrics": {}}
        for metric in metrics:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"]
                      for r in mine]
            entry = {"quartiles": quartiles(values), "values": values}
            if "bound" in metric:
                entry["spread"] = spread(values)
                entry["bound"] = metric["bound"]
                entry["below_third"] = (entry["spread"]
                                        < metric["bound"] / 3)
                if name != "setup_s":
                    steady &= entry["below_third"]
            table[workload]["metrics"][name] = entry
            flag = ""
            if "spread" in entry:
                flag = (f"spread {entry['spread']:.4f} bound "
                        f"{entry['bound']}"
                        + ("" if entry["below_third"]
                           else "  ABOVE A THIRD OF THE BOUND"))
            print(f"{workload:<14s} {name:<40s} median "
                  f"{entry['quartiles'][1]:<12.6g} {flag}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
