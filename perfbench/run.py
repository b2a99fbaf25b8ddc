"""The LiM flow benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1

Run it from the root of a checkout.  Workloads (why each was chosen is
in ``BENCHMARK.json``):

* ``batch-explore`` -- a fresh ``--jobs 2`` process with a fresh
  on-disk cache repeats rounds of one 512k-point sharded sweep plus a
  6,656-sample, 3-corner signoff of a 16x10 brick of each of the 5
  types (:mod:`worker`);
* ``serve-mixed`` -- a fresh ``repro --jobs 1 serve`` daemon driven by
  one closed-loop client with a seeded request mix
  (:mod:`serve_mix`);
* ``reference-sim`` -- a fresh serial process compares the estimator
  with the switch-level reference on a fixed set of 13 bricks.

Every workload is timed in terms of its *operation*: one explore round,
one served request, one pass over the reference bricks.  ``--trace 0`` prints
the end-to-end metrics of ``BENCHMARK.json``; ``setup_s`` is the median
over several fresh starts, from spawning the interpreter to ready
(imports, Session, warmed pool, or the daemon's ``serving on`` line).
``--trace 1`` runs the workload untraced and then traced, and prints
every per-layer metric (self time per operation of each wrapped layer,
see :mod:`layers`), with the tracing overhead; metrics of layers a
workload does not exercise read 0 and are marked not applicable.

Outputs are checked (goldens, scalar re-pricing, local re-rendering of
served replies); any mismatch makes ``correct`` false, counts in
``failed`` and makes the exit code 1.  The last stdout line is the JSON
result; the lines before it are a readable report and the context
record (machine, versions, source digest, seed, why).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    context_record,
    percentile,
    proc_status_mb,
    quartiles,
)

#: Fresh starts per run whose median is ``setup_s``.
SETUP_RUNS = 5
#: Fresh starts per phase in a traced run (set-up is not its subject).
TRACED_SETUP_RUNS = 1
#: Hard wall-clock budget of one invocation, in seconds.
BUDGET_S = 175.0
#: Length of the seeded serve request stream (far more than a run
#: can send, so the loop always ends on time, never on exhaustion).
SERVE_STREAM = 20000
#: ``python -X importtime`` repetitions folded into ``import.*``.
IMPORT_PROBES = 3


class Budget:
    """One deadline for everything an invocation starts."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


class Bench:
    """Everything one invocation needs to know about its checkout."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.args = args
        with open(os.path.join(root, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            self.spec = json.load(fh)
        self.run_id = (f"{args.workload}-s{args.seed}-t{args.trace}-"
                       f"{os.getpid()}")
        self.work_dir = os.path.join(root, ".perfbench", "work",
                                     self.run_id)
        self.trace_dir = os.path.join(root, ".perfbench", "traces")
        self.budget = Budget(BUDGET_S)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("REPRO_CACHE_DIR", None)  # keep writes in the checkout
        self.env = env
        self._n = 0
        self.procs: List[subprocess.Popen] = []

    def fresh_dir(self, stem: str) -> str:
        self._n += 1
        path = os.path.join(self.work_dir, f"{stem}-{self._n}")
        os.makedirs(path)
        return path

    # -- processes ---------------------------------------------------

    def start(self, cmd: List[str], marker: str):
        """Spawn ``cmd``; return ``(proc, seconds_to_marker, line)``.

        A watchdog kills the process at the invocation deadline, so a
        hung child can never outlive the benchmark.
        """
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True,
                                stdin=subprocess.DEVNULL)
        self.procs.append(proc)
        proc.watchdog = threading.Timer(self.budget.left(), proc.kill)
        proc.watchdog.daemon = True
        proc.watchdog.start()
        while True:
            line = proc.stdout.readline()
            if not line:
                self.finish(proc)
                raise RuntimeError(f"{cmd[1]} exited before "
                                   f"{marker!r} (code {proc.returncode})")
            if line.startswith(marker):
                return proc, time.perf_counter() - t0, line.strip()
            sys.stderr.write(line)

    def finish(self, proc) -> str:
        """Collect the rest of a child's stdout and reap it."""
        try:
            out, _ = proc.communicate(timeout=self.budget.left())
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        finally:
            proc.watchdog.cancel()
        return out or ""

    def reap(self) -> None:
        """Kill and wait for any child an error path left running."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.watchdog.cancel()


# -- phases ----------------------------------------------------------------


def worker_phase(bench: Bench, traced: bool, setups: int
                 ) -> Dict[str, Any]:
    """batch-explore / reference-sim: fresh worker processes."""
    args = bench.args
    samples: List[float] = []
    for i in range(setups):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--cache-dir", bench.fresh_dir("cache")]
        if traced:
            cmd += ["--trace-dir", bench.trace_dir,
                    "--run-id", bench.run_id]
        last = i == setups - 1
        if not last:
            cmd.append("--setup-only")
        proc, seconds, _ = bench.start(cmd, "READY ")
        samples.append(seconds)
        out = bench.finish(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        if not last:
            continue
        lines = [line for line in out.splitlines()
                 if line.startswith("RESULT ")]
        if not lines:
            raise RuntimeError("worker printed no RESULT line")
        result = json.loads(lines[-1][len("RESULT "):])
        result["setups"] = samples
        return result
    raise AssertionError("unreachable")


def serve_phase(bench: Bench, traced: bool, setups: int
                ) -> Dict[str, Any]:
    """serve-mixed: fresh daemons, one closed-loop client."""
    sys.path.insert(0, os.path.join(bench.root, "src"))
    import serve_mix
    from repro.serve.client import ServeClient

    args = bench.args
    samples: List[float] = []
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "daemon.py"),
               "--trace-dir", bench.trace_dir, "--run-id", bench.run_id,
               "--"]
    else:
        cmd = [sys.executable, "-m", "repro"]
    cmd += ["--jobs", "1", "serve", "--port", "0"]
    for i in range(setups):
        proc, seconds, line = bench.start(cmd, "serving on ")
        samples.append(seconds)
        client = ServeClient(port=int(line.rsplit(":", 1)[1]))
        try:
            if i < setups - 1:
                client.request("shutdown")
                continue
            rec = None
            by_id: Dict[str, float] = {}
            on_reply = None
            if traced:
                import layers
                from spans import Recorder
                rec = Recorder(bench.run_id, "client", bench.trace_dir)
                layers.install_serve_client(rec)

                def on_reply(rtt: float) -> None:
                    by_id[rec.last_request_id] = rtt

            client.connect()
            rss0 = proc_status_mb(proc.pid, "VmRSS")
            stream = serve_mix.request_stream(args.seed, SERVE_STREAM)
            result = serve_mix.drive(client, stream, args.seconds,
                                     on_reply=on_reply)
            rss1 = proc_status_mb(proc.pid, "VmRSS")
            peak = proc_status_mb(proc.pid, "VmHWM")
            if rec is not None:
                rec.unwrap()
            client.request("shutdown")
        finally:
            client.close()
            bench.finish(proc)
    serve_mix.verify(result["kept"], result["failures"])
    rtts = result["rtts"]
    return {
        "op_s": rtts,
        "attempted": len(rtts),
        "failures": result["failures"],
        "peak_rss_mb": peak,
        "setups": samples,
        "rss_growth_mb": rss1 - rss0,
        "client_rec": rec,
        "rtt_by_id": by_id,
        "report": {
            "request_p50_ms": percentile(rtts, 50) * 1e3,
            "request_p99_ms": percentile(rtts, 99) * 1e3,
            "requests_beyond_p99": sum(
                1 for r in rtts if r > percentile(rtts, 99)),
            "requests_per_s": len(rtts) / sum(rtts),
            "requests": len(rtts),
            "verified": len(result["kept"]),
            "mix": {t: result["types"].count(t)
                    for t in sorted(set(result["types"]))},
        },
    }


def run_phase(bench: Bench, traced: bool, setups: int):
    if bench.args.workload == "serve-mixed":
        return serve_phase(bench, traced, setups)
    return worker_phase(bench, traced, setups)


# -- metrics ---------------------------------------------------------------


def end_to_end(phase: Dict[str, Any]) -> Dict[str, float]:
    op_s = phase["op_s"]
    return {
        "setup_s": percentile(phase["setups"], 50),
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def per_layer(bench: Bench, phase: Dict[str, Any]) -> Dict[str, float]:
    import layers
    from spans import load_dumps

    workload = bench.args.workload
    dumps = load_dumps(bench.trace_dir, bench.run_id)
    ops = len(phase["op_s"])
    if workload == "batch-explore":
        return layers.batch_metrics(dumps, ops, phase["layer_extra"])
    if workload == "serve-mixed":
        return layers.serve_metrics(
            [d for d in dumps if d["role"] == "daemon"],
            phase["client_rec"], phase["rtt_by_id"], ops,
            {"rss_growth_mb": phase["rss_growth_mb"]})
    out = layers.reference_metrics(dumps, phase["bricks"])
    out.update({f"ref.{name[4:]}": value
                for name, value in phase["errors"].items()})
    return out


def import_probe(bench: Bench) -> Dict[str, float]:
    """Median per-package import self time of ``import repro.cli``."""
    import layers
    runs = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import repro.cli"], cwd=bench.root, env=bench.env,
            capture_output=True, text=True, timeout=bench.budget.left(),
            check=True)
        runs.append(layers.import_metrics(done.stderr))
    return {name: percentile([r[name] for r in runs], 50)
            for name in runs[0]}


# -- reporting -------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(bench: Bench, phases, metrics, units, na) -> None:
    args = bench.args
    print(f"== {args.workload}  seed {args.seed}  "
          f"{args.seconds:g} s  trace {args.trace}")
    for label, phase in phases:
        e2e = end_to_end(phase)
        q = quartiles(phase["setups"])
        print(f"-- {label} phase: {len(phase['op_s'])} ops, setup "
              f"median {_fmt(q[1])} s of {len(phase['setups'])} "
              f"starts (q1 {_fmt(q[0])}, q3 {_fmt(q[2])})")
        oq = quartiles(phase["op_s"])
        print(f"   ops_per_s {_fmt(e2e['ops_per_s'])}  op p50 "
              f"{_fmt(oq[1] * 1e3)} ms (q1 {_fmt(oq[0] * 1e3)}, q3 "
              f"{_fmt(oq[2] * 1e3)}, n={len(phase['op_s'])})  "
              f"peak_rss_mb {_fmt(phase['peak_rss_mb'])}")
        failed = len(phase["failures"])
        print(f"   failed_frac {_fmt(failed / phase['attempted'])} "
              f"({failed} of {phase['attempted']} checked)")
        for key, value in phase["report"].items():
            text = (_fmt(value) if isinstance(value, float)
                    else json.dumps(value))
            print(f"   {key} {text}")
        for failure in phase["failures"][:20]:
            print(f"   FAILED: {failure}")
    print("-- metrics (last line)")
    for name, value in metrics.items():
        mark = "  (n/a: not exercised by this workload)" \
            if name in na else ""
        print(f"   {name:<44s} {_fmt(value):>14s} {units[name]}{mark}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="LiM flow benchmark (see module docstring)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    for needed in ("BENCHMARK.json", os.path.join("src", "repro",
                                                  "__init__.py")):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found under {root}; run from "
                  f"the root of a checkout", file=sys.stderr)
            return 2
    bench = Bench(root, args)
    whys = {w["name"]: w["why"] for w in bench.spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(whys)}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            plain = run_phase(bench, False, TRACED_SETUP_RUNS)
            traced = run_phase(bench, True, TRACED_SETUP_RUNS)
            phases = [("untraced", plain), ("traced", traced)]
            computed = per_layer(bench, traced)
            computed.update(import_probe(bench))
            computed["trace.overhead_frac"] = 1.0 - (
                end_to_end(traced)["ops_per_s"]
                / end_to_end(plain)["ops_per_s"])
            wanted = bench.spec["per_layer"]
        else:
            phases = [("untraced", run_phase(bench, False, SETUP_RUNS))]
            computed = end_to_end(phases[0][1])
            wanted = bench.spec["end_to_end"]
    finally:
        bench.reap()
        shutil.rmtree(bench.work_dir, ignore_errors=True)

    unknown = sorted(set(computed) - {m["name"] for m in wanted})
    if unknown:
        print(f"warning: computed metrics missing from BENCHMARK.json: "
              f"{unknown}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {m["name"]: float(computed.get(m["name"], 0.0))
               for m in wanted}
    na = {name for name in metrics if name not in computed}
    print_report(bench, phases, metrics, units, na)
    context = context_record(root, args.workload, args.seed,
                             whys[args.workload], bool(args.trace))
    if args.trace:
        context["trace_files"] = os.path.relpath(
            os.path.join(bench.trace_dir, bench.run_id + "-*"), root)
    print("context " + json.dumps(context, sort_keys=True))
    attempted = sum(p["attempted"] for _, p in phases)
    failed = sum(len(p["failures"]) for _, p in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
