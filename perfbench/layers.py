"""Which public functions the traced run wraps, and how the recorded
tallies fold into the per-layer metrics of ``BENCHMARK.json``.

Every ``*_s`` layer metric is *self time per workload operation* (per
explore round, per served request, per reference brick), so that a
faster program, which fits more operations into the same run length,
does not read as a slower layer.  Counts are per operation as well.
"""

from __future__ import annotations

from typing import Any, Dict, List

from common import percentile
from spans import Recorder, fold


def install_batch(rec: Recorder) -> None:
    """Wrap the explore, batch-kernel, signoff, faults, executor and
    cache layers (before the pool forks, so workers inherit them)."""
    from repro.bricks import batch
    from repro.explore import engine, lattice, pareto, scale
    from repro.faults import defects, repair
    from repro.perf import cache, parallel
    from repro.signoff import engine as signoff_engine
    from repro.signoff import rng, sampling, stats

    rec.wrap(lattice.Lattice, "columns", "explore.lattice.columns")
    rec.wrap(batch, "compile_batch", "bricks.batch.compile_batch")
    rec.wrap(batch, "estimate_metric_columns",
             "bricks.batch.estimate_metric_columns")
    rec.wrap(pareto, "pareto_mask", "explore.pareto.pareto_mask")
    rec.wrap(pareto.ParetoAccumulator, "add", "explore.pareto.accumulate")
    rec.wrap(pareto.TopKAccumulator, "add", "explore.pareto.accumulate")
    rec.wrap(scale, "price_shard", "explore.scale.price_shard",
             keep_span=True)
    rec.wrap(engine.SweepEngine, "run", "explore.engine.run",
             keep_span=True)
    rec.wrap(sampling, "pvt_columns", "signoff.sampling.pvt_columns")
    rec.wrap(defects, "inject", "faults.defects.inject")
    rec.wrap(repair, "apply_repair", "faults.repair.apply_repair")
    for name in ("summarize", "proportion_summary", "ci_half_width"):
        rec.wrap(stats, name, "signoff.stats")
    rec.wrap(rng, "resample_indices", "signoff.stats")
    rec.wrap(signoff_engine.SignoffEngine, "run", "signoff.engine.run",
             keep_span=True)
    rec.wrap_iterator(parallel, "parallel_imap",
                      "perf.parallel.imap_wait")
    _install_cache(rec, cache)

    def in_worker() -> None:
        # Task functions travel to the pool by import path, so they are
        # wrapped only inside the worker: the parent still pickles the
        # original, and the worker resolves the name to the wrapper.
        rec.wrap(scale, "_shard_worker", "perf.parallel.task",
                 keep_span=True)
        rec.wrap(signoff_engine, "_chunk_worker", "perf.parallel.task",
                 keep_span=True)

    rec.follow_forks(in_worker)


def install_serve_daemon(rec: Recorder) -> None:
    """Wrap the daemon's framing, dispatch, tracing, telemetry,
    estimator, small-sweep, yield and cache layers."""
    from repro.bricks import compiler, estimator, layout
    from repro.explore import engine
    from repro.faults import yield_analysis
    from repro.obs import telemetry, trace
    from repro.perf import cache
    from repro.serve import handlers, protocol, server  # noqa: F401

    rec.wrap(protocol, "encode_frame", "serve.protocol.encode_frame")
    rec.wrap(protocol, "decode_frame", "serve.protocol.decode_frame")

    def on_dispatch(args, kwargs, dur):
        request = args[1]
        rec.sample("dispatch", [request.id, request.type, dur])

    rec.wrap(handlers, "dispatch", "serve.dispatch", keep_span=True,
             observe=on_dispatch)
    rec.wrap(trace.Tracer, "open", "obs.trace.open")
    rec.wrap(trace.Tracer, "close", "obs.trace.close")
    rec.wrap(trace.Tracer, "graft", "obs.trace.graft")
    rec.wrap(telemetry.Telemetry, "record", "obs.telemetry.record")
    _install_estimator(rec, compiler, estimator, layout)
    rec.wrap(engine.SweepEngine, "_run_cached",
             "explore.engine.run_cached")
    rec.wrap(yield_analysis, "analyze_yield", "faults.yield_analysis")
    _install_cache(rec, cache)


def install_serve_client(rec: Recorder) -> None:
    """Client-side framing of the benchmark's own serve client."""
    from repro.serve import client, protocol  # noqa: F401

    def on_encode(args, kwargs, dur):
        rec.last_request_id = args[0].get("id")

    rec.wrap(protocol, "encode_frame", "serve.protocol.encode_frame",
             observe=on_encode)
    rec.wrap(protocol, "decode_frame", "serve.protocol.decode_frame")


def install_reference(rec: Recorder) -> None:
    """Wrap testbench extraction, the transient simulator, its LU
    factorizations and the scalar estimator."""
    from repro.bricks import compiler, estimator, extract, layout
    from repro.circuit import spice

    rec.wrap(extract, "build_read_testbench",
             "bricks.extract.build_testbench")
    rec.wrap(extract, "build_write_testbench",
             "bricks.extract.build_testbench")
    rec.wrap(extract, "measure_read", "bricks.extract.measure_read",
             keep_span=True)
    rec.wrap(extract, "measure_write", "bricks.extract.measure_write",
             keep_span=True)

    def on_run(args, kwargs, dur):
        sim = args[0]
        t_stop = args[1] if len(args) > 1 else kwargs["t_stop"]
        dt = args[2] if len(args) > 2 else kwargs["dt"]
        rec.sample("spice", [int(round(t_stop / dt)),
                             len(sim.circuit.free_nodes()), dur])

    rec.wrap(spice.TransientSimulator, "run", "circuit.spice.run",
             keep_span=True, observe=on_run)
    rec.wrap(spice, "lu_factor", "circuit.spice.lu_factor")
    _install_estimator(rec, compiler, estimator, layout)


def _install_estimator(rec, compiler, estimator, layout) -> None:
    rec.wrap(compiler, "compile_brick", "bricks.compiler.compile_brick")
    rec.wrap(estimator, "estimate_brick",
             "bricks.estimator.estimate_brick")
    rec.wrap(layout, "generate_layout", "bricks.layout.generate_layout")


def _install_cache(rec, cache) -> None:
    rec.wrap(cache.CharacterizationCache, "put", "perf.cache.put")
    rec.wrap(cache.CharacterizationCache, "get", "perf.cache.get")


# -- folding ---------------------------------------------------------------


def _self_s(tally: Dict[str, List[float]], name: str) -> float:
    return tally.get(name, [0, 0.0, 0.0])[2]


def _calls(tally: Dict[str, List[float]], name: str) -> int:
    return int(tally.get(name, [0, 0.0, 0.0])[0])


def _samples(dumps, name: str) -> List[Any]:
    out: List[Any] = []
    for dump in dumps:
        out.extend(dump["samples"].get(name, []))
    return out


def cache_metrics(stats: Dict[str, float], tally, ops: int
                  ) -> Dict[str, float]:
    """``perf.cache.*`` from call tallies plus the cache's own stats
    delta over the timed phase (``stats``)."""
    lookups = stats["lookups"]
    return {
        "perf.cache.put_s": _self_s(tally, "perf.cache.put") / ops,
        "perf.cache.puts": stats["puts"] / ops,
        "perf.cache.bytes_written": stats["bytes_written"] / ops,
        "perf.cache.get_s": _self_s(tally, "perf.cache.get") / ops,
        "perf.cache.gets": lookups / ops,
        "perf.cache.hit_ratio": (stats["hits"] / lookups
                                 if lookups else 0.0),
    }


def batch_metrics(dumps, ops: int, extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced batch-explore phase."""
    allp = fold(dumps)
    parent = fold(dumps, roles=("main",))
    workers = fold(dumps, roles=("worker",))
    kernel_s = (_self_s(allp, "bricks.batch.compile_batch")
                + _self_s(allp, "bricks.batch.estimate_metric_columns"))
    points = extra["points"]
    # Share of the pool's capacity (jobs x timed phase) spent in tasks.
    busy = workers.get("perf.parallel.task", [0, 0.0, 0.0])[1]
    capacity = extra["jobs"] * extra["phase_s"]
    out = {
        "explore.lattice.columns_s":
            _self_s(allp, "explore.lattice.columns") / ops,
        "bricks.batch.compile_batch_s":
            _self_s(allp, "bricks.batch.compile_batch") / ops,
        "bricks.batch.estimate_metric_columns_s":
            _self_s(allp, "bricks.batch.estimate_metric_columns") / ops,
        "bricks.batch.ns_per_point": kernel_s / points * 1e9,
        "explore.pareto.pareto_mask_s":
            _self_s(allp, "explore.pareto.pareto_mask") / ops,
        "explore.pareto.accumulate_s":
            _self_s(parent, "explore.pareto.accumulate") / ops,
        "explore.engine.shards": extra["shards"] / ops,
        "explore.engine.points": points / ops,
        "signoff.sampling.pvt_columns_s":
            _self_s(allp, "signoff.sampling.pvt_columns") / ops,
        "faults.defects.inject_s":
            _self_s(allp, "faults.defects.inject") / ops,
        "faults.defects.inject_calls":
            _calls(allp, "faults.defects.inject") / ops,
        "faults.repair.apply_repair_s":
            _self_s(allp, "faults.repair.apply_repair") / ops,
        "signoff.stats_s": _self_s(parent, "signoff.stats") / ops,
        "signoff.chunks": extra["chunks"] / ops,
        "perf.parallel.imap_wait_s":
            _self_s(parent, "perf.parallel.imap_wait") / ops,
        "perf.parallel.worker_busy_frac": busy / capacity,
        "perf.parallel.tasks": extra["tasks"] / ops,
        "perf.parallel.retries": extra["retries"] / ops,
        "session.worker_pool_start_s": extra["pool_start_s"],
    }
    out.update(cache_metrics(extra["cache"], allp, ops))
    return out


def serve_metrics(daemon_dumps, client_rec: Recorder,
                  rtts: Dict[str, float], ops: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced serve-mixed phase."""
    daemon = fold(daemon_dumps)
    client = client_rec.tally
    dispatch = _samples(daemon_dumps, "dispatch")
    by_type: Dict[str, List[float]] = {}
    overhead: List[float] = []
    for request_id, rtype, dur in dispatch:
        by_type.setdefault(rtype, []).append(dur)
        if request_id in rtts:
            overhead.append(rtts[request_id] - dur)
    out: Dict[str, float] = {}
    for name in ("encode_frame", "decode_frame"):
        key = f"serve.protocol.{name}"
        out[key + "_s"] = (_self_s(daemon, key)
                           + _self_s(client, key)) / ops
    for rtype in ("characterize", "sweep", "yield", "signoff"):
        durs = by_type.get(rtype)
        out[f"serve.dispatch.{rtype}_p50_ms"] = (
            percentile(durs, 50) * 1e3 if durs else 0.0)
    out["serve.overhead_p50_ms"] = (percentile(overhead, 50) * 1e3
                                    if overhead else 0.0)
    out["obs.trace.open_close_s"] = (
        _self_s(daemon, "obs.trace.open")
        + _self_s(daemon, "obs.trace.close")) / ops
    out["obs.trace.graft_s"] = _self_s(daemon, "obs.trace.graft") / ops
    out["obs.trace.spans_per_request"] = \
        _calls(daemon, "obs.trace.open") / ops
    out["obs.telemetry.record_s"] = \
        _self_s(daemon, "obs.telemetry.record") / ops
    out["serve.rss_growth_mb_per_1k_requests"] = \
        extra["rss_growth_mb"] / ops * 1000.0
    out.update(_estimator_metrics(daemon, ops))
    out["explore.engine.run_cached_s"] = \
        _self_s(daemon, "explore.engine.run_cached") / ops
    out["faults.yield_analysis_s"] = \
        _self_s(daemon, "faults.yield_analysis") / ops
    stats = _samples(daemon_dumps, "cache_stats")
    if stats:
        out.update(cache_metrics(stats[-1], daemon, ops))
    return out


def reference_metrics(dumps, ops: int) -> Dict[str, float]:
    """Per-layer metrics of one traced reference-sim phase."""
    tally = fold(dumps)
    runs = _samples(dumps, "spice")
    steps = sum(r[0] for r in runs)
    out = {
        "bricks.extract.build_testbench_s":
            _self_s(tally, "bricks.extract.build_testbench") / ops,
        "circuit.spice.run_s": _self_s(tally, "circuit.spice.run") / ops,
        "circuit.spice.steps": steps / ops,
        "circuit.spice.step_us":
            (sum(r[2] for r in runs) / steps * 1e6) if steps else 0.0,
        "circuit.spice.free_nodes":
            (sum(r[1] for r in runs) / len(runs)) if runs else 0.0,
        "circuit.spice.lu_factor_calls":
            _calls(tally, "circuit.spice.lu_factor") / ops,
        "circuit.spice.lu_factor_s":
            _self_s(tally, "circuit.spice.lu_factor") / ops,
    }
    out.update(_estimator_metrics(tally, ops))
    return out


def _estimator_metrics(tally, ops: int) -> Dict[str, float]:
    return {
        "bricks.compiler.compile_brick_s":
            _self_s(tally, "bricks.compiler.compile_brick") / ops,
        "bricks.estimator.estimate_brick_s":
            _self_s(tally, "bricks.estimator.estimate_brick") / ops,
        "bricks.layout.generate_layout_s":
            _self_s(tally, "bricks.layout.generate_layout") / ops,
    }


def import_metrics(importtime_stderr: str) -> Dict[str, float]:
    """Fold ``python -X importtime`` output into per-package self time.

    Each module's *self* microseconds are added to the top-level
    package it belongs to, so nested imports are never counted twice.
    """
    per_package: Dict[str, float] = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        package = fields[2].strip().split(".", 1)[0]
        per_package[package] = per_package.get(package, 0.0) + self_us
    return {f"import.{pkg}_s": per_package.get(pkg, 0.0) / 1e6
            for pkg in ("repro", "scipy", "numpy")}
