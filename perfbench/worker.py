"""The working process of the batch-explore and reference-sim workloads.

Started fresh by ``run.py`` for every set-up sample.  It imports the
program, builds its :class:`~repro.session.Session` (and, for
batch-explore, starts and warms the worker pool), then prints one
``READY`` line: the parent times set-up from spawn to that line.  With
``--setup-only`` it stops there; otherwise it runs the timed phase and
prints one ``RESULT`` line of JSON.

Run it through ``run.py``; alone it needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    DEFAULT_SEED,
    close_rel,
    load_goldens,
    percentile,
    self_peak_rss_mb,
    sha256_text,
)

# -- batch-explore -----------------------------------------------------------

#: Lattice of the sharded sweep: 5 brick widths x 800 total_words x 128
#: bit widths = 512,000 points (64 shards of 8192).  Every brick width
#: divides every total_words value, so no point is filtered out.
SWEEP_BRICK_WORDS = (4, 8, 16, 32, 64)
SWEEP_TOTAL_WORDS = tuple(64 * k for k in range(1, 801))
SWEEP_BITS = tuple(range(2, 130))
SHARD_SIZE = 8192
JOBS = 2
#: total_words values of the warm-up sweep (33k points, 4 shards).
WARM_TOTAL_WORDS = 52

#: Every round signs off one Table-1-sized brick of every type over the
#: 3 default corners, each under a master seed the workload seed picks.
SIGNOFF_TYPES = ("6T", "8T", "DP", "EDRAM", "CAM")
SIGNOFF_WORDS = 16
SIGNOFF_BITS = 10
SIGNOFF_SAMPLES = 6656  # per brick: 26 chunks, 33,280 samples a round
SIGNOFF_CHUNK = 256

#: Frontier points re-priced through the scalar estimator must match
#: the batch kernel to this relative tolerance.
REPRICE_REL = 1e-9

#: Reference values must equal the golden table to this relative
#: tolerance (the simulator is deterministic; this only absorbs the
#: last-digit noise of a different LAPACK build).
REFERENCE_REL = 1e-9


def signoff_seeds(seed: int):
    """``(memory_type, master seed)`` of each signoff of a round."""
    rng = random.Random(f"batch-explore:{seed}")
    return [(memory_type, rng.randrange(1, 2 ** 31))
            for memory_type in SIGNOFF_TYPES]


def run_sweep(session):
    return session.sweep_engine(
        mode="sharded", shard_size=SHARD_SIZE,
        total_words_options=SWEEP_TOTAL_WORDS, bits_options=SWEEP_BITS,
        brick_words_options=SWEEP_BRICK_WORDS).run(resume=False)


def run_signoffs(session, seeds):
    return [session.derive(seed=master).signoff_engine(
        memory_type=memory_type, words=SIGNOFF_WORDS, bits=SIGNOFF_BITS,
        n_samples=SIGNOFF_SAMPLES,
        chunk_size=SIGNOFF_CHUNK).run(resume=False)
        for memory_type, master in seeds]


def signoff_digest(reports) -> str:
    return sha256_text("\n".join(report.render() for report in reports))


def _noop() -> None:
    """Pool warm-up task."""


def batch_setup(args, rec):
    # Everything the rounds import is imported before the pool forks,
    # so workers inherit it instead of importing on their first task.
    import repro.explore.engine  # noqa: F401
    import repro.signoff.engine  # noqa: F401
    from repro.perf.cache import CharacterizationCache
    from repro.session import Session
    from repro.tech import cmos65

    if rec is not None:
        import layers
        layers.install_batch(rec)
    session = Session(cmos65(), jobs=JOBS,
                      cache=CharacterizationCache(
                          cache_dir=args.cache_dir))
    start = time.perf_counter()
    executor = session.worker_pool().executor()
    for future in [executor.submit(_noop) for _ in range(4 * JOBS)]:
        future.result()
    pool_start_s = time.perf_counter() - start
    # A small sweep and signoff warm the workers: their first shards
    # run about twice as slow as later ones.
    session.sweep_engine(
        mode="sharded", shard_size=SHARD_SIZE,
        total_words_options=SWEEP_TOTAL_WORDS[:WARM_TOTAL_WORDS],
        bits_options=SWEEP_BITS,
        brick_words_options=SWEEP_BRICK_WORDS).run(resume=False)
    session.signoff_engine(n_samples=4 * SIGNOFF_CHUNK,
                           chunk_size=SIGNOFF_CHUNK).run(resume=False)
    if rec is not None:
        rec.new_generation()
    return session, {"pool_start_s": pool_start_s}


def batch_run(args, session, setup, rec):
    from repro.bricks.compiler import compile_brick
    from repro.bricks.estimator import estimate_brick
    from repro.bricks.spec import BrickSpec
    from repro.perf.parallel import executor_stats

    goldens = load_goldens()["batch_explore"]
    seeds = signoff_seeds(args.seed)
    cache_stats = session.cache.stats
    stats0 = executor_stats().as_dict()
    cache0 = cache_stats.as_dict()

    rounds = []
    sweep_s = signoff_s = 0.0
    points = shards = chunks = 0
    failures = []
    first_digest = None
    last = None

    def one_round():
        nonlocal sweep_s, signoff_s, points, shards, chunks, last
        t0 = time.perf_counter()
        result = run_sweep(session)
        t1 = time.perf_counter()
        reports = run_signoffs(session, seeds)
        t2 = time.perf_counter()
        sweep_s += t1 - t0
        signoff_s += t2 - t1
        points += result.n_priced
        shards += result.shards_total
        chunks += sum(report.chunks_used for report in reports)
        last = result
        return result, reports

    deadline = time.perf_counter() + args.seconds
    phase_start = time.perf_counter()
    while not rounds or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        if rec is not None:
            result, reports = rec.timed("bench.round", one_round,
                                        round=len(rounds))
        else:
            result, reports = one_round()
        rounds.append(time.perf_counter() - t0)
        digest = sha256_text(result.frontier_json())
        if digest != goldens["frontier_sha256"]:
            failures.append(f"round {len(rounds)}: frontier digest "
                            f"{digest[:12]} != golden")
        rendered = signoff_digest(reports)
        first_digest = first_digest or rendered
        if rendered != first_digest:
            failures.append(f"round {len(rounds)}: signoff renders "
                            f"differ from round 1")
    phase_s = time.perf_counter() - phase_start
    if (args.seed == DEFAULT_SEED
            and first_digest != goldens["signoff_render_sha256"]):
        failures.append("signoff render digest != golden for the "
                        "default seed")

    # Outside the timed phase: re-price every frontier and top-K point
    # through the scalar estimator.
    tech = session.tech
    survivors = last.frontier + [p for _, p in last.top]
    for p in survivors:
        compiled = compile_brick(BrickSpec(p.memory_type, p.brick_words,
                                           p.bits), tech,
                                 target_stack=p.stack)
        perf = estimate_brick(compiled, tech, stack=p.stack)
        for name in ("read_delay", "read_energy", "write_energy",
                     "area_um2", "leakage_w"):
            if not close_rel(getattr(perf, name), getattr(p, name),
                             REPRICE_REL):
                failures.append(f"frontier point {p.index}: {name} "
                                f"scalar {getattr(perf, name)!r} != "
                                f"batch {getattr(p, name)!r}")
                break

    stats1 = executor_stats().as_dict()
    cache1 = cache_stats.as_dict()
    hits = (cache1["memory_hits"] + cache1["disk_hits"]
            - cache0["memory_hits"] - cache0["disk_hits"])
    return {
        "op_s": rounds,
        "attempted": 2 * len(rounds) + len(survivors),
        "failures": failures,
        "peak_rss_mb": self_peak_rss_mb(),
        "report": {
            "sweep_points_per_s": points / sweep_s,
            "signoff_samples_per_s": (len(rounds) * len(seeds)
                                      * SIGNOFF_SAMPLES / signoff_s),
            "rounds": len(rounds),
            "points_per_round": points // len(rounds),
            "samples_per_round": len(seeds) * SIGNOFF_SAMPLES,
            "signoff_seeds": dict(seeds),
            "frontier_points": len(last.frontier),
            "repriced_points": len(survivors),
        },
        "layer_extra": {
            "points": points, "shards": shards, "chunks": chunks,
            "jobs": JOBS,
            "phase_s": phase_s,
            "tasks": stats1["tasks"] - stats0["tasks"],
            "retries": stats1["retried_tasks"] - stats0["retried_tasks"],
            "pool_start_s": setup["pool_start_s"],
            "cache": {
                "puts": cache1["puts"] - cache0["puts"],
                "bytes_written": (cache1["bytes_written"]
                                  - cache0["bytes_written"]),
                "lookups": hits + cache1["misses"] - cache0["misses"],
                "hits": hits,
            },
        },
    }


# -- reference-sim -----------------------------------------------------------

#: The Table-1 calibration anchor, always simulated first.
ANCHOR = ("8T", 16, 10, 1)
#: Then each words {8, 16} x bits {8, 10} x stack {1, 2} size once,
#: across all five brick types and including the two known outliers
#: (EDRAM 16x8 delay, 6T 8x8 write energy), plus one more brick of each
#: type but DP.  A fixed set makes every run do the same work; the seed
#: orders it.
REF_BRICKS = (("6T", 8, 8, 1), ("CAM", 8, 8, 2), ("DP", 8, 10, 1),
              ("8T", 8, 10, 2), ("EDRAM", 16, 8, 1), ("6T", 16, 8, 2),
              ("CAM", 16, 10, 1), ("DP", 16, 10, 2),
              ("8T", 16, 8, 2), ("EDRAM", 8, 10, 2), ("CAM", 16, 8, 1),
              ("6T", 16, 10, 1))


def reference_bricks(seed: int):
    """The anchor, then :data:`REF_BRICKS` in seeded order."""
    rng = random.Random(f"reference-sim:{seed}")
    draws = list(REF_BRICKS)
    rng.shuffle(draws)
    return [ANCHOR] + draws


def brick_key(brick) -> str:
    memory_type, words, bits, stack = brick
    return f"{memory_type} {words}x{bits}@{stack}x"


def simulate_brick(brick, tech):
    """Estimator vs switch-level reference for one brick."""
    from repro.bricks import (
        compile_brick,
        estimate_brick,
        measure_read,
        measure_write,
    )
    from repro.bricks.spec import BrickSpec

    memory_type, words, bits, stack = brick
    compiled = compile_brick(BrickSpec(memory_type, words, bits), tech,
                             target_stack=stack)
    est = estimate_brick(compiled, tech, stack=stack)
    ref_delay, ref_read = measure_read(compiled, tech, stack=stack)
    ref_write = measure_write(compiled, tech, stack=stack)
    return {"tool_delay": est.read_delay, "ref_delay": ref_delay,
            "tool_read": est.read_energy, "ref_read": ref_read,
            "tool_write": est.write_energy, "ref_write": ref_write}


def reference_setup(args, rec):
    from repro.bricks import extract  # noqa: F401  (pulls in scipy)
    from repro.tech import cmos65

    if rec is not None:
        import layers
        layers.install_reference(rec)
    return cmos65(), {}


def reference_run(args, tech, setup, rec):
    """One operation is one pass over :func:`reference_bricks`; whole
    passes only, so every run prices the same bricks (a second pass
    runs only if it still fits into the run length)."""
    golden = load_goldens()["reference"]
    bricks = reference_bricks(args.seed)
    op_s = []
    brick_s = []
    rows = []
    failures = []
    phase_start = time.perf_counter()
    while not op_s or (time.perf_counter() - phase_start) * (
            len(op_s) + 1) / len(op_s) <= args.seconds:
        pass_start = time.perf_counter()
        for brick in bricks:
            t0 = time.perf_counter()
            if rec is not None:
                row = rec.timed("bench.brick", lambda: simulate_brick(
                    brick, tech), brick=brick_key(brick))
            else:
                row = simulate_brick(brick, tech)
            brick_s.append(time.perf_counter() - t0)
            rows.append((brick, row))
            want = golden.get(brick_key(brick))
            if want is None:
                failures.append(f"{brick_key(brick)}: no golden row")
                continue
            failures += [f"{brick_key(brick)}: {name} {value!r} != "
                         f"golden {want[name]!r}"
                         for name, value in row.items()
                         if not close_rel(value, want[name],
                                          REFERENCE_REL)]
        op_s.append(time.perf_counter() - pass_start)

    def max_err(tool, ref):
        return max(abs(100.0 * (r[tool] / r[ref] - 1.0))
                   for _, r in rows)

    errors = {
        "ref_delay_err_max_pct": max_err("tool_delay", "ref_delay"),
        "ref_read_energy_err_max_pct": max_err("tool_read", "ref_read"),
        "ref_write_energy_err_max_pct": max_err("tool_write",
                                                "ref_write"),
    }
    per_brick = {
        brick_key(b): {k: round(100.0 * (r[f"tool_{k}"] / r[f"ref_{k}"]
                                         - 1.0), 2)
                       for k in ("delay", "read", "write")}
        for b, r in rows}
    return {
        "op_s": op_s,
        "attempted": len(rows),
        "failures": failures,
        "peak_rss_mb": self_peak_rss_mb(),
        "report": dict(errors, ref_bricks_per_s=len(brick_s) / sum(brick_s),
                       bricks=len(brick_s), passes=len(op_s),
                       brick_p50_ms=percentile(brick_s, 50) * 1e3,
                       err_pct_by_brick=per_brick),
        "errors": errors,
        "bricks": len(brick_s),
    }


WORKLOADS = {
    "batch-explore": (batch_setup, batch_run),
    "reference-sim": (reference_setup, reference_run),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--run-id", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    setup_fn, run_fn = WORKLOADS[args.workload]

    rec = None
    if args.trace_dir:
        from spans import Recorder
        rec = Recorder(args.run_id, "main", args.trace_dir)
    state, setup = setup_fn(args, rec)
    print("READY " + json.dumps(setup), flush=True)
    try:
        if args.setup_only:
            return 0
        result = run_fn(args, state, setup, rec)
    finally:
        if hasattr(state, "close"):
            state.close()  # joins the pool: workers dump their spans
    if rec is not None:
        rec.unwrap()
        rec.dump()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
