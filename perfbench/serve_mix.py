"""The serve-mixed workload: one client drives a fresh daemon as a
closed loop (the next request goes out only after the reply is in).

The request stream is a pure function of the workload seed.  It is
built in blocks of 100 with a fixed mix, so every seed sends the same
share of each request type and the seed varies parameters and order:

* 44 ``characterize`` over 5 types x 4 words x 5 bits x 4 stacks, so
  repeats hit the daemon's warm cache;
* 35 small ``sweep`` requests (16 points each: the cached grid path);
* 12 ``yield`` analyses, population 200 or 500, over a fixed set of
  brick sizes;
* 8 ``signoff`` runs of 1,024 samples over a fixed set of brick sizes;
* 1 ``telemetry`` or ``stats`` probe.

A seeded ~5 % of the requests is kept and, after the timed phase,
recomputed locally through the same report functions the CLI uses;
every reply must be ``ok`` and every kept reply must match.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, List, Tuple

BLOCK = (("characterize", 44), ("sweep", 35), ("yield", 12),
         ("signoff", 8), ("probe", 1))
TYPES = ("6T", "8T", "CAM", "EDRAM", "DP")
CHAR_WORDS = (16, 32, 64, 128)
CHAR_BITS = (8, 10, 16, 32, 64)
CHAR_STACKS = (1, 2, 4, 8)
#: Sizes of the 44 characterize requests of every block: each words x
#: bits pair twice, at two stacks, plus one pair per stack.
CHAR_SIZES = tuple(
    (words, bits, CHAR_STACKS[(i + k) % 4])
    for i, (words, bits) in enumerate(
        (w, b) for w in CHAR_WORDS for b in CHAR_BITS)
    for k in (0, 2)) + tuple(zip(CHAR_WORDS, CHAR_BITS, CHAR_STACKS))
SWEEP_TOTAL_WORDS = (128, 256, 512, 1024)
SWEEP_BITS = tuple(range(4, 65, 4))
SWEEP_BRICK_WORDS = (16, 32, 64)
#: Brick sizes of the 12 yield and 8 signoff requests of every block.
#: With the sizes above, every block prices the same sizes, so its cost
#: hardly depends on the seed (types, order, sweep axes and Monte Carlo
#: seeds do).
YIELD_SIZES = tuple((words, bits, population)
                    for words, bits in ((16, 8), (32, 16), (64, 32))
                    for population in (200, 500) for _ in range(2))
SIGNOFF_SIZES = ((16, 8), (16, 16), (16, 32), (32, 8), (32, 16),
                 (32, 32), (64, 16), (64, 32))
SIGNOFF_SAMPLES = 1024
VERIFY_SHARE = 0.05


def request_stream(seed: int, n: int) -> List[Tuple[str, Dict, bool]]:
    """``n`` seeded ``(type, params, verify)`` requests."""
    rng = random.Random(f"serve-mixed:{seed}")
    out: List[Tuple[str, Dict, bool]] = []
    block_index = 0
    while len(out) < n:
        sizes = {"characterize": list(CHAR_SIZES),
                 "yield": list(YIELD_SIZES),
                 "signoff": list(SIGNOFF_SIZES)}
        kinds = [kind for kind, count in BLOCK for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            out.append(_request(rng, kind, block_index, sizes)
                       + (rng.random() < VERIFY_SHARE,))
        block_index += 1
    return out[:n]


def _request(rng: random.Random, kind: str, block: int,
             sizes: Dict[str, list]) -> Tuple[str, Dict[str, Any]]:
    if kind == "characterize":
        pool = sizes["characterize"]
        words, bits, stack = pool.pop(rng.randrange(len(pool)))
        return kind, {"type": rng.choice(TYPES), "words": words,
                      "bits": bits, "stack": stack}
    if kind == "sweep":
        # 2 x 4 x 2 = 16 lattice points: the cached grid path.
        return kind, {
            "type": rng.choice(TYPES),
            "total_words": sorted(rng.sample(SWEEP_TOTAL_WORDS, 2)),
            "bits": sorted(rng.sample(SWEEP_BITS, 4)),
            "brick_words": sorted(rng.sample(SWEEP_BRICK_WORDS, 2))}
    if kind == "yield":
        pool = sizes["yield"]
        words, bits, population = pool.pop(rng.randrange(len(pool)))
        return kind, {"type": rng.choice(TYPES), "words": words,
                      "bits": bits, "population": population,
                      "seed": rng.randrange(1, 2 ** 31)}
    if kind == "signoff":
        pool = sizes["signoff"]
        words, bits = pool.pop(rng.randrange(len(pool)))
        return kind, {"type": rng.choice(TYPES), "words": words,
                      "bits": bits, "samples": SIGNOFF_SAMPLES,
                      "seed": rng.randrange(1, 2 ** 31)}
    return ("telemetry" if block % 2 == 0 else "stats"), {}


def drive(client, stream, seconds: float, on_reply=None
          ) -> Dict[str, Any]:
    """Closed loop over ``stream`` for ``seconds``; returns round-trip
    times, kept replies and failures."""
    rtts: List[float] = []
    types: List[str] = []
    kept: List[Tuple[str, Dict, Dict]] = []
    failures: List[str] = []
    deadline = time.perf_counter() + seconds
    for rtype, params, verify in stream:
        if time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            result = client.request(rtype, params)
        except Exception as exc:  # noqa: BLE001 - count, keep driving
            failures.append(f"{rtype} {params}: {exc}")
            result = None
        rtt = time.perf_counter() - start
        rtts.append(rtt)
        types.append(rtype)
        if on_reply is not None:
            on_reply(rtt)
        if verify and result is not None:
            kept.append((rtype, params, result))
    else:
        failures.append("request stream exhausted before the deadline")
    return {"rtts": rtts, "types": types, "kept": kept,
            "failures": failures}


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True)


def verify(kept, failures: List[str]) -> None:
    """Recompute every kept request locally and compare."""
    from repro.faults import RepairPlan, analyze_yield
    from repro.bricks.spec import BrickSpec
    from repro.perf.cache import CharacterizationCache
    from repro.serve.handlers import (
        brick_report_data,
        signoff_report_data,
        sweep_report_data,
    )
    from repro.session import Session
    from repro.tech import cmos65

    session = Session(cmos65(), cache=CharacterizationCache())
    try:
        for rtype, params, result in kept:
            if rtype == "characterize":
                want = brick_report_data(session, params["type"],
                                         params["words"],
                                         params["bits"],
                                         params["stack"])
                got = result["data"]
            elif rtype == "sweep":
                scale = session.sweep_engine(
                    total_words_options=params["total_words"],
                    bits_options=params["bits"],
                    brick_words_options=params["brick_words"],
                    memory_type=params["type"]).run()
                data = sweep_report_data(scale.to_sweep_result())
                want = {"n_points": data["n_points"],
                        "n_failures": len(data["failures"]),
                        "pareto": data["pareto"], "mode": scale.mode,
                        "lattice_points": scale.n_points,
                        "frontier_size": len(scale.frontier)}
                got = {key: result[key] for key in want}
            elif rtype == "yield":
                report = analyze_yield(
                    BrickSpec(params["type"], params["words"],
                              params["bits"]),
                    n_bricks=params["population"],
                    plan=RepairPlan(), session=session,
                    seed=params["seed"])
                want = {"render": report.render(),
                        "raw_yield": report.raw_yield}
                got = result["data"]
            elif rtype == "signoff":
                report = session.derive(
                    seed=params["seed"]).signoff_engine(
                    memory_type=params["type"],
                    words=params["words"], bits=params["bits"],
                    n_samples=params["samples"]).run()
                want = signoff_report_data(report)
                got = result["data"]
            else:
                continue
            if _canonical(got) != _canonical(
                    json.loads(_canonical(want))):
                failures.append(f"{rtype} {params}: served reply "
                                f"differs from the local rendering")
    finally:
        session.close()
