"""Regenerate ``goldens.json`` (run from the checkout root, about 1 min).

    PYTHONPATH=src python3 perfbench/make_goldens.py

* ``batch_explore.frontier_sha256``: digest of ``frontier_json()`` of
  the benchmark's sharded sweep (its lattice does not depend on the
  seed, so every run checks it);
* ``batch_explore.signoff_render_sha256``: digest of the signoff
  ``render()`` texts of one round for the default seed;
* ``reference``: estimator and switch-level reference values of every
  brick the reference-sim workload simulates.

Regenerating is only right when the program's outputs are meant to
change; the benchmark treats any difference as a failure.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402
from common import DEFAULT_SEED, GOLDENS, sha256_text  # noqa: E402


def main() -> int:
    from repro.perf.cache import CharacterizationCache
    from repro.session import Session
    from repro.tech import cmos65

    tech = cmos65()
    with Session(tech, jobs=worker.JOBS,
                 cache=CharacterizationCache()) as session:
        result = worker.run_sweep(session)
        reports = worker.run_signoffs(
            session, worker.signoff_seeds(DEFAULT_SEED))
    reference = {worker.brick_key(brick): worker.simulate_brick(brick,
                                                                 tech)
                 for brick in (worker.ANCHOR,) + worker.REF_BRICKS}
    goldens = {
        "batch_explore": {
            "frontier_sha256": sha256_text(result.frontier_json()),
            "signoff_render_sha256": worker.signoff_digest(reports),
        },
        "reference": reference,
    }
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
