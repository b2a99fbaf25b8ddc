"""Seed-derived manufacturing-defect sampling over brick geometry.

Four mechanisms, each scoped to the physical structure it breaks:

========================  ======================  =====================
mechanism                 site population         effect
========================  ======================  =====================
``stuck_at_0/1``          every bitcell           one cell reads 0/1
``wordline_bridge``       adjacent row pairs      both rows dead
``weak_sense``            one sense amp per col   column delay derate
``open_via``              one via stack per col   column dead
========================  ======================  =====================

Defect counts are Poisson in (rate x sites) — the standard spot-defect
yield model — and positions are drawn without replacement, all from a
caller-supplied :class:`random.Random` so a
:meth:`Session.rng <repro.session.Session.rng>` stream makes the whole
population a pure function of the master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import random

from ..bricks.spec import BrickSpec
from ..errors import FaultError
from ..tech.technology import Technology

STUCK_AT_0 = "stuck_at_0"
STUCK_AT_1 = "stuck_at_1"
WORDLINE_BRIDGE = "wordline_bridge"
WEAK_SENSE = "weak_sense"
OPEN_VIA = "open_via"

DEFECT_KINDS: Tuple[str, ...] = (
    STUCK_AT_0, STUCK_AT_1, WORDLINE_BRIDGE, WEAK_SENSE, OPEN_VIA)


@dataclass(frozen=True)
class Defect:
    """One sampled defect.  ``row``/``bit`` are -1 when not applicable:
    a bridge has no column, a sense/via defect has no row."""

    kind: str
    row: int = -1
    bit: int = -1

    def __post_init__(self) -> None:
        if self.kind not in DEFECT_KINDS:
            raise FaultError(
                f"unknown defect kind {self.kind!r}; known: "
                f"{DEFECT_KINDS}")


#: Largest Poisson mean the product method draws faithfully.  The
#: running product of uniforms must stay above ``exp(-lam)`` in normal
#: doubles; past ~745 that threshold underflows to zero and the count
#: silently saturates (near 730), so a larger mean is an error instead.
MAX_POISSON_MEAN = 700.0


def _poisson(rng: random.Random, lam: float, mechanism: str) -> int:
    """Knuth's product-of-uniforms Poisson sampler (lam is small)."""
    if lam <= 0.0:
        return 0
    if lam > MAX_POISSON_MEAN:
        raise FaultError(
            f"{mechanism}: expected {lam:.0f} defects per brick exceeds "
            f"the sampler's limit of {MAX_POISSON_MEAN:.0f}; lower the "
            f"rate (a brick this defective never yields anyway)")
    threshold = math.exp(-lam)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _positions(rng: random.Random, lam: float, sites: int,
               mechanism: str) -> List[int]:
    """Sorted distinct sites of a Poisson(``lam``) defect count.

    A zero count skips ``rng.sample``, which would draw nothing for it
    anyway, so the stream position is the same either way.
    """
    count = _poisson(rng, lam, mechanism)
    if not count:
        return []
    return sorted(rng.sample(range(sites), min(count, sites)))


@dataclass(frozen=True)
class DefectModel:
    """Per-site defect rates (probability per site per die).

    Defaults are deliberately pessimistic — two to three orders worse
    than production 65 nm — so populations of a few hundred bricks
    exercise every mechanism in tests and demos.
    """

    p_stuck_at: float = 2e-4        # per bitcell (0 and 1 equally)
    p_wordline_bridge: float = 2e-4  # per adjacent-row pair
    p_weak_sense: float = 1e-3      # per column sense amp
    p_open_via: float = 5e-4        # per column via stack
    weak_sense_derate: float = 1.6  # delay multiplier of a weak column

    def __post_init__(self) -> None:
        for name in ("p_stuck_at", "p_wordline_bridge",
                     "p_weak_sense", "p_open_via"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise FaultError(
                    f"{name} must be in [0, 1), got {rate}")
        if self.weak_sense_derate < 1.0:
            raise FaultError("weak_sense_derate must be >= 1")

    def sample(self, spec: BrickSpec,
               rng: random.Random) -> Tuple[Defect, ...]:
        """Draw one brick's defects.  Deterministic in ``rng`` state.

        Most dies draw four zero counts and build nothing.  A brick of
        one word has no row pairs: its bridge mean is 0, which draws no
        randomness at all.
        """
        defects = []
        n_cells = spec.words * spec.bits
        for _ in range(min(_poisson(rng, self.p_stuck_at * n_cells,
                                    "stuck_at"), n_cells)):
            cell = rng.randrange(n_cells)
            kind = STUCK_AT_1 if rng.random() < 0.5 else STUCK_AT_0
            defects.append(Defect(kind, row=cell // spec.bits,
                                  bit=cell % spec.bits))
        n_pairs = spec.words - 1
        for pair in _positions(rng, self.p_wordline_bridge * n_pairs,
                               n_pairs, WORDLINE_BRIDGE):
            defects.append(Defect(WORDLINE_BRIDGE, row=pair))
        for bit in _positions(rng, self.p_weak_sense * spec.bits,
                              spec.bits, WEAK_SENSE):
            defects.append(Defect(WEAK_SENSE, bit=bit))
        for bit in _positions(rng, self.p_open_via * spec.bits,
                              spec.bits, OPEN_VIA):
            defects.append(Defect(OPEN_VIA, bit=bit))
        return tuple(defects)


@dataclass(frozen=True)
class FaultyBrick:
    """A brick spec plus its sampled defects — the *perturbed view* the
    repair and yield layers reason about."""

    spec: BrickSpec
    defects: Tuple[Defect, ...]

    @property
    def is_perfect(self) -> bool:
        return not self.defects

    @property
    def stuck_cells(self) -> Dict[Tuple[int, int], int]:
        """``(row, bit) -> stuck value`` for bitcell defects."""
        return {(d.row, d.bit): (1 if d.kind == STUCK_AT_1 else 0)
                for d in self.defects
                if d.kind in (STUCK_AT_0, STUCK_AT_1)}

    @property
    def dead_rows(self) -> FrozenSet[int]:
        """Rows unusable outright: each bridge kills both its rows."""
        rows = set()
        for d in self.defects:
            if d.kind == WORDLINE_BRIDGE:
                rows.add(d.row)
                rows.add(d.row + 1)
        return frozenset(rows)

    @property
    def dead_cols(self) -> FrozenSet[int]:
        return frozenset(d.bit for d in self.defects
                         if d.kind == OPEN_VIA)

    @property
    def weak_cols(self) -> FrozenSet[int]:
        return frozenset(d.bit for d in self.defects
                         if d.kind == WEAK_SENSE)

    def delay_derate(self, model: DefectModel) -> float:
        """Read-path slowdown if the brick is used *unrepaired*."""
        return model.weak_sense_derate if self.weak_cols else 1.0

    def perturbed_tech(self, tech: Technology,
                       model: DefectModel) -> Technology:
        """Technology view of the unrepaired brick: weak sense amps
        show up as a device-resistance derate on the read path."""
        derate = self.delay_derate(model)
        if derate == 1.0:
            return tech
        return tech.scaled(r_scale=derate, name_suffix="@weak-sense")


def inject(spec: BrickSpec, model: DefectModel,
           rng: random.Random) -> FaultyBrick:
    """Sample one brick instance's defects into a :class:`FaultyBrick`."""
    return FaultyBrick(spec=spec, defects=model.sample(spec, rng))
