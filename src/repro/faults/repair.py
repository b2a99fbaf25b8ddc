"""Redundancy allocation: spare rows/columns and optional SEC-DED.

A :class:`RepairPlan` declares the repair resources built into every
brick; :func:`apply_repair` decides whether one sampled
:class:`~repro.faults.defects.FaultyBrick` is salvageable with them.
The allocation rules mirror industrial laser-fuse repair:

* every dead or weak *column* (open via, weak sense amp) burns one
  spare column;
* every bridged *row pair* burns two spare rows;
* stuck bitcells are first absorbed by replaced columns, then — with
  ECC enabled — any row carrying exactly one surviving stuck bit rides
  on single-error correction, and only multi-error rows burn spare
  rows.  Without ECC every row with a stuck bit burns a spare row.

:func:`repaired_spec` is the geometry the redundant brick actually
occupies (data array + spares + check bits), which is what the yield
report charges as area/delay/energy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..bricks.spec import BrickSpec
from ..errors import YieldError
from ..rtl.ecc import secded_parity_bits
from .defects import FaultyBrick


@dataclass(frozen=True)
class RepairPlan:
    """Repair resources provisioned per brick."""

    spare_rows: int = 2
    spare_cols: int = 1
    ecc: bool = False

    def __post_init__(self) -> None:
        if self.spare_rows < 0 or self.spare_cols < 0:
            raise YieldError("spare counts must be >= 0")

    def describe(self) -> str:
        ecc = "+SECDED" if self.ecc else ""
        return f"{self.spare_rows}R/{self.spare_cols}C{ecc}"


@dataclass(frozen=True)
class RepairOutcome:
    """What it took to salvage one brick (or why it could not be)."""

    ok: bool
    rows_used: int = 0
    cols_used: int = 0
    ecc_words: int = 0  # words left relying on SEC-DED correction
    reason: str = ""


#: The outcome of every defect-free brick: it needs no redundancy.
_CLEAN = RepairOutcome(ok=True)


def apply_repair(faulty: FaultyBrick, plan: RepairPlan) -> RepairOutcome:
    """Allocate the plan's redundancy against one brick's defects.

    A perfect brick (most dies at production-like rates) returns
    ``RepairOutcome(ok=True)`` at once, which is what the full
    allocation gives it.
    """
    if not faulty.defects:
        return _CLEAN
    bad_cols = set(faulty.dead_cols) | set(faulty.weak_cols)
    if len(bad_cols) > plan.spare_cols:
        return RepairOutcome(
            ok=False, cols_used=plan.spare_cols,
            reason=f"{len(bad_cols)} bad columns > "
                   f"{plan.spare_cols} spare(s)")
    stuck_by_row: Dict[int, List[int]] = {}
    for (row, bit), _ in sorted(faulty.stuck_cells.items()):
        if bit in bad_cols:
            continue  # the whole column was replaced anyway
        stuck_by_row.setdefault(row, []).append(bit)
    rows_needed = set(faulty.dead_rows)
    ecc_words = 0
    for row, bits in sorted(stuck_by_row.items()):
        if row in rows_needed:
            continue
        if plan.ecc and len(bits) == 1:
            ecc_words += 1  # SEC covers a single stuck bit per word
        else:
            rows_needed.add(row)
    if len(rows_needed) > plan.spare_rows:
        return RepairOutcome(
            ok=False, rows_used=plan.spare_rows,
            cols_used=len(bad_cols), ecc_words=ecc_words,
            reason=f"{len(rows_needed)} bad rows > "
                   f"{plan.spare_rows} spare(s)")
    return RepairOutcome(ok=True, rows_used=len(rows_needed),
                         cols_used=len(bad_cols), ecc_words=ecc_words)


def repaired_spec(spec: BrickSpec, plan: RepairPlan) -> BrickSpec:
    """The physical geometry of a brick carrying the plan's redundancy.

    ECC widens every word by its SEC-DED check bits; spares widen and
    deepen the array.  The result is a normal :class:`BrickSpec`, so
    the standard estimator prices the overhead with no special cases.
    """
    extra_bits = plan.spare_cols + (
        secded_parity_bits(spec.bits) if plan.ecc else 0)
    return spec.expanded(extra_words=plan.spare_rows,
                         extra_bits=extra_bits)
