"""Restrictive-patterning (pattern-construct) model.

Section 2.1 of the paper argues that sub-20 nm lithography forces layouts
onto a small set of pre-characterized *pattern constructs*, and Fig. 1 shows
SEM evidence for the three cases that motivate the whole methodology:

a. bitcells next to bitcells print fine;
b. conventional free-form standard cells next to bitcells create
   lithographic hotspots;
c. pattern-construct (regular) standard cells next to bitcells print fine.

We cannot reproduce SEM images, so we reproduce the *claim*: a layout is a
grid of tiles, each tile carries a pattern-construct tag, and a compatibility
relation between tags decides whether an adjacency is printable.  The three
scenarios of Fig. 1 become three grids whose hotspot counts reproduce the
ordering (a) = (c) = 0 hotspots, (b) > 0 hotspots.

The same checker runs on every generated brick layout, which is how the
layout generator guarantees "logic and embedded memory cells that are
tightly integrated without requiring extra spacing".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, \
    Tuple

import numpy as np

from ..errors import PatternError

# Canonical construct tags.
BITCELL = "BC"          #: SRAM/CAM bitcell pattern.
LOGIC_REGULAR = "LR"    #: pattern-construct (gridded) logic.
LOGIC_CONVENTIONAL = "LC"  #: conventional free-form logic (2D jogs).
PERIPHERY = "PH"        #: pitch-matched leaf-cell periphery pattern.
EMPTY = "--"            #: empty tile (fill); compatible with everything.

_KNOWN_TAGS = (BITCELL, LOGIC_REGULAR, LOGIC_CONVENTIONAL, PERIPHERY, EMPTY)
#: Tag -> its ``int8`` code in :attr:`PatternGrid.codes`.
_CODES = {tag: code for code, tag in enumerate(_KNOWN_TAGS)}


def _code(tag: str) -> int:
    """The code of a known tag; :class:`PatternError` for anything else."""
    try:
        return _CODES[tag]
    except (KeyError, TypeError):
        raise PatternError(f"unknown pattern tag {tag!r}") from None


@dataclass(frozen=True)
class Hotspot:
    """A lithographic hotspot between two adjacent tiles."""

    row: int
    col: int
    neighbor_row: int
    neighbor_col: int
    tag_a: str
    tag_b: str


@dataclass
class PatternRuleSet:
    """Adjacency compatibility between pattern constructs.

    ``incompatible`` holds unordered tag pairs that create a hotspot when
    the two tags touch.  The default rule set encodes Fig. 1: conventional
    logic is incompatible with bitcells and with periphery patterns, while
    regular logic and periphery are compatible with everything.
    """

    incompatible: Set[FrozenSet[str]] = field(default_factory=set)

    @classmethod
    def default(cls) -> "PatternRuleSet":
        """The sub-20 nm rule set motivating the paper (Fig. 1)."""
        rules = cls()
        rules.forbid(LOGIC_CONVENTIONAL, BITCELL)
        rules.forbid(LOGIC_CONVENTIONAL, PERIPHERY)
        return rules

    def forbid(self, tag_a: str, tag_b: str) -> None:
        """Mark the unordered pair (tag_a, tag_b) as hotspot-forming."""
        for tag in (tag_a, tag_b):
            _code(tag)
        self.incompatible.add(frozenset((tag_a, tag_b)))

    def compatible(self, tag_a: str, tag_b: str) -> bool:
        """True when two tags may touch without a hotspot."""
        if EMPTY in (tag_a, tag_b):
            return True
        return frozenset((tag_a, tag_b)) not in self.incompatible

    def matrix(self) -> np.ndarray:
        """Symmetric boolean hotspot matrix over tag codes.

        ``matrix()[a, b]`` is true when codes ``a`` and ``b`` may not
        touch.  Built from ``incompatible`` on every call, so pairs added
        to the set directly count too; a one-tag pair such as
        ``forbid(BC, BC)`` sets the diagonal, and ``EMPTY`` never forms a
        hotspot.
        """
        bad = np.zeros((len(_KNOWN_TAGS), len(_KNOWN_TAGS)), dtype=bool)
        for pair in self.incompatible:
            if EMPTY in pair or any(tag not in _CODES for tag in pair):
                continue
            codes = [_CODES[tag] for tag in pair]
            bad[codes[0], codes[-1]] = bad[codes[-1], codes[0]] = True
        return bad


class PatternGrid:
    """A rectangular grid of pattern-construct tags.

    The grid abstracts a layout at tile granularity: a bitcell is one tile,
    a leaf cell or standard cell occupies one or more tiles.  Rows index
    from the bottom of the layout.  Tags are held as ``int8`` codes in
    :attr:`codes` (a ``rows x cols`` array, index ``_KNOWN_TAGS``), so
    :meth:`fill` is one slice assignment and :func:`find_hotspots` one
    matrix lookup per adjacency direction.
    """

    def __init__(self, rows: int, cols: int,
                 tags: Optional[Sequence[Sequence[str]]] = None) -> None:
        if rows <= 0 or cols <= 0:
            raise PatternError("pattern grid dimensions must be positive")
        self.rows = rows
        self.cols = cols
        if tags is None or len(tags) == 0:
            self.codes = np.full((rows, cols), _CODES[EMPTY], dtype=np.int8)
            return
        if len(tags) != rows or any(len(row) != cols for row in tags):
            raise PatternError("tag matrix does not match grid dimensions")
        self.codes = np.array([[_code(tag) for tag in row] for row in tags],
                              dtype=np.int8)

    @property
    def tags(self) -> List[List[str]]:
        """The tag matrix, row by row (a copy: edit through :meth:`set`)."""
        return [[_KNOWN_TAGS[code] for code in row]
                for row in self.codes.tolist()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternGrid):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and bool(np.array_equal(self.codes, other.codes))

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        return (f"PatternGrid(rows={self.rows!r}, cols={self.cols!r}, "
                f"tags={self.tags!r})")

    def set(self, row: int, col: int, tag: str) -> None:
        """Tag a single tile."""
        code = _code(tag)
        self._check_bounds(row, col)
        self.codes[row, col] = code

    def fill(self, row0: int, col0: int, rows: int, cols: int,
             tag: str) -> None:
        """Tag a rectangular region of tiles.

        The tag and both corners are checked before anything is written,
        so a rejected fill leaves the grid unchanged.  An empty region
        (``rows`` or ``cols`` <= 0) is a no-op.
        """
        code = _code(tag)
        if rows <= 0 or cols <= 0:
            return
        self._check_bounds(row0, col0)
        self._check_bounds(row0 + rows - 1, col0 + cols - 1)
        self.codes[row0:row0 + rows, col0:col0 + cols] = code

    def get(self, row: int, col: int) -> str:
        self._check_bounds(row, col)
        return _KNOWN_TAGS[self.codes[row, col]]

    def _check_bounds(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise PatternError(
                f"tile ({row}, {col}) outside {self.rows}x{self.cols} grid")

    def adjacencies(self) -> Iterable[Tuple[int, int, int, int]]:
        """Yield each horizontal and vertical tile adjacency once."""
        for r in range(self.rows):
            for c in range(self.cols):
                if c + 1 < self.cols:
                    yield r, c, r, c + 1
                if r + 1 < self.rows:
                    yield r, c, r + 1, c

    def counts(self) -> Dict[str, int]:
        """Tile counts per tag present, in row-major order of first use."""
        codes, first, counts = np.unique(
            self.codes, return_index=True, return_counts=True)
        order = np.argsort(first)
        return {_KNOWN_TAGS[code]: count for code, count in
                zip(codes[order].tolist(), counts[order].tolist())}


def find_hotspots(grid: PatternGrid,
                  rules: PatternRuleSet = None) -> List[Hotspot]:
    """Return every hotspot-forming adjacency in ``grid``.

    Hotspots come in row-major tile order and, within a tile, the
    horizontal pair before the vertical one (the order of
    :meth:`PatternGrid.adjacencies`).
    """
    if rules is None:
        rules = PatternRuleSet.default()
    codes = grid.codes
    bad = rules.matrix()
    horizontal = bad[codes[:, :-1], codes[:, 1:]]
    vertical = bad[codes[:-1, :], codes[1:, :]]
    if not (horizontal.any() or vertical.any()):
        return []
    # Axis 2 is the direction: 0 = right neighbour, 1 = upper neighbour,
    # so np.nonzero walks tiles row-major, horizontal first.
    found = np.zeros((grid.rows, grid.cols, 2), dtype=bool)
    found[:, :-1, 0] = horizontal
    found[:-1, :, 1] = vertical
    rows, cols, vert = np.nonzero(found)
    rows1, cols1 = rows + vert, cols + 1 - vert
    return [Hotspot(r, c, r1, c1, _KNOWN_TAGS[a], _KNOWN_TAGS[b])
            for r, c, r1, c1, a, b in zip(
                rows.tolist(), cols.tolist(), rows1.tolist(), cols1.tolist(),
                codes[rows, cols].tolist(), codes[rows1, cols1].tolist())]


def printability_score(grid: PatternGrid,
                       rules: PatternRuleSet = None) -> float:
    """Fraction of adjacencies that print cleanly, in [0, 1].

    1.0 reproduces Fig. 1a/1c ("no impact on printability"); values below
    1.0 reproduce Fig. 1b.
    """
    adjacency_count = (grid.rows * (grid.cols - 1)
                       + (grid.rows - 1) * grid.cols)
    if adjacency_count == 0:
        return 1.0
    hotspot_count = len(find_hotspots(grid, rules))
    return 1.0 - hotspot_count / adjacency_count


# --- Fig. 1 scenario builders ---------------------------------------------

def scenario_bitcell_array(rows: int = 8, cols: int = 8) -> PatternGrid:
    """Fig. 1a — a plain bitcell array."""
    grid = PatternGrid(rows, cols)
    grid.fill(0, 0, rows, cols, BITCELL)
    return grid


def scenario_conventional_next_to_bitcells(
        rows: int = 8, array_cols: int = 4,
        logic_cols: int = 4) -> PatternGrid:
    """Fig. 1b — conventional standard cells abutting a bitcell array."""
    grid = PatternGrid(rows, array_cols + logic_cols)
    grid.fill(0, 0, rows, array_cols, BITCELL)
    grid.fill(0, array_cols, rows, logic_cols, LOGIC_CONVENTIONAL)
    return grid


def scenario_regular_next_to_bitcells(
        rows: int = 8, array_cols: int = 4,
        logic_cols: int = 4) -> PatternGrid:
    """Fig. 1c — pattern-construct standard cells abutting bitcells."""
    grid = PatternGrid(rows, array_cols + logic_cols)
    grid.fill(0, 0, rows, array_cols, BITCELL)
    grid.fill(0, array_cols, rows, logic_cols, LOGIC_REGULAR)
    return grid
