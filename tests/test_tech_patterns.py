"""Tests for the restrictive-patterning model (Fig. 1 substitute).

:class:`ScalarHotspots` below is the checker's original tile-by-tile
loop over the tag matrix, kept as the oracle: the array-backed
:func:`find_hotspots` must return its exact ``Hotspot`` list, in its
order, and :func:`printability_score` its exact float, for any grid and
rule set.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PatternError
from repro.tech import (
    BITCELL,
    EMPTY,
    LOGIC_CONVENTIONAL,
    LOGIC_REGULAR,
    PERIPHERY,
    PatternGrid,
    PatternRuleSet,
    find_hotspots,
    printability_score,
    scenario_bitcell_array,
    scenario_conventional_next_to_bitcells,
    scenario_regular_next_to_bitcells,
)
from repro.tech.patterns import Hotspot

ALL_TAGS = (BITCELL, LOGIC_REGULAR, LOGIC_CONVENTIONAL, PERIPHERY, EMPTY)


class ScalarHotspots:
    """The checker as a Python loop over the tag matrix (the oracle)."""

    @staticmethod
    def find(grid, rules=None):
        if rules is None:
            rules = PatternRuleSet.default()
        tags = grid.tags
        hotspots = []
        for r0, c0, r1, c1 in grid.adjacencies():
            tag_a, tag_b = tags[r0][c0], tags[r1][c1]
            if not rules.compatible(tag_a, tag_b):
                hotspots.append(Hotspot(r0, c0, r1, c1, tag_a, tag_b))
        return hotspots

    @classmethod
    def score(cls, grid, rules=None):
        adjacency_count = sum(1 for _ in grid.adjacencies())
        if adjacency_count == 0:
            return 1.0
        return 1.0 - len(cls.find(grid, rules)) / adjacency_count


class TestPatternGrid:
    def test_default_fill_is_empty(self):
        grid = PatternGrid(3, 3)
        assert grid.get(0, 0) == EMPTY

    def test_set_and_get(self):
        grid = PatternGrid(2, 2)
        grid.set(1, 1, BITCELL)
        assert grid.get(1, 1) == BITCELL

    def test_fill_region(self):
        grid = PatternGrid(4, 4)
        grid.fill(1, 1, 2, 2, LOGIC_REGULAR)
        assert grid.counts()[LOGIC_REGULAR] == 4

    def test_out_of_bounds_rejected(self):
        grid = PatternGrid(2, 2)
        with pytest.raises(PatternError):
            grid.set(2, 0, BITCELL)

    def test_unknown_tag_rejected(self):
        grid = PatternGrid(2, 2)
        with pytest.raises(PatternError):
            grid.set(0, 0, "XX")

    def test_adjacency_count(self):
        grid = PatternGrid(2, 3)
        # 2 rows x 3 cols: horizontal 2*2=4, vertical 1*3=3.
        assert sum(1 for _ in grid.adjacencies()) == 7

    def test_zero_dimension_rejected(self):
        with pytest.raises(PatternError):
            PatternGrid(0, 3)

    def test_unknown_tag_in_constructor_rejected(self):
        # A typo in a tag must not switch the checker off.
        with pytest.raises(PatternError, match="'XX'"):
            PatternGrid(1, 2, [["XX", LOGIC_CONVENTIONAL]])

    def test_ragged_tag_matrix_rejected(self):
        with pytest.raises(PatternError):
            PatternGrid(2, 2, [[BITCELL, BITCELL], [BITCELL]])

    def test_tag_matrix_round_trips(self):
        tags = [[BITCELL, LOGIC_REGULAR, EMPTY],
                [PERIPHERY, LOGIC_CONVENTIONAL, BITCELL]]
        grid = PatternGrid(2, 3, tags)
        assert grid.tags == tags
        assert grid.get(1, 1) == LOGIC_CONVENTIONAL
        assert grid == PatternGrid(2, 3, [list(row) for row in tags])
        assert grid != PatternGrid(2, 3)

    @pytest.mark.parametrize("region, tag", [
        ((0, 0, 3, 3), BITCELL),    # far corner outside the grid
        ((-1, 0, 2, 2), BITCELL),   # near corner outside the grid
        ((0, 0, 2, 2), "XX"),       # unknown tag
    ])
    def test_rejected_fill_leaves_grid_unchanged(self, region, tag):
        grid = PatternGrid(2, 2)
        with pytest.raises(PatternError):
            grid.fill(*region, tag)
        assert grid.counts() == {EMPTY: 4}

    def test_empty_fill_is_a_no_op(self):
        grid = PatternGrid(2, 2)
        grid.fill(5, 5, 0, 3, BITCELL)
        grid.fill(0, 0, 2, -1, BITCELL)
        assert grid.counts() == {EMPTY: 4}

    def test_counts_in_order_of_first_use(self):
        grid = PatternGrid(3, 3)
        grid.fill(0, 0, 3, 3, PERIPHERY)
        grid.fill(1, 1, 1, 1, BITCELL)
        assert list(grid.counts().items()) == [(PERIPHERY, 8), (BITCELL, 1)]


class TestRuleSet:
    def test_default_forbids_conventional_next_to_bitcell(self):
        rules = PatternRuleSet.default()
        assert not rules.compatible(LOGIC_CONVENTIONAL, BITCELL)

    def test_default_allows_regular_next_to_bitcell(self):
        rules = PatternRuleSet.default()
        assert rules.compatible(LOGIC_REGULAR, BITCELL)

    def test_empty_compatible_with_everything(self):
        rules = PatternRuleSet.default()
        assert rules.compatible(EMPTY, LOGIC_CONVENTIONAL)

    def test_rules_are_symmetric(self):
        rules = PatternRuleSet.default()
        assert rules.compatible(BITCELL, LOGIC_CONVENTIONAL) == \
            rules.compatible(LOGIC_CONVENTIONAL, BITCELL)

    def test_forbid_unknown_tag_rejected(self):
        with pytest.raises(PatternError):
            PatternRuleSet().forbid("XX", BITCELL)

    def test_self_pair_counts(self):
        rules = PatternRuleSet()
        rules.forbid(BITCELL, BITCELL)
        grid = scenario_bitcell_array(rows=3, cols=4)
        # Every one of the 3*3 + 2*4 adjacencies is a BC-BC hotspot.
        assert len(find_hotspots(grid, rules)) == 17
        assert printability_score(grid, rules) == 0.0

    def test_empty_never_forms_a_hotspot(self):
        rules = PatternRuleSet()
        rules.forbid(EMPTY, EMPTY)
        rules.forbid(EMPTY, BITCELL)
        assert not rules.matrix().any()
        assert find_hotspots(PatternGrid(3, 3), rules) == []

    def test_matrix_is_symmetric(self):
        bad = PatternRuleSet.default().matrix()
        assert (bad == bad.T).all()
        assert bad.sum() == 4  # LC-BC and LC-PH, both ways round


class TestFig1Scenarios:
    """The three SEM panels of Fig. 1, as hotspot counts."""

    def test_1a_bitcells_alone_print_clean(self):
        grid = scenario_bitcell_array()
        assert find_hotspots(grid) == []
        assert printability_score(grid) == 1.0

    def test_1b_conventional_logic_creates_hotspots(self):
        grid = scenario_conventional_next_to_bitcells()
        hotspots = find_hotspots(grid)
        assert len(hotspots) > 0
        assert printability_score(grid) < 1.0

    def test_1b_hotspots_lie_on_the_boundary(self):
        grid = scenario_conventional_next_to_bitcells(
            rows=8, array_cols=4, logic_cols=4)
        for h in find_hotspots(grid):
            assert {h.tag_a, h.tag_b} == {BITCELL, LOGIC_CONVENTIONAL}
            assert {h.col, h.neighbor_col} == {3, 4}

    def test_1c_regular_logic_prints_clean(self):
        grid = scenario_regular_next_to_bitcells()
        assert find_hotspots(grid) == []
        assert printability_score(grid) == 1.0

    def test_panel_ordering_matches_paper(self):
        a = printability_score(scenario_bitcell_array())
        b = printability_score(scenario_conventional_next_to_bitcells())
        c = printability_score(scenario_regular_next_to_bitcells())
        assert a == c == 1.0
        assert b < 1.0

    def test_periphery_tag_is_bitcell_compatible(self):
        grid = PatternGrid(2, 2)
        grid.set(0, 0, BITCELL)
        grid.set(0, 1, PERIPHERY)
        assert find_hotspots(grid) == []


@st.composite
def grids(draw):
    """Random grids, 1..40 x 1..40, over a random palette of tags."""
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    palette = draw(st.lists(st.sampled_from(ALL_TAGS), min_size=1,
                            max_size=len(ALL_TAGS), unique=True))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return PatternGrid(rows, cols, [[rng.choice(palette)
                                     for _ in range(cols)]
                                    for _ in range(rows)])


@st.composite
def rule_sets(draw):
    """None (the default), or any set of forbidden pairs, self-pairs and
    pairs with EMPTY included."""
    pairs = draw(st.none() | st.lists(
        st.tuples(st.sampled_from(ALL_TAGS), st.sampled_from(ALL_TAGS)),
        max_size=8))
    if pairs is None:
        return None
    rules = PatternRuleSet()
    for tag_a, tag_b in pairs:
        rules.forbid(tag_a, tag_b)
    return rules


class TestMatchesScalarOracle:
    @given(grids(), rule_sets())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_hotspots_and_score_are_exact(self, grid, rules):
        assert find_hotspots(grid, rules) == ScalarHotspots.find(grid, rules)
        assert printability_score(grid, rules) == \
            ScalarHotspots.score(grid, rules)

    @pytest.mark.parametrize("build", [
        scenario_bitcell_array,
        scenario_conventional_next_to_bitcells,
        scenario_regular_next_to_bitcells,
    ])
    def test_fig1_scenarios(self, build):
        grid = build()
        assert find_hotspots(grid) == ScalarHotspots.find(grid)
        assert printability_score(grid) == ScalarHotspots.score(grid)
