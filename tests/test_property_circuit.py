"""Property-based tests for circuit engines, LUTs and pareto fronts."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import GND, RCTree, SpiceCircuit, TransientSimulator
from repro.circuit import gate_type
from repro.explore import dominates, pareto_front
from repro.liberty import LUT2D
from repro.tech import NMOS, PMOS, Transistor, cmos14, cmos65

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestElmoreProperties:
    @given(st.lists(st.tuples(st.floats(1.0, 1e4), st.floats(1e-16,
                                                             1e-13)),
                    min_size=1, max_size=12),
           st.floats(0.0, 1e4))
    @_settings
    def test_ladder_monotonic_in_depth(self, segments, r_drive):
        tree = RCTree(r_drive=r_drive)
        last = "root"
        delays = []
        for i, (r, c) in enumerate(segments):
            tree.add(f"n{i}", last, r, c)
            last = f"n{i}"
            delays.append(tree.elmore(last))
        # Recompute after full construction: still non-decreasing along
        # the path, and adding downstream load never sped anything up.
        final = [tree.elmore(f"n{i}") for i in range(len(segments))]
        assert all(final[i] <= final[i + 1] + 1e-30
                   for i in range(len(final) - 1))
        assert all(f >= d - 1e-30 for f, d in zip(final, delays))

    @given(st.floats(1.0, 1e4), st.floats(1e-16, 1e-13),
           st.floats(1e-16, 1e-13))
    @_settings
    def test_extra_cap_never_reduces_delay(self, r, c, extra):
        tree = RCTree(r_drive=100.0)
        tree.add("a", "root", r, c)
        before = tree.elmore("a")
        tree.add_cap("a", extra)
        assert tree.elmore("a") >= before


class TestLUTProperties:
    @st.composite
    @staticmethod
    def lut_strategy(draw):
        n_s = draw(st.integers(1, 4))
        n_l = draw(st.integers(1, 4))
        slews = sorted(draw(st.lists(
            st.floats(0.0, 100.0), min_size=n_s, max_size=n_s,
            unique=True)))
        loads = sorted(draw(st.lists(
            st.floats(0.0, 100.0), min_size=n_l, max_size=n_l,
            unique=True)))
        values = tuple(
            tuple(draw(st.floats(-100, 100)) for _ in loads)
            for _ in slews)
        return LUT2D(tuple(slews), tuple(loads), values)

    @given(lut_strategy())
    @_settings
    def test_exact_at_grid(self, lut):
        for i, s in enumerate(lut.slews):
            for j, ld in enumerate(lut.loads):
                assert lut.value(s, ld) == pytest.approx(
                    lut.values[i][j], rel=1e-9, abs=1e-9)

    @given(lut_strategy(), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @_settings
    def test_interpolation_within_bounds(self, lut, s, ld):
        """Inside the grid the bilinear value never escapes the value
        range of the table."""
        if not (lut.slews[0] <= s <= lut.slews[-1]
                and lut.loads[0] <= ld <= lut.loads[-1]):
            return
        flat = [v for row in lut.values for v in row]
        value = lut.value(s, ld)
        assert min(flat) - 1e-6 <= value <= max(flat) + 1e-6


class TestGateProperties:
    @given(st.sampled_from(["INV", "NAND2", "NAND3", "NOR2", "AND2",
                            "OR2", "XOR2", "AOI21", "OAI21", "MUX2"]),
           st.data())
    @_settings
    def test_inverting_flag_consistent(self, name, data):
        """For inverting gates, the all-true or all-false corner output
        must differ from an AND/OR-like monotone expectation only in
        polarity; concretely: flipping every input of a monotone
        inverting gate from all-False to all-True flips the output."""
        gate = gate_type(name)
        if name in ("XOR2", "MUX2"):
            return  # non-monotone
        low = gate.evaluate([False] * gate.n_inputs)
        high = gate.evaluate([True] * gate.n_inputs)
        assert low != high


class TestParetoProperties:
    points_strategy = st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=24)

    @given(points_strategy)
    @_settings
    def test_front_members_not_dominated(self, points):
        front = pareto_front(points, lambda p: p)
        for member in front:
            assert not any(dominates(other, member)
                           for other in points)

    @given(points_strategy)
    @_settings
    def test_every_point_dominated_by_front_or_in_it(self, points):
        front = pareto_front(points, lambda p: p)
        for point in points:
            assert point in front or any(
                dominates(member, point) for member in front)

    @given(points_strategy)
    @_settings
    def test_front_idempotent(self, points):
        front = pareto_front(points, lambda p: p)
        assert pareto_front(front, lambda p: p) == front


def _critical_voltages(tech):
    """Drives at and one ulp either side of threshold and saturation."""
    v_sat = tech.v_sat_frac * tech.vdd
    return [x for v in (tech.v_th, v_sat)
            for x in (math.nextafter(v, 0.0), v, math.nextafter(v, 2.0))]


@st.composite
def _devices(draw, tech):
    """(kind, w_um, v_gate, v_drain, v_source) rows; ``None`` is GND."""
    critical = _critical_voltages(tech)
    rail = st.sampled_from([None, 0.0, tech.vdd])
    level = st.one_of(rail, st.floats(-0.2, tech.vdd + 0.2))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([NMOS, PMOS]))
        v_d, v_s = draw(level), draw(level)
        # Aim the drive at threshold or saturation from the lower
        # (NMOS) or upper (PMOS) channel terminal, or draw it freely.
        ref = [0.0 if v is None else v for v in (v_d, v_s)]
        target = draw(st.sampled_from(critical))
        v_g = draw(st.one_of(
            level, st.just(min(ref) + target if kind == NMOS
                           else max(ref) - target)))
        rows.append((kind, draw(st.floats(0.05, 4.0)), v_g, v_d, v_s))
    return rows


class TestSwitchConductanceProperties:
    @given(st.data(), st.sampled_from([cmos65(), cmos14()]))
    @_settings
    def test_vectorized_equals_scalar(self, data, tech):
        """The simulator's array conductances equal
        :meth:`Transistor.conductance` device by device, bit for bit."""
        rows = data.draw(_devices(tech))
        ckt = SpiceCircuit()
        levels = {}
        for i, (kind, w_um, *volts) in enumerate(rows):
            if volts[1] is None and volts[2] is None:
                volts[2] = 0.0  # drain and source may not both be GND
            names = [f"g{i}", f"d{i}", f"s{i}"]
            levels.update((name, v) for name, v in zip(names, volts)
                          if v is not None)
            ckt.add_mosfet(f"m{i}", kind, *(
                GND if v is None else name
                for name, v in zip(names, volts)), w_um)
        sim = TransientSimulator(ckt, tech)
        v = np.zeros(len(ckt.nodes))  # node slots plus the GND slot
        for node, value in levels.items():
            v[sim._index[node]] = value
        got = sim._mos_conductances(v).tolist()

        want = []
        for mos in ckt.mosfets:
            v_g, v_d, v_s = (levels.get(n, 0.0)
                             for n in (mos.gate, mos.drain, mos.source))
            drive = (v_g - min(v_d, v_s) if mos.kind == NMOS
                     else max(v_d, v_s) - v_g)
            want.append(Transistor(mos.kind, mos.w_um).conductance(
                drive, tech))
        assert got == want
