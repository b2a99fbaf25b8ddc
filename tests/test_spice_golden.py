"""The vectorized transient simulator against its scalar formulation.

:class:`ScalarReference` below is the simulator's original inner loop,
kept as the oracle: a Python loop over the devices for their
conductances and for every restamp, scipy's ``lu_factor``/``lu_solve``,
and fancy-index copies of the free and coupling blocks.
:class:`TransientSimulator` must reproduce every number it produces, bit
for bit: each small circuit's full :class:`TransientResult` (time axis,
every node voltage, every source's energy history, final energy and
charge), and the smallest reference brick's ``measure_read`` and
``measure_write`` values.  Both run on the same machine and BLAS, so the
comparison holds wherever the suite runs.
"""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from repro.bricks import compile_brick, extract, measure_read, measure_write
from repro.bricks.spec import BrickSpec
from repro.circuit import (
    GND,
    SpiceCircuit,
    TransientResult,
    TransientSimulator,
    pulse,
    ramp,
)
from repro.circuit.spice import _GMIN
from repro.tech import NMOS, Transistor
from repro.units import FF, KOHM, NS, PS


class ScalarReference:
    """Backward Euler with per-device Python loops (the test oracle)."""

    def __init__(self, circuit: SpiceCircuit, tech):
        circuit.validate()
        self.tech = tech
        self.driven = circuit.driven_nodes()
        nodes = circuit.free_nodes() + sorted(self.driven)
        self.n_free = len(circuit.free_nodes())
        self.index = {GND: -1, **{node: i for i, node in enumerate(nodes)}}
        self.cmat = np.zeros((len(nodes), len(nodes)))
        self.gstatic = np.zeros((len(nodes), len(nodes)))
        np.fill_diagonal(self.gstatic, _GMIN)
        for cap in circuit.capacitors:
            self.stamp(self.cmat, cap.a, cap.b, cap.c)
        for res in circuit.resistors:
            self.stamp(self.gstatic, res.a, res.b, 1.0 / res.r)
        self.devices = [Transistor(m.kind, m.w_um) for m in circuit.mosfets]
        for mos, device in zip(circuit.mosfets, self.devices):
            self.stamp(self.cmat, mos.gate, GND, device.c_gate(tech))
            self.stamp(self.cmat, mos.drain, GND, device.c_drain(tech))
            self.stamp(self.cmat, mos.source, GND, device.c_drain(tech))
        self.terms = [(self.index[m.gate], self.index[m.drain],
                       self.index[m.source]) for m in circuit.mosfets]

    def stamp(self, mat, a, b, value):
        ia, ib = self.index[a], self.index[b]
        if ia >= 0:
            mat[ia, ia] += value
        if ib >= 0:
            mat[ib, ib] += value
        if ia >= 0 and ib >= 0:
            mat[ia, ib] -= value
            mat[ib, ia] -= value

    def conductances(self, v):
        g = np.empty(len(self.devices))
        for i, (device, terms) in enumerate(zip(self.devices, self.terms)):
            v_g, v_d, v_s = (v[k] if k >= 0 else 0.0 for k in terms)
            if device.kind == NMOS:
                drive = v_g - min(v_d, v_s)
            else:
                drive = max(v_d, v_s) - v_g
            g[i] = device.conductance(drive, self.tech)
        return g

    def run(self, t_stop, dt, v_init=None, refactor_tol=1e-3):
        steps = int(round(t_stop / dt))
        v = np.zeros(len(self.cmat))
        for node, value in (v_init or {}).items():
            if self.index[node] >= 0:
                v[self.index[node]] = value
        for node, src in self.driven.items():
            v[self.index[node]] = src.value(0.0)
        times = np.linspace(0.0, steps * dt, steps + 1)
        history = np.empty((steps + 1, len(v)))
        history[0] = v

        free = np.arange(self.n_free)
        names = sorted(self.driven)
        driven = np.array([self.index[name] for name in names], dtype=int)
        sources = [self.driven[name] for name in names]
        c_over_dt = self.cmat / dt
        energy = {src.name: 0.0 for src in sources}
        charge = {src.name: 0.0 for src in sources}
        energy_history = {src.name: np.zeros(steps + 1) for src in sources}
        lu = g_last = None
        for step in range(1, steps + 1):
            g_mos = self.conductances(v)
            if lu is None or (
                    g_mos.size > 0
                    and np.max(np.abs(g_mos - g_last)) >
                    refactor_tol * (np.max(np.abs(g_last)) + _GMIN)):
                g_full = self.gstatic.copy()
                for g_dev, (_, idr, isr) in zip(g_mos, self.terms):
                    if g_dev == 0.0:
                        continue
                    if idr >= 0:
                        g_full[idr, idr] += g_dev
                    if isr >= 0:
                        g_full[isr, isr] += g_dev
                    if idr >= 0 and isr >= 0:
                        g_full[idr, isr] -= g_dev
                        g_full[isr, idr] -= g_dev
                a_full = c_over_dt + g_full
                if free.size:
                    lu = lu_factor(a_full[np.ix_(free, free)],
                                   check_finite=False)
                else:
                    lu = ()
                g_last = g_mos

            v_new = v.copy()
            for src, idx in zip(sources, driven):
                v_new[idx] = src.value(times[step])
            if free.size:
                rhs = c_over_dt[free] @ v
                if driven.size:
                    rhs -= a_full[np.ix_(free, driven)] @ v_new[driven]
                v_new[free] = lu_solve(lu, rhs, check_finite=False)

            dv_dt = (v_new - v) / dt
            for src, idx in zip(sources, driven):
                i_out = self.cmat[idx] @ dv_dt + g_full[idx] @ v_new
                charge[src.name] += i_out * dt
                energy[src.name] += i_out * v_new[idx] * dt
                energy_history[src.name][step] = energy[src.name]
            v = history[step] = v_new

        voltages = {node: history[:, idx]
                    for node, idx in self.index.items() if idx >= 0}
        voltages[GND] = np.zeros(steps + 1)
        return TransientResult(times, voltages, energy, charge,
                               energy_history)


def assert_bit_identical(got: TransientResult, want: TransientResult):
    """Every array and scalar of two results has the same float64 bits."""
    assert sorted(got.voltages) == sorted(want.voltages)
    assert sorted(got.source_energy) == sorted(want.source_energy)
    fields = [("t", got.t, want.t)]
    fields += [(f"v({node})", got.voltages[node], want.voltages[node])
               for node in sorted(want.voltages)]
    for name in sorted(want.source_energy):
        fields += [
            (f"energy history of {name}",
             got.source_energy_history[name],
             want.source_energy_history[name]),
            (f"energy of {name}", got.source_energy[name],
             want.source_energy[name]),
            (f"charge of {name}", got.source_charge[name],
             want.source_charge[name]),
        ]
    for label, a, b in fields:
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b,
                                                         dtype=np.float64)
        assert a.shape == b.shape, label
        assert a.tobytes() == b.tobytes(), (
            f"{label} differs, max |diff| {np.max(np.abs(a - b))}")


def nmos_source_at_gnd(tech):
    """A resistive-load NMOS pull-down whose source is GND."""
    ckt = SpiceCircuit("nmos_source_at_gnd")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("vin", "g", ramp(50 * PS, 20 * PS, 0.0, tech.vdd))
    ckt.add_resistor("rpu", "vdd", "y", 20 * KOHM)
    ckt.add_mosfet("mn", "nmos", "g", "y", GND, 0.4)
    ckt.add_capacitor("cy", "y", 3 * FF)
    return ckt, {"y": tech.vdd}


def pmos_to_driven_rail(tech):
    """A PMOS pull-up from the driven supply rail into a resistive load."""
    ckt = SpiceCircuit("pmos_to_driven_rail")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("vin", "g", ramp(50 * PS, 20 * PS, tech.vdd, 0.0))
    ckt.add_mosfet("mp", "pmos", "g", "y", "vdd", 0.8)
    ckt.add_resistor("rpd", "y", GND, 30 * KOHM)
    ckt.add_capacitor("cy", "y", 3 * FF)
    return ckt, None


def gate_at_gnd(tech):
    """An always-on PMOS keeper and an always-off NMOS, both with their
    gate tied to GND, fighting a switched pull-down."""
    ckt = SpiceCircuit("gate_at_gnd")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("vin", "a", pulse(40 * PS, 150 * PS, 15 * PS, 0.0,
                                      tech.vdd))
    ckt.add_mosfet("mkeep", "pmos", GND, "y", "vdd", 0.2)
    ckt.add_mosfet("moff", "nmos", GND, "y", "x", 0.3)
    ckt.add_mosfet("mn", "nmos", "a", "y", GND, 0.6)
    ckt.add_capacitor("cy", "y", 2 * FF)
    ckt.add_capacitor("cx", "x", 1 * FF)
    return ckt, {"x": 0.3}


def rc_only(tech):
    """An RC ladder with a floating coupling cap and no MOSFETs."""
    ckt = SpiceCircuit("rc_only")
    ckt.add_vsource("vin", "n0", ramp(20 * PS, 10 * PS, 0.0, 1.0))
    for i in range(4):
        ckt.add_resistor(f"r{i}", f"n{i}", f"n{i + 1}", (1 + i) * KOHM)
        ckt.add_capacitor(f"c{i}", f"n{i + 1}", (2 + i) * FF)
    ckt.add_capacitor("cc", "n2", 1.5 * FF, b="n4")
    ckt.add_resistor("rleak", "n4", GND, 100 * KOHM)
    return ckt, None


def no_driven_nodes(tech):
    """Free decay from ``v_init`` with no source at all; the NMOS gate
    is itself a decaying free node, so the device turns off mid-run."""
    ckt = SpiceCircuit("no_driven_nodes")
    ckt.add_resistor("rab", "a", "b", 5 * KOHM)
    ckt.add_resistor("ra", "a", GND, 50 * KOHM)
    ckt.add_capacitor("ca", "a", 4 * FF)
    ckt.add_capacitor("cb", "b", 2 * FF)
    ckt.add_capacitor("cab", "a", 0.5 * FF, b="b")
    ckt.add_mosfet("mn", "nmos", "a", "b", GND, 0.3)
    return ckt, {"a": tech.vdd, "b": 0.8 * tech.vdd}


def inverter_chain(tech):
    """Three inverters on one supply with a pulsed input and a constant
    bias source: several driven rows in the energy bookkeeping."""
    ckt = SpiceCircuit("inverter_chain")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("vbias", "bias", 0.5 * tech.vdd)
    ckt.add_vsource("vin", "n0", pulse(30 * PS, 200 * PS, 10 * PS, 0.0,
                                       tech.vdd))
    for i in range(3):
        a, y = f"n{i}", f"n{i + 1}"
        ckt.add_mosfet(f"mn{i}", "nmos", a, y, GND, 0.3)
        ckt.add_mosfet(f"mp{i}", "pmos", a, y, "vdd", 0.6)
        ckt.add_capacitor(f"cl{i}", y, 2 * FF)
    ckt.add_resistor("rb", "bias", "n3", 40 * KOHM)
    return ckt, {"n1": tech.vdd, "n2": 0.0, "n3": tech.vdd}


def no_free_nodes(tech):
    """Every node driven: there is nothing to solve, only bookkeeping."""
    ckt = SpiceCircuit("no_free_nodes")
    ckt.add_vsource("va", "a", ramp(1 * PS, 5 * PS, 0.0, 1.0))
    ckt.add_resistor("r1", "a", GND, 1 * KOHM)
    ckt.add_capacitor("c1", "a", 1 * FF)
    return ckt, None


CIRCUITS = {
    "nmos_source_at_gnd": (nmos_source_at_gnd, 0.6 * NS, 1 * PS),
    "pmos_to_driven_rail": (pmos_to_driven_rail, 0.6 * NS, 1 * PS),
    "gate_at_gnd": (gate_at_gnd, 0.5 * NS, 0.5 * PS),
    "rc_only": (rc_only, 0.4 * NS, 0.5 * PS),
    "no_driven_nodes": (no_driven_nodes, 0.5 * NS, 1 * PS),
    "inverter_chain": (inverter_chain, 0.6 * NS, 0.5 * PS),
    "no_free_nodes": (no_free_nodes, 20 * PS, 1 * PS),
}

#: 6T 8x8 at 1x stacking, the smallest reference brick, as the scalar
#: formulation measured it (``perfbench/goldens.json`` holds the same
#: row to the same 1e-9 relative tolerance).
REFERENCE_6T_8X8 = (2.295356762683093e-10, 1.1798856147286868e-13,
                    7.214395628324403e-14)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_transient_result_is_bit_identical(name, tech):
    build, t_stop, dt = CIRCUITS[name]
    ckt, v_init = build(tech)
    got = TransientSimulator(ckt, tech).run(t_stop=t_stop, dt=dt,
                                            v_init=v_init)
    want = ScalarReference(ckt, tech).run(t_stop, dt, v_init)
    assert_bit_identical(got, want)


def measure(compiled, tech):
    """``(read delay, read energy, write energy)`` at 1x stacking."""
    delay, read_energy = measure_read(compiled, tech, stack=1)
    return delay, read_energy, measure_write(compiled, tech, stack=1)


def test_smallest_reference_brick_is_bit_identical(tech, monkeypatch):
    compiled = compile_brick(BrickSpec("6T", 8, 8), tech, target_stack=1)
    got = measure(compiled, tech)
    monkeypatch.setattr(extract, "TransientSimulator", ScalarReference)
    want = measure(compiled, tech)
    assert got == want
    assert got == pytest.approx(REFERENCE_6T_8X8, rel=1e-9)
