"""Tests for the device netlist container and the transient simulator."""

import pytest

from repro.circuit import GND, SpiceCircuit, TransientSimulator, ramp
from repro.errors import NetlistError, SimulationError
from repro.units import FF, KOHM, NS, PS


class TestSpiceCircuit:
    def test_duplicate_element_name_rejected(self):
        ckt = SpiceCircuit()
        ckt.add_resistor("r1", "a", "b", 100.0)
        with pytest.raises(NetlistError):
            ckt.add_capacitor("r1", "a", 1 * FF)

    def test_resistor_short_rejected(self):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_resistor("r1", "a", "a", 1.0)

    def test_zero_cap_is_noop(self):
        ckt = SpiceCircuit()
        ckt.add_capacitor("c0", "a", 0.0)
        assert not ckt.capacitors

    def test_mosfet_validation(self):
        ckt = SpiceCircuit()
        with pytest.raises(NetlistError):
            ckt.add_mosfet("m1", "nmos", "g", "d", "d", 0.2)
        with pytest.raises(NetlistError):
            ckt.add_mosfet("m2", "jfet", "g", "d", "s", 0.2)
        with pytest.raises(NetlistError):
            ckt.add_mosfet("m3", "nmos", "g", "d", "s", -0.2)

    def test_double_source_on_node_rejected(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("v1", "a", 1.0)
        with pytest.raises(NetlistError):
            ckt.add_vsource("v2", "a", 2.0)

    def test_gnd_cannot_be_driven(self):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_vsource("v1", GND, 1.0)

    def test_free_nodes_excludes_driven(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", 1.0)
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 1 * FF)
        assert ckt.free_nodes() == ["out"]

    def test_validate_catches_capless_node(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", 1.0)
        ckt.add_resistor("r1", "in", "mid", 1.0)
        ckt.add_resistor("r2", "mid", GND, 1.0)
        with pytest.raises(NetlistError):
            ckt.validate()

    def test_stats(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        stats = ckt.stats()
        assert stats["resistors"] == 1
        assert stats["sources"] == 1


class TestTransient:
    def test_rc_step_matches_analytic(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", ramp(0.1 * NS, 1 * PS, 0.0, 1.0))
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 100 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.5 * NS, dt=0.5 * PS)
        t50 = result.waveform("out").crossing(0.5, rising=True)
        analytic = 0.1 * NS + 0.5 * PS + 0.693 * 1e3 * 100e-15
        assert t50 == pytest.approx(analytic, rel=0.01)

    def test_rc_final_value(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", 1.0)
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 10 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=0.5 * NS, dt=0.5 * PS)
        assert result.waveform("out").final == pytest.approx(1.0,
                                                             abs=1e-3)

    def test_supply_energy_of_full_charge(self, tech):
        # Charging C through R from an ideal source draws C*V^2.
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", ramp(10 * PS, 5 * PS, 0.0, 1.0))
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 50 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.0 * NS, dt=0.25 * PS)
        assert result.energy("vin") == pytest.approx(50e-15, rel=0.03)

    def test_energy_window_sums_to_total(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", ramp(10 * PS, 5 * PS, 0.0, 1.0))
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 20 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.0 * NS, dt=0.5 * PS)
        first = result.energy_in_window("vin", 0.0, 0.5 * NS)
        second = result.energy_in_window("vin", 0.5 * NS, 1.0 * NS)
        assert first + second == pytest.approx(result.energy("vin"),
                                               rel=1e-6)

    def test_inverter_switches_rail_to_rail(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        ckt.add_vsource("vin", "a",
                        ramp(0.1 * NS, 20 * PS, 0.0, tech.vdd))
        ckt.add_mosfet("mn", "nmos", "a", "y", GND, 0.5)
        ckt.add_mosfet("mp", "pmos", "a", "y", "vdd", 1.0)
        ckt.add_capacitor("cl", "y", 5 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.0 * NS, dt=0.5 * PS, v_init={"y": tech.vdd})
        wf = result.waveform("y")
        assert wf.value_at(0.05 * NS) == pytest.approx(tech.vdd,
                                                       abs=0.02)
        assert wf.final == pytest.approx(0.0, abs=0.02)

    def test_inverter_chain_propagates_and_inverts(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        ckt.add_vsource("vin", "n0",
                        ramp(50 * PS, 10 * PS, 0.0, tech.vdd))
        for i in range(3):
            a, y = f"n{i}", f"n{i+1}"
            ckt.add_mosfet(f"mn{i}", "nmos", a, y, GND, 0.3)
            ckt.add_mosfet(f"mp{i}", "pmos", a, y, "vdd", 0.6)
            ckt.add_capacitor(f"cl{i}", y, 2 * FF)
        init = {"n1": tech.vdd, "n2": 0.0, "n3": tech.vdd}
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.5 * NS, dt=0.5 * PS, v_init=init)
        # Odd number of inversions: final output low.
        assert result.waveform("n3").final == pytest.approx(0.0,
                                                            abs=0.05)
        # Delay accumulates monotonically along the chain.
        t1 = result.waveform("n1").crossing(tech.vdd / 2, rising=False)
        t3 = result.waveform("n3").crossing(tech.vdd / 2, rising=False)
        assert t3 > t1

    def test_bad_timestep_rejected(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        sim = TransientSimulator(ckt, tech)
        with pytest.raises(SimulationError):
            sim.run(t_stop=1 * NS, dt=2 * NS)

    def test_unknown_vinit_node_rejected(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        sim = TransientSimulator(ckt, tech)
        with pytest.raises(SimulationError):
            sim.run(t_stop=1 * NS, dt=1 * PS, v_init={"ghost": 1.0})

    def test_unrecorded_node_raises(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        result = TransientSimulator(ckt, tech).run(t_stop=0.1 * NS,
                                                   dt=1 * PS)
        with pytest.raises(SimulationError):
            result.waveform("ghost")


NON_FINITE = [float("nan"), float("inf")]


class TestNonFiniteRejected:
    """Non-finite values fail loudly instead of turning into NaN
    waveforms."""

    @pytest.mark.parametrize("r", NON_FINITE)
    def test_resistor(self, r):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_resistor("r1", "a", "b", r)

    @pytest.mark.parametrize("c", NON_FINITE)
    def test_capacitor(self, c):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_capacitor("c1", "a", c)

    @pytest.mark.parametrize("w_um", NON_FINITE)
    def test_mosfet_width(self, w_um):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_mosfet("m1", "nmos", "g", "d", "s", w_um)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_constant_source(self, value):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_vsource("v1", "a", value)

    def test_callable_source_going_non_finite(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in",
                        lambda t: float("nan") if t > 50 * PS else 1.0)
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 10 * FF)
        with pytest.raises(SimulationError, match="vin"):
            TransientSimulator(ckt, tech).run(t_stop=0.1 * NS, dt=1 * PS)

    def test_singular_system(self, tech):
        # A huge floating cap swamps GMIN: the 2x2 free block is exactly
        # singular in floating point.
        ckt = SpiceCircuit()
        ckt.add_capacitor("cf", "a", 1.0, b="b")
        with pytest.raises(SimulationError, match="singular"):
            TransientSimulator(ckt, tech).run(t_stop=0.1 * NS, dt=1 * PS)
