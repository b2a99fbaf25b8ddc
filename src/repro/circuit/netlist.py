"""Device-level circuit netlist for the transient reference simulator.

This is the "RC extracted" representation of Table 1: resistors and
capacitors extracted from brick layouts plus switch-level MOS devices for
the periphery and bitcells.  The container is deliberately flat — brick
extraction produces flat networks — and validates connectivity eagerly so
that netlist bugs fail at construction, not mid-simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, Union

from ..errors import NetlistError
from ..tech.transistor import NMOS, PMOS

GND = "0"

#: A voltage stimulus: either a constant (in volts) or a callable ``v(t)``.
Stimulus = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class Resistor:
    name: str
    a: str
    b: str
    r: float


@dataclass(frozen=True)
class Capacitor:
    name: str
    a: str
    b: str
    c: float


@dataclass(frozen=True)
class Mosfet:
    """A switch-level MOS device.

    ``drain`` and ``source`` are interchangeable electrically (the
    simulator picks the source as the lower/higher potential terminal for
    NMOS/PMOS); naming them keeps netlists readable.
    """

    name: str
    kind: str
    gate: str
    drain: str
    source: str
    w_um: float


@dataclass(frozen=True)
class VSource:
    name: str
    node: str
    stimulus: Stimulus

    def value(self, t: float) -> float:
        if callable(self.stimulus):
            return float(self.stimulus(t))
        return float(self.stimulus)


@dataclass
class SpiceCircuit:
    """A flat device-level circuit.

    Nodes are created implicitly on first use.  ``GND`` (node ``"0"``) is
    always present and always driven at 0 V.
    """

    name: str = "circuit"
    resistors: List[Resistor] = field(default_factory=list)
    capacitors: List[Capacitor] = field(default_factory=list)
    mosfets: List[Mosfet] = field(default_factory=list)
    sources: List[VSource] = field(default_factory=list)
    _names: Set[str] = field(default_factory=set)
    _nodes: Set[str] = field(default_factory=lambda: {GND})

    # --- construction ------------------------------------------------------

    def _register(self, name: str, *nodes: str) -> None:
        if name in self._names:
            raise NetlistError(f"duplicate element name {name!r}")
        self._names.add(name)
        self._nodes.update(nodes)

    def add_resistor(self, name: str, a: str, b: str, r: float) -> None:
        if not math.isfinite(r) or r <= 0:
            raise NetlistError(f"resistor {name!r} must have finite r > 0")
        if a == b:
            raise NetlistError(f"resistor {name!r} shorts node {a!r}")
        self._register(name, a, b)
        self.resistors.append(Resistor(name, a, b, r))

    def add_capacitor(self, name: str, a: str, c: float,
                      b: str = GND) -> None:
        if not math.isfinite(c) or c < 0:
            raise NetlistError(
                f"capacitor {name!r} must have finite c >= 0")
        if c == 0:
            return  # zero caps are legal no-ops from extraction
        if a == b:
            raise NetlistError(f"capacitor {name!r} shorts node {a!r}")
        self._register(name, a, b)
        self.capacitors.append(Capacitor(name, a, b, c))

    def add_mosfet(self, name: str, kind: str, gate: str, drain: str,
                   source: str, w_um: float) -> None:
        if kind not in (NMOS, PMOS):
            raise NetlistError(f"mosfet {name!r} has unknown kind {kind!r}")
        if not math.isfinite(w_um) or w_um <= 0:
            raise NetlistError(f"mosfet {name!r} must have finite w > 0")
        if drain == source:
            raise NetlistError(f"mosfet {name!r} shorts drain to source")
        self._register(name, gate, drain, source)
        self.mosfets.append(Mosfet(name, kind, gate, drain, source, w_um))

    def add_vsource(self, name: str, node: str, stimulus: Stimulus) -> None:
        if node == GND:
            raise NetlistError("GND is implicitly driven; pick another node")
        if any(s.node == node for s in self.sources):
            raise NetlistError(f"node {node!r} already has a source")
        if not callable(stimulus) and not math.isfinite(stimulus):
            raise NetlistError(
                f"source {name!r} must have a finite value, got {stimulus}")
        self._register(name, node)
        self.sources.append(VSource(name, node, stimulus))

    # --- queries ------------------------------------------------------------

    @property
    def nodes(self) -> Set[str]:
        return set(self._nodes)

    def driven_nodes(self) -> Dict[str, VSource]:
        """Map of driven node name -> its source (GND handled separately)."""
        return {s.node: s for s in self.sources}

    def free_nodes(self) -> List[str]:
        """Nodes whose voltage the simulator solves for, sorted for
        determinism."""
        driven = set(self.driven_nodes()) | {GND}
        return sorted(self._nodes - driven)

    def validate(self) -> None:
        """Check that every free node has a DC path and some capacitance.

        A free node with no capacitance makes the backward-Euler system
        singular in degenerate cases; extraction always leaves diffusion
        or wire cap on real nodes, so a violation signals a netlist bug.
        """
        cap_nodes: Set[str] = set()
        for cap in self.capacitors:
            cap_nodes.add(cap.a)
            cap_nodes.add(cap.b)
        for mos in self.mosfets:
            cap_nodes.update((mos.gate, mos.drain, mos.source))
        missing = [n for n in self.free_nodes() if n not in cap_nodes]
        if missing:
            raise NetlistError(
                f"free nodes without any capacitance: {missing[:8]}")

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": len(self._nodes),
            "resistors": len(self.resistors),
            "capacitors": len(self.capacitors),
            "mosfets": len(self.mosfets),
            "sources": len(self.sources),
        }
