"""Switch-level transient circuit simulator (the "SPICE" reference).

Table 1 of the paper validates the brick estimator against "SPICE
simulations with RC extracted bitcell array layouts".  This module plays
the SPICE role: it numerically integrates the extracted RC network with
voltage-controlled-switch MOS models using backward Euler on the nodal
equations.  It shares *device parameters* with the closed-form estimator
(both read :class:`repro.tech.Technology`) but none of its closed forms —
Elmore delay, logical-effort sizing and the CV^2 energy bookkeeping are
never consulted here — so the tool-vs-reference error is a genuine
measurement of the estimator's approximations.

Numerical scheme
----------------
Nodal analysis with grounded-and-coupling capacitors:

    C dv/dt + G(v) v = 0,     driven nodes pinned by ideal sources.

Backward Euler with device conductances evaluated at the previous step
(semi-implicit; unconditionally stable for this RC class, accurate for the
small steps used).  Free nodes are numbered ``0..nf-1`` and driven nodes
``nf..n-1``, so the free block ``A_ff`` of ``A = C/dt + G`` and its
coupling ``A_fd`` to the sources are plain slices.

The MOS devices are held as arrays (terminal indices, polarity,
on-resistance), and each step prices all of them at once with
:func:`repro.tech.transistor.switch_conductances`, the array form of
:meth:`Transistor.conductance`.  ``A_ff`` is
refactorized (dense LU, LAPACK ``getrf``) only when some device
conductance moved by more than ``refactor_tol`` times the largest one at
the last factorization.  This makes the quiescent majority of each
transient cheap.  A refactorization restamps the devices from a
precomputed stamp list with one ``np.add.at``, and rewrites only the
entries of ``A`` that the devices touch.  Between refactorizations, a step
is two matrix-vector products and one ``getrs`` solve.

Bit-identity: every sum is accumulated in the same order as a scalar
per-device loop would (the stamp list is in netlist order, the source
currents are per-row dot products), so the waveforms and energies are
bit-for-bit those of the scalar formulation.  ``tests/test_spice_golden.py``
checks this against a scalar per-device reference loop.

scipy (for LAPACK) is imported when a transient first runs, not with this
module, so importing :mod:`repro` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..tech.technology import Technology
from ..tech.transistor import NMOS, Transistor, switch_conductances
from .netlist import GND, SpiceCircuit
from .waveform import Waveform

_GMIN = 1e-12  # universal leak conductance for numerical conditioning


def lu_factor(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense LU factorization with partial pivoting, as ``(lu, piv)``.

    Every factorization the simulator makes goes through this function
    (``perfbench/layers.py`` wraps it by name to count and time them).
    Raises :class:`SimulationError` when LAPACK reports a zero pivot.
    """
    from scipy.linalg.lapack import dgetrf

    if a.size == 0:
        return np.empty_like(a), np.arange(0, dtype=np.int32)
    lu, piv, info = dgetrf(a)
    if info != 0:
        raise SimulationError(
            f"singular system matrix (LAPACK getrf info={info})")
    return lu, piv


@dataclass
class TransientResult:
    """Waveforms and supply-energy bookkeeping from one transient run."""

    t: np.ndarray
    voltages: Dict[str, np.ndarray]
    source_energy: Dict[str, float]
    source_charge: Dict[str, float]
    source_energy_history: Dict[str, np.ndarray]

    def waveform(self, node: str) -> Waveform:
        try:
            return Waveform(self.t, self.voltages[node])
        except KeyError as exc:
            raise SimulationError(f"node {node!r} was not recorded") from exc

    def energy(self, source_name: str) -> float:
        """Energy delivered by a named source over the run (joules)."""
        try:
            return self.source_energy[source_name]
        except KeyError as exc:
            raise SimulationError(
                f"unknown source {source_name!r}") from exc

    def energy_in_window(self, source_name: str, t0: float,
                         t1: float) -> float:
        """Energy delivered by a source between times ``t0`` and ``t1``."""
        try:
            history = self.source_energy_history[source_name]
        except KeyError as exc:
            raise SimulationError(
                f"unknown source {source_name!r}") from exc
        e0 = float(np.interp(t0, self.t, history))
        e1 = float(np.interp(t1, self.t, history))
        return e1 - e0

    def total_supply_energy(self) -> float:
        """Energy delivered by all sources with positive net delivery."""
        return sum(e for e in self.source_energy.values() if e > 0)


class TransientSimulator:
    """Backward-Euler transient simulator over a :class:`SpiceCircuit`."""

    def __init__(self, circuit: SpiceCircuit, tech: Technology):
        circuit.validate()
        self.circuit = circuit
        self.tech = tech
        self._free = circuit.free_nodes()
        self._driven = circuit.driven_nodes()
        self._index: Dict[str, int] = {GND: -1}
        all_nodes = self._free + sorted(self._driven)
        for i, node in enumerate(all_nodes):
            self._index[node] = i
        self._n_free = len(self._free)
        self._n_all = len(all_nodes)
        self._build_static()

    # --- matrix assembly ----------------------------------------------------

    def _build_static(self) -> None:
        """Assemble the constant C matrix, the static part of G and the
        device arrays."""
        n = self._n_all
        self._cmat = np.zeros((n, n))
        self._gstatic = np.zeros((n, n))
        np.fill_diagonal(self._gstatic, _GMIN)

        def stamp(mat: np.ndarray, a: str, b: str, value: float) -> None:
            ia, ib = self._index[a], self._index[b]
            if ia >= 0:
                mat[ia, ia] += value
            if ib >= 0:
                mat[ib, ib] += value
            if ia >= 0 and ib >= 0:
                mat[ia, ib] -= value
                mat[ib, ia] -= value

        for cap in self.circuit.capacitors:
            stamp(self._cmat, cap.a, cap.b, cap.c)
        for res in self.circuit.resistors:
            stamp(self._gstatic, res.a, res.b, 1.0 / res.r)

        # MOS parasitic capacitances are part of the extracted network.
        mosfets = self.circuit.mosfets
        devices = [Transistor(m.kind, m.w_um) for m in mosfets]
        for mos, device in zip(mosfets, devices):
            stamp(self._cmat, mos.gate, GND, device.c_gate(self.tech))
            stamp(self._cmat, mos.drain, GND, device.c_drain(self.tech))
            stamp(self._cmat, mos.source, GND, device.c_drain(self.tech))

        # Device arrays.  Terminal index -1 (GND) reads the extra 0 V
        # slot at the end of the simulator's voltage vector.
        self._terms = np.array(
            [[self._index[m.gate] for m in mosfets],
             [self._index[m.drain] for m in mosfets],
             [self._index[m.source] for m in mosfets]],
            dtype=np.intp).reshape(3, len(mosfets))
        self._nmos = np.array([m.kind == NMOS for m in mosfets], dtype=bool)
        self._r_on = np.array([d.r_on(self.tech) for d in devices])

        # Conductance stamp list, (matrix entry, sign, device), in the
        # per-device order a scalar restamp would visit.  Only the
        # ``_touched`` entries of G ever differ from their static value.
        stamps = []
        for k, (idr, isr) in enumerate(zip(self._terms[1].tolist(),
                                           self._terms[2].tolist())):
            if idr >= 0:
                stamps.append((idr * n + idr, 1.0, k))
            if isr >= 0:
                stamps.append((isr * n + isr, 1.0, k))
            if idr >= 0 and isr >= 0:
                stamps.append((idr * n + isr, -1.0, k))
                stamps.append((isr * n + idr, -1.0, k))
        flat, sign, dev = zip(*stamps) if stamps else ((), (), ())
        self._touched, self._stamp_slot = np.unique(
            np.array(flat, dtype=np.intp), return_inverse=True)
        self._stamp_sign = np.array(sign, dtype=float)
        self._stamp_dev = np.array(dev, dtype=np.intp)
        self._g_touched = self._gstatic.reshape(-1)[self._touched]

    def _mos_conductances(self, v: np.ndarray) -> np.ndarray:
        """Per-device channel conductance at node voltages ``v`` (whose
        last entry is GND's 0 V)."""
        v_g, v_d, v_s = v[self._terms]
        drive = np.where(self._nmos, v_g - np.minimum(v_d, v_s),
                         np.maximum(v_d, v_s) - v_g)
        return switch_conductances(drive, self._r_on, self.tech)

    def _stamp(self, g_mos: np.ndarray) -> np.ndarray:
        """G at the ``_touched`` entries with the devices stamped at
        ``g_mos``, each entry summed in per-device order."""
        g_at = self._g_touched.copy()
        np.add.at(g_at, self._stamp_slot,
                  self._stamp_sign * g_mos[self._stamp_dev])
        return g_at

    # --- integration ----------------------------------------------------------

    def run(self, t_stop: float, dt: float,
            v_init: Optional[Dict[str, float]] = None,
            refactor_tol: float = 1e-3) -> TransientResult:
        """Integrate from 0 to ``t_stop`` with fixed step ``dt``.

        ``v_init`` supplies initial conditions for free nodes (default 0 V).
        Driven nodes start at their stimulus value at t=0.
        """
        if t_stop <= 0 or dt <= 0 or dt > t_stop:
            raise SimulationError("need 0 < dt <= t_stop")
        steps = int(round(t_stop / dt))
        n, nf = self._n_all, self._n_free
        # Row k holds the node voltages at step k, plus one last slot that
        # stays at 0 V for GND (index -1).  Driven columns are filled from
        # the stimuli up front; each step solves the free columns.
        history = np.zeros((steps + 1, n + 1))
        if v_init:
            for node, value in v_init.items():
                idx = self._index.get(node)
                if idx is None:
                    raise SimulationError(f"unknown node {node!r} in v_init")
                if idx >= 0:
                    history[0, idx] = value

        times = np.linspace(0.0, steps * dt, steps + 1)
        sources = [self._driven[name] for name in sorted(self._driven)]
        history[:, nf:n] = self._stimulus(sources, times)

        # G and A = C/dt + G are updated in place, at the touched entries
        # only, on every refactorization.
        c_over_dt = self._cmat / dt
        g_full = self._gstatic.copy()
        a_full = c_over_dt + g_full
        c_touched = c_over_dt.reshape(-1)[self._touched]
        c_free = c_over_dt[:nf]
        coupling = a_full[:nf, nf:]
        c_rows = list(self._cmat[nf:])
        g_rows = list(g_full[nf:])
        charge = np.zeros(len(sources))
        energy = np.zeros(len(sources))
        energy_history = np.zeros((len(sources), steps + 1))
        i_out = np.empty(len(sources))
        from scipy.linalg.lapack import dgetrs

        lu = g_last = None
        for step in range(1, steps + 1):
            row_old, row_new = history[step - 1], history[step]
            g_mos = self._mos_conductances(row_old)
            if lu is None or (
                    g_mos.size > 0
                    and np.abs(g_mos - g_last).max() > g_moved):
                g_at = self._stamp(g_mos)
                g_full.reshape(-1)[self._touched] = g_at
                a_full.reshape(-1)[self._touched] = c_touched + g_at
                lu, piv = lu_factor(a_full[:nf, :nf])
                g_last = g_mos
                g_moved = refactor_tol * (
                    np.abs(g_last).max(initial=0.0) + _GMIN)

            # Free rows of the BE system:
            #   A_ff v_new_f = (C/dt) v_old - A_fd v_new_d
            # where (C/dt) v_old spans ALL columns (the capacitor history
            # term from driven nodes included).
            v_old, v_new = row_old[:n], row_new[:n]
            if nf:
                rhs = c_free @ v_old
                if sources:
                    rhs -= coupling @ v_new[nf:]
                v_new[:nf] = dgetrs(lu, piv, rhs, overwrite_b=True)[0]

            # Source current bookkeeping: i_out = (C dv/dt + G v)_row.
            dv_dt = (v_new - v_old) / dt
            for j, (row_c, row_g) in enumerate(zip(c_rows, g_rows)):
                i_out[j] = row_c @ dv_dt + row_g @ v_new
            charge += i_out * dt
            energy += i_out * v_new[nf:] * dt
            energy_history[:, step] = energy

        voltages = {}
        for node, idx in self._index.items():
            if idx >= 0:
                voltages[node] = history[:, idx]
        voltages[GND] = np.zeros(steps + 1)
        names = [src.name for src in sources]
        return TransientResult(times, voltages,
                               dict(zip(names, energy)),
                               dict(zip(names, charge)),
                               dict(zip(names, energy_history)))

    @staticmethod
    def _stimulus(sources, times: np.ndarray) -> np.ndarray:
        """Every source's value at every time step, one column each."""
        table = np.empty((times.size, len(sources)))
        t_list = times.tolist()
        for j, src in enumerate(sources):
            if callable(src.stimulus):
                table[:, j] = [src.value(t) for t in t_list]
            else:
                table[:, j] = src.value(0.0)
            if not np.isfinite(table[:, j]).all():
                raise SimulationError(
                    f"source {src.name!r} produced a non-finite value")
        return table
