"""The statistical signoff engine: Monte Carlo PVT x defect yield.

The paper validates its estimated libraries against fabricated chips
whose speeds spread across process variation (Fig. 4b); production
signoff needs that spread as a *distribution*, not a point.  This
engine draws an N-thousand-sample population of PVT perturbations from
the counter-based streams of :mod:`repro.signoff.rng`, crosses every
sample with a manufacturing-defect draw (:mod:`repro.faults`) and the
best/nominal/worst corner grid, and reduces to timing/energy/leakage
distributions (P50/P95/P99.9 + bootstrap CIs) plus raw/repaired yield.

Pricing rides the closed-form scaling law: under
``Technology.scaled(r, c, v, l)`` every delay scales by ``r*c``, every
energy by ``c*v**2`` and leakage by ``l*v``, so one cached estimate
per corner prices the whole population as numpy column ops — no
per-sample compile.  The defect draw and its repair check are the
per-sample Python, run inside chunk workers fanned over
:func:`repro.perf.parallel.parallel_imap`.  Most dies draw no defect,
and a clean die costs little beyond seeding its ``random.Random``
(about 8 µs of the ~15 µs per die on a 2-core Xeon VM, CPython 3.11):
the sampler skips the position draw of a zero count and the repair
check returns at once for a perfect brick.

Robustness is the headline:

* every chunk checkpoints into ``perf.cache`` under the plan
  fingerprint — a killed signoff resumes warm, byte-identical;
* an adaptive early-stop ends the stream when the relative 95 % CI
  half-width of the lead metric crosses ``ci_target`` (hard sample
  cap = ``n_samples``), evaluated over the *contiguous chunk prefix*
  in index order so the decision is independent of completion order;
* chunk failures degrade under ``keep_going`` into
  ``SignoffReport.failures`` (and are checkpointed, so a resumed
  report reproduces them) instead of aborting the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bricks.spec import BrickSpec
from ..errors import SignoffError
from ..faults.defects import DefectModel, inject
from ..faults.repair import RepairPlan, apply_repair
from ..obs.trace import maybe_span
from ..perf.characterize import _executor_fault_sink, cached_estimate
from ..perf.fingerprint import cache_key
from ..perf.parallel import TaskFailure, TraceTap, parallel_imap
from ..perf.timer import Stopwatch
from ..session import FaultEvent, Session
from ..silicon.variation import VariationModel
from ..tech.corners import corner
from ..units import format_si
from . import rng as streams
from .sampling import pvt_columns
from .stats import N_BOOT, ci_half_width, proportion_summary, summarize

#: Default population and chunking (2000 samples in 256-sample chunks).
DEFAULT_SAMPLES = 2000
DEFAULT_CHUNK = 256

#: Corner grid of a default signoff (Fig. 4b's three cases).
DEFAULT_CORNERS = ("nominal", "best", "worst")

#: Metrics reduced per corner, in report order.  Each maps to the
#: corner-base column it scales from.
REPORT_METRICS = ("read_delay", "read_energy", "write_energy",
                  "leakage_w")

#: Callback observing chunk completion: ``progress(done, total,
#: chunk_record)``.
ProgressCallback = Callable[[int, int, object], None]


@dataclass(frozen=True)
class SignoffPlan:
    """The pure planning half of a signoff run.

    Cheap to build (no pricing, no cache traffic): the serve layer
    calls it per request just to learn the coalescing ``fingerprint``.
    ``chunks`` is the ``(start, stop)`` slicing of the sample stream.
    """

    spec: BrickSpec
    stack: int
    n_samples: int
    chunk_size: int
    ci_target: Optional[float]
    corners: Tuple[str, ...]
    model: VariationModel
    defects: DefectModel
    repair: RepairPlan
    seed: int
    stream_key: int
    chunks: Tuple[Tuple[int, int], ...]
    fingerprint: str

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)


@dataclass(frozen=True)
class ChunkResult:
    """One completed chunk: PVT scale columns + defect outcomes for
    global samples ``[start, stop)``.  Checkpointed verbatim."""

    chunk: int
    start: int
    stop: int
    r_scale: np.ndarray
    c_scale: np.ndarray
    vdd_scale: np.ndarray
    leak_scale: np.ndarray
    derate: np.ndarray        # unrepaired read-path defect derate
    raw_ok: np.ndarray        # bool: die has zero defects
    repaired_ok: np.ndarray   # bool: die salvageable under the plan
    defect_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ChunkFailure:
    """A chunk whose worker died (kept only under ``keep_going``).
    Checkpointed like a result so resumed reports reproduce it."""

    chunk: int
    start: int
    stop: int
    error: str

    @property
    def label(self) -> str:
        return f"chunk[{self.start}:{self.stop})"


def chunk_checkpoint_key(fingerprint: str, keep_going: bool,
                         chunk: int) -> str:
    """Cache key of one chunk's checkpoint under a plan fingerprint."""
    return cache_key("signoff-chunk", fingerprint, keep_going, chunk)


def chunk_bounds(n_samples: int,
                 chunk_size: int) -> List[Tuple[int, int]]:
    """Slice ``[0, n_samples)`` into ``chunk_size`` chunks."""
    return [(start, min(start + chunk_size, n_samples))
            for start in range(0, n_samples, chunk_size)]


def _chunk_worker(task: Tuple) -> ChunkResult:
    """Price one chunk of the sample stream (module-level: picklable).

    PVT columns come vectorized from the counter streams; the defect
    draw is per-sample from a ``random.Random`` seeded by the global
    sample index, so any chunking or worker count sees the same dies.
    Seeding that generator is most of a clean die's cost: it draws four
    zero Poisson counts, builds no defect and skips repair allocation.
    """
    (spec, model, defects, repair, chunk, start, stop, key) = task
    cols = pvt_columns(model, key, start, stop)
    n = stop - start
    derate = np.ones(n, dtype=np.float64)
    raw_ok = np.zeros(n, dtype=bool)
    repaired_ok = np.zeros(n, dtype=bool)
    counts: Dict[str, int] = {}
    for i in range(n):
        die = random.Random(f"{key}:defect:{start + i}")
        faulty = inject(spec, defects, die)
        for defect in faulty.defects:
            counts[defect.kind] = counts.get(defect.kind, 0) + 1
        raw_ok[i] = faulty.is_perfect
        repaired_ok[i] = apply_repair(faulty, repair).ok
        derate[i] = faulty.delay_derate(defects)
    return ChunkResult(
        chunk=chunk, start=start, stop=stop,
        r_scale=cols["r_scale"], c_scale=cols["c_scale"],
        vdd_scale=cols["vdd_scale"], leak_scale=cols["leak_scale"],
        derate=derate, raw_ok=raw_ok, repaired_ok=repaired_ok,
        defect_counts=counts)


@dataclass
class SignoffReport:
    """The reduced signoff: distributions, yield, failures.

    :meth:`render` is deterministic — it never prints wall-clock or
    resume counts, so an interrupted-and-resumed run at any ``--jobs``
    is byte-identical to an uninterrupted one.
    """

    spec_name: str
    memory_type: str
    words: int
    bits: int
    stack: int
    tech_name: str
    seed: int
    n_samples: int        # planned population (the hard cap)
    chunk_size: int
    ci_target: Optional[float]
    corners: Tuple[str, ...]
    samples_used: int     # samples in the evaluated chunk prefix
    samples_ok: int       # of those, samples from healthy chunks
    chunks_total: int
    chunks_used: int
    resumed_chunks: int
    early_stopped: bool
    achieved_ci: float
    metrics: Dict[str, Dict[str, Dict[str, float]]]  # corner->metric
    raw_yield: Dict[str, float]
    repaired_yield: Dict[str, float]
    defect_counts: Dict[str, int]
    failures: List[ChunkFailure] = field(default_factory=list)
    wall_clock_s: float = 0.0

    _UNITS = {"read_delay": "s", "read_energy": "J",
              "write_energy": "J", "leakage_w": "W"}

    def render(self) -> str:
        """Deterministic human-readable report (stdout-safe)."""
        lines = [
            f"signoff report: {self.spec_name} x{self.stack} stack "
            f"@ {self.tech_name}",
            f"  plan: {self.n_samples} samples in "
            f"{self.chunks_total} chunks of {self.chunk_size}, "
            f"seed {self.seed}, corners {'/'.join(self.corners)}",
            f"  used: {self.samples_ok}/{self.samples_used} samples "
            f"({self.chunks_used}/{self.chunks_total} chunks)",
        ]
        ci = (f"{self.achieved_ci * 100.0:.3f}%"
              if np.isfinite(self.achieved_ci) else "n/a")
        if self.ci_target is not None:
            target = f"{self.ci_target * 100.0:.3f}%"
            if self.early_stopped:
                lines.append(
                    f"  early-stop: engaged at "
                    f"{self.samples_used} samples "
                    f"(relative CI {ci} <= target {target})")
            else:
                lines.append(
                    f"  early-stop: not engaged "
                    f"(relative CI {ci} at sample cap, "
                    f"target {target})")
        else:
            lines.append(
                f"  early-stop: off (relative CI {ci} at sample cap)")
        for name in self.corners:
            lines.append(f"  corner {name}:")
            for metric in REPORT_METRICS:
                s = self.metrics[name][metric]
                unit = self._UNITS[metric]
                lines.append(
                    f"    {metric:<12s} mean "
                    f"{format_si(s['mean'], unit)}  "
                    f"ci95 [{format_si(s['ci_lo'], unit)}, "
                    f"{format_si(s['ci_hi'], unit)}]  "
                    f"p50 {format_si(s['p50'], unit)}  "
                    f"p95 {format_si(s['p95'], unit)}  "
                    f"p99.9 {format_si(s['p99_9'], unit)}")
        raw, rep = self.raw_yield, self.repaired_yield
        lines.append(
            f"  yield: raw {raw['rate']:.4f} "
            f"[{raw['ci_lo']:.4f}, {raw['ci_hi']:.4f}] -> repaired "
            f"{rep['rate']:.4f} "
            f"[{rep['ci_lo']:.4f}, {rep['ci_hi']:.4f}]")
        if self.defect_counts:
            lines.append("  defects sampled:")
            for kind in sorted(self.defect_counts):
                lines.append(
                    f"    {kind:<16s} {self.defect_counts[kind]}")
        else:
            lines.append("  defects sampled: none")
        if self.failures:
            lines.append(
                f"  failed chunks ({len(self.failures)}):")
            for failure in self.failures:
                lines.append(
                    f"    {failure.label}: {failure.error}")
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        """JSON-ready payload (deterministic fields only)."""
        return {
            "spec": self.spec_name,
            "memory_type": self.memory_type,
            "words": self.words,
            "bits": self.bits,
            "stack": self.stack,
            "tech": self.tech_name,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "chunk_size": self.chunk_size,
            "ci_target": self.ci_target,
            "corners": list(self.corners),
            "samples_used": self.samples_used,
            "samples_ok": self.samples_ok,
            "chunks_total": self.chunks_total,
            "chunks_used": self.chunks_used,
            "early_stopped": self.early_stopped,
            "achieved_ci": (self.achieved_ci
                            if np.isfinite(self.achieved_ci)
                            else None),
            "metrics": self.metrics,
            "raw_yield": self.raw_yield,
            "repaired_yield": self.repaired_yield,
            "defect_counts": dict(sorted(
                self.defect_counts.items())),
            "failures": [{"chunk": f.chunk, "start": f.start,
                          "stop": f.stop, "error": f.error}
                         for f in self.failures],
        }


class SignoffEngine:
    """Plan and run one Monte Carlo signoff.

    Construction resolves a :class:`~repro.session.Session` exactly
    like the other engines (``tech``/``jobs``/``cache`` shims
    accepted).  Typical use::

        engine = SignoffEngine(session, memory_type="8T", words=16,
                               bits=10, n_samples=2000,
                               ci_target=0.01)
        report = engine.run()      # resumable, early-stopping
        print(report.render())
    """

    def __init__(self, session: Optional[Session] = None, *,
                 tech=None, jobs: Optional[int] = None, cache=None,
                 spec: Optional[BrickSpec] = None,
                 memory_type: str = "8T", words: int = 16,
                 bits: int = 10, stack: int = 1,
                 n_samples: int = DEFAULT_SAMPLES,
                 chunk_size: int = DEFAULT_CHUNK,
                 ci_target: Optional[float] = None,
                 corners: Sequence[str] = DEFAULT_CORNERS,
                 model: Optional[VariationModel] = None,
                 defects: Optional[DefectModel] = None,
                 repair: Optional[RepairPlan] = None) -> None:
        self.session = Session.ensure(session, tech=tech, jobs=jobs,
                                      cache=cache)
        self.spec = spec if spec is not None else BrickSpec(
            memory_type, words, bits)
        if stack < 1:
            raise SignoffError(f"stack must be >= 1, got {stack}")
        if n_samples < 1:
            raise SignoffError(
                f"n_samples must be >= 1, got {n_samples}")
        if chunk_size < 1:
            raise SignoffError(
                f"chunk_size must be >= 1, got {chunk_size}")
        if ci_target is not None and not ci_target > 0.0:
            raise SignoffError(
                f"ci_target must be > 0, got {ci_target}")
        self.corners = tuple(corners)
        if not self.corners:
            raise SignoffError("need at least one corner")
        for name in self.corners:
            corner(name)  # raises on unknown names
        self.stack = stack
        self.n_samples = n_samples
        self.chunk_size = chunk_size
        self.ci_target = ci_target
        self.model = model if model is not None else VariationModel()
        self.defects = (defects if defects is not None
                        else DefectModel())
        self.repair = repair if repair is not None else RepairPlan()
        self._plan: Optional[SignoffPlan] = None
        self._resumed = 0

    # -- planning ----------------------------------------------------

    def plan(self) -> SignoffPlan:
        """Lay out and fingerprint the run (pure, cached)."""
        if self._plan is not None:
            return self._plan
        session = self.session
        salt = f"signoff:{self.spec.name}:s{self.stack}"
        key = streams.stream_key(session.seed, salt)
        chunks = tuple(chunk_bounds(self.n_samples, self.chunk_size))
        fp = cache_key(
            "signoff-plan", self.spec, self.stack, self.n_samples,
            self.chunk_size, self.ci_target, list(self.corners),
            self.model, self.defects, self.repair, session.tech,
            session.seed)
        self._plan = SignoffPlan(
            spec=self.spec, stack=self.stack,
            n_samples=self.n_samples, chunk_size=self.chunk_size,
            ci_target=self.ci_target, corners=self.corners,
            model=self.model, defects=self.defects,
            repair=self.repair, seed=session.seed, stream_key=key,
            chunks=chunks, fingerprint=fp)
        return self._plan

    # -- execution ---------------------------------------------------

    def run(self, keep_going: bool = False, resume: bool = True,
            progress: Optional[ProgressCallback] = None
            ) -> SignoffReport:
        """Stream the sample chunks and reduce to a report.

        ``resume=True`` (default) reuses per-chunk checkpoints from
        the session cache — a killed run only re-prices chunks that
        never completed.  ``keep_going`` converts chunk-worker crashes
        into :class:`ChunkFailure` records.  The early-stop rule
        evaluates the contiguous chunk prefix in index order, so the
        stopping point (and therefore the report) is identical at any
        worker count or resume history.
        """
        plan = self.plan()
        session = self.session
        cache = session.cache
        bases = self._corner_bases()
        lead = bases[plan.corners[0]]["read_delay"]
        watch = Stopwatch()
        collected: Dict[int, Union[ChunkResult, ChunkFailure]] = {}
        self._resumed = 0
        done = 0

        # Early-stop bookkeeping over the contiguous chunk prefix.
        state = {"evaluated": 0, "n": 0, "sum": 0.0, "sumsq": 0.0,
                 "achieved": float("inf"), "stop_at": None}

        def fold_prefix() -> None:
            """Extend the evaluated prefix while chunks are ready."""
            while (state["stop_at"] is None
                   and state["evaluated"] in collected):
                record = collected[state["evaluated"]]
                if isinstance(record, ChunkResult):
                    delay = (lead * record.r_scale * record.c_scale
                             * record.derate)
                    state["n"] += delay.shape[0]
                    state["sum"] += float(delay.sum())
                    state["sumsq"] += float((delay * delay).sum())
                state["evaluated"] += 1
                state["achieved"] = ci_half_width(
                    state["n"], state["sum"], state["sumsq"])
                if session.metrics is not None and np.isfinite(
                        state["achieved"]):
                    session.metrics.gauge("signoff.ci_width").set(
                        state["achieved"])
                if (plan.ci_target is not None
                        and state["achieved"] <= plan.ci_target):
                    state["stop_at"] = state["evaluated"]

        with maybe_span(session.tracer, "signoff", kind="signoff",
                        spec=plan.spec.name, stack=plan.stack,
                        n_samples=plan.n_samples,
                        chunks=plan.n_chunks) as span:
            todo: List[int] = []
            for index in range(plan.n_chunks):
                if resume and cache is not None:
                    hit, value = cache.get(
                        chunk_checkpoint_key(plan.fingerprint,
                                             keep_going, index),
                        expect=(ChunkResult, ChunkFailure))
                    if hit:
                        done += 1
                        self._resumed += 1
                        collected[index] = value
                        self._note_chunk(value, resumed=True)
                        if progress is not None:
                            progress(done, plan.n_chunks, value)
                        fold_prefix()
                        continue
                todo.append(index)
            if span is not None:
                span.attrs.update(resumed_chunks=self._resumed)
            if state["stop_at"] is None and todo:
                tasks = [(plan.spec, plan.model, plan.defects,
                          plan.repair, index, plan.chunks[index][0],
                          plan.chunks[index][1], plan.stream_key)
                         for index in todo]
                on_fault = _executor_fault_sink(session.sink)
                tap = (TraceTap.for_span(session.tracer, span)
                       if span is not None else None)
                for position, result in parallel_imap(
                        _chunk_worker, tasks, jobs=session.jobs,
                        pool=session.pool, on_fault=on_fault,
                        return_errors=keep_going, trace=tap):
                    index = todo[position]
                    if isinstance(result, TaskFailure):
                        start, stop = plan.chunks[index]
                        record: Union[ChunkResult, ChunkFailure] = \
                            ChunkFailure(chunk=index, start=start,
                                         stop=stop,
                                         error=result.error)
                    else:
                        record = result
                    done += 1
                    collected[index] = record
                    if cache is not None:
                        cache.put(chunk_checkpoint_key(
                            plan.fingerprint, keep_going, index),
                            record)
                    self._note_chunk(record, resumed=False)
                    if progress is not None:
                        progress(done, plan.n_chunks, record)
                    fold_prefix()
                    if state["stop_at"] is not None:
                        break  # generator close shuts the pool down
            if span is not None:
                span.attrs.update(chunks_done=done,
                                  early_stopped=state["stop_at"]
                                  is not None)
        used = (state["stop_at"] if state["stop_at"] is not None
                else plan.n_chunks)
        return self._reduce(plan, bases, collected, used,
                            state["achieved"],
                            state["stop_at"] is not None,
                            watch.elapsed())

    # -- internals ---------------------------------------------------

    def _corner_bases(self) -> Dict[str, Dict[str, float]]:
        """Price the brick once per corner (cached, scalar path).

        Every per-sample metric is these bases times pure scale
        columns, per the closed-form scaling law: delay ~ r*c,
        energy ~ c*v^2, leakage ~ l*v.
        """
        session = self.session
        bases: Dict[str, Dict[str, float]] = {}
        for name in self.corners:
            tech = corner(name).apply(session.tech)
            perf = cached_estimate(self.spec, tech, self.stack,
                                   cache=session.cache)
            bases[name] = {
                "read_delay": perf.read_delay,
                "read_energy": perf.read_energy,
                "write_energy": perf.write_energy,
                "leakage_w": perf.leakage_w,
            }
        return bases

    def _note_chunk(self, record, resumed: bool) -> None:
        """Per-chunk observability: span + counters + fault events."""
        session = self.session
        failed = isinstance(record, ChunkFailure)
        if session.tracer is not None:
            pspan = session.tracer.open(
                f"chunk[{record.start}:{record.stop}]",
                kind="signoff_chunk", chunk=record.chunk,
                resumed=resumed, failed=failed)
            session.tracer.close(pspan, ok=not failed)
        if session.metrics is not None:
            session.metrics.counter("signoff.chunks_done").inc()
            if resumed:
                session.metrics.counter(
                    "signoff.chunks_resumed").inc()
            if not failed:
                session.metrics.counter("signoff.samples").inc(
                    record.n_samples)
        if failed and not resumed:
            session.emit(FaultEvent(
                domain="signoff", name=record.label,
                index=record.chunk, error=record.error,
                recovered=True))

    def _reduce(self, plan: SignoffPlan,
                bases: Dict[str, Dict[str, float]],
                collected: Dict[int,
                                Union[ChunkResult, ChunkFailure]],
                used: int, achieved: float, early_stopped: bool,
                wall_clock_s: float) -> SignoffReport:
        """Assemble the evaluated prefix into the final report."""
        results: List[ChunkResult] = []
        failures: List[ChunkFailure] = []
        for index in range(used):
            record = collected.get(index)
            if record is None:
                raise SignoffError(
                    f"chunk {index} never completed "
                    f"(of {used} evaluated)")
            if isinstance(record, ChunkFailure):
                failures.append(record)
            else:
                results.append(record)
        if not results:
            raise SignoffError(
                f"every signoff chunk failed ({len(failures)} "
                f"failures; first: {failures[0].error})"
                if failures else "signoff evaluated no chunks")
        cat = {name: np.concatenate(
            [getattr(r, name) for r in results])
            for name in ("r_scale", "c_scale", "vdd_scale",
                         "leak_scale", "derate", "raw_ok",
                         "repaired_ok")}
        samples_ok = int(cat["derate"].shape[0])
        samples_used = sum(
            stop - start for start, stop in plan.chunks[:used])
        boot_key = streams.stream_key(
            plan.seed,
            f"signoff-boot:{plan.spec.name}:s{plan.stack}")
        # One paired-bootstrap index matrix shared by every metric:
        # generating the resample stream costs more than reducing one
        # metric, and shared resamples make the CIs comparable.
        boot_idx = (streams.resample_indices(boot_key, samples_ok,
                                             n_boot=N_BOOT)
                    if samples_ok > 1 else None)
        v2 = cat["vdd_scale"] * cat["vdd_scale"]
        metrics: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name in plan.corners:
            base = bases[name]
            columns = {
                "read_delay": (base["read_delay"] * cat["r_scale"]
                               * cat["c_scale"] * cat["derate"]),
                "read_energy": (base["read_energy"]
                                * cat["c_scale"] * v2),
                "write_energy": (base["write_energy"]
                                 * cat["c_scale"] * v2),
                "leakage_w": (base["leakage_w"] * cat["leak_scale"]
                              * cat["vdd_scale"]),
            }
            metrics[name] = {}
            for metric in REPORT_METRICS:
                metrics[name][metric] = summarize(
                    columns[metric], key=boot_key, idx=boot_idx)
        raw_yield = proportion_summary(cat["raw_ok"], boot_key,
                                       idx=boot_idx)
        repaired_yield = proportion_summary(cat["repaired_ok"],
                                            boot_key, idx=boot_idx)
        defect_counts: Dict[str, int] = {}
        for record in results:
            for kind, count in record.defect_counts.items():
                defect_counts[kind] = (defect_counts.get(kind, 0)
                                       + count)
        session = self.session
        return SignoffReport(
            spec_name=plan.spec.name,
            memory_type=plan.spec.memory_type,
            words=plan.spec.words, bits=plan.spec.bits,
            stack=plan.stack, tech_name=session.tech.name,
            seed=plan.seed, n_samples=plan.n_samples,
            chunk_size=plan.chunk_size, ci_target=plan.ci_target,
            corners=plan.corners, samples_used=samples_used,
            samples_ok=samples_ok, chunks_total=plan.n_chunks,
            chunks_used=used, resumed_chunks=self._resumed,
            early_stopped=early_stopped, achieved_ci=achieved,
            metrics=metrics, raw_yield=raw_yield,
            repaired_yield=repaired_yield,
            defect_counts=defect_counts, failures=failures,
            wall_clock_s=wall_clock_s)


def run_signoff(session: Optional[Session] = None,
                **kwargs) -> SignoffReport:
    """One-call convenience: build an engine and run it.

    ``keep_going``/``resume``/``progress`` route to
    :meth:`SignoffEngine.run`; everything else to the constructor.
    """
    run_args = {name: kwargs.pop(name)
                for name in ("keep_going", "resume", "progress")
                if name in kwargs}
    return SignoffEngine(session, **kwargs).run(**run_args)
