"""Hierarchical tracing: spans over every observable unit of work.

A :class:`Span` is one timed, attributed unit of work — a pipeline
stage, a brick characterization batch, a parallel task group, a cache
probe, a sweep point, a yield-analysis phase, a die measurement.  The
:class:`Tracer` maintains the open-span stack, assigns deterministic
sequential ids (parents always precede children), and retains every
closed span for export.

Determinism is a design invariant, not an accident: span ids are
allocated in open order, which is a pure function of the control flow,
and the *only* nondeterministic fields of a span are its two wall-clock
fields (``t_start_s``, ``dur_s``).  Stripping those two fields from an
exported trace therefore yields a byte-identical artifact across runs
at the same seed — the property the CI traced-flow job diffs.

Closed spans are also delivered to the session event sink as
:class:`SpanEvent` records, the same protocol that carries
:class:`~repro.session.StageEvent` and :class:`~repro.session.FaultEvent`,
so a :class:`~repro.session.RecordingSink` sees the full interleaved
stream without any new plumbing.

Traces cross process boundaries through a :class:`TraceContext` — a
tiny serializable ``(trace_id, parent ref)`` pair a client puts on the
wire, a server adopts as the remote parent of its request-root spans,
and the worker pool threads into its tasks.  Each participating tracer
names itself with a ``source`` (``client``/``server``/``worker``); the
``source:span_id`` ref is what makes parent links unambiguous once
several processes' traces are stitched into one tree
(:func:`repro.obs.export.stitch_traces`).
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple

#: Span kinds used across the codebase (informal; any string works).
KIND_STAGE = "stage"
KIND_BATCH = "batch"
KIND_CACHE = "cache"
KIND_TASK_GROUP = "task_group"
KIND_SWEEP = "sweep"
KIND_SWEEP_POINT = "sweep_point"
KIND_PHASE = "phase"
KIND_FLOW = "flow"
KIND_DIE = "die"
KIND_CORNER = "corner"
KIND_COMMAND = "command"
KIND_REQUEST = "request"
KIND_TASK = "task"


def mint_trace_id(*parts: Any) -> str:
    """A deterministic 16-hex-char trace id from ``parts``.

    Determinism is deliberate: the same client issuing the same request
    sequence mints the same trace ids, so two runs of the CI stitch job
    diff byte-identical once timing is stripped.
    """
    text = ":".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """The cross-process trace linkage: one trace id, one parent ref.

    ``parent`` is a global span reference ``source:span_id`` (e.g.
    ``client:3``) naming the span on the *sending* side that the
    receiving side's root spans should hang under.  The dict form is
    what travels in an NDJSON frame or a pickled worker task.
    """

    trace_id: str
    parent: str

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "parent": self.parent}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        """Validate a wire dict into a context (``ValueError`` on any
        malformed field, so a server can reject it as a bad request)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"trace context must be an object, got "
                f"{type(data).__name__}")
        trace_id = data.get("trace_id")
        parent = data.get("parent")
        if not isinstance(trace_id, str) or not trace_id:
            raise ValueError(
                f"trace_id must be a non-empty string, got {trace_id!r}")
        if not isinstance(parent, str) or not parent:
            raise ValueError(
                f"parent must be a non-empty span ref, got {parent!r}")
        return cls(trace_id=trace_id, parent=parent)


@dataclass
class Span:
    """One unit of work in the trace tree.

    ``span_id`` and ``parent_id`` are deterministic small integers
    (allocation order); ``t_start_s`` and ``dur_s`` are the *only*
    wall-clock-bearing fields — attributes must never carry timings so
    that timing-stripped traces diff byte-identically.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str = "span"
    attrs: Dict[str, Any] = field(default_factory=dict)
    t_start_s: float = 0.0
    dur_s: Optional[float] = None
    ok: bool = True
    error: Optional[str] = None
    #: Cross-process linkage, set only on spans that root an adopted
    #: trace: the trace id this span belongs to and the remote parent
    #: ref (``source:span_id``) it hangs under once stitched.
    trace_id: Optional[str] = None
    remote_parent: Optional[str] = None

    @property
    def closed(self) -> bool:
        return self.dur_s is not None


@dataclass(frozen=True)
class SpanEvent:
    """Sink-protocol record for one *closed* span.

    Mirrors the span's identity fields so sinks can reconstruct the
    tree; like :class:`Span`, only ``t_start_s``/``dur_s`` carry wall
    clocks.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    attrs: Dict[str, Any]
    t_start_s: float
    dur_s: float
    ok: bool = True
    error: Optional[str] = None


class Tracer:
    """Open/close spans on a stack; retain every closed span.

    One tracer serves one run (a CLI invocation, a test, a notebook
    cell); sessions derived from one another share it, so per-die or
    per-corner children nest their spans under the parent's open span.
    Not thread-safe by design: all in-process orchestration here is
    single-threaded (parallelism lives in worker *processes*, which do
    not trace).
    """

    def __init__(self, sink: Optional[Callable[[Any], None]] = None,
                 source: str = "",
                 trace_id: Optional[str] = None) -> None:
        self.sink = sink
        self.source = source
        self.trace_id = trace_id
        self.remote_parent: Optional[str] = None
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._epoch = time.perf_counter()
        # Guards id allocation during graft(): per-request and worker
        # tracers are single-threaded, but a daemon tracer absorbs
        # completed request traces from several compute threads.
        self._graft_lock = threading.Lock()

    # --- cross-process linkage -------------------------------------------

    def adopt(self, ctx: TraceContext) -> None:
        """Join a remote trace: root spans opened after this carry the
        context's trace id and hang under its parent ref when
        stitched."""
        self.trace_id = ctx.trace_id
        self.remote_parent = ctx.parent

    def ref(self, span: Span) -> str:
        """The global ``source:span_id`` reference for ``span``."""
        return f"{self.source or 'local'}:{span.span_id}"

    def task_context(self, span: Span) -> TraceContext:
        """The context a task shipped to another process should adopt,
        parenting its spans under ``span``.  Without an adopted or
        explicit trace id, one is minted deterministically from this
        tracer's identity — and stamped onto ``span`` itself, so the
        originating span carries the same trace id as every remote
        span that adopted its context."""
        trace_id = self.trace_id or mint_trace_id(
            self.source or "local", span.span_id)
        if span.trace_id is None:
            span.trace_id = trace_id
        return TraceContext(trace_id=trace_id, parent=self.ref(span))

    # --- core span lifecycle ---------------------------------------------

    def open(self, name: str, kind: str = "span",
             **attrs: Any) -> Span:
        """Open a child of the innermost open span (or a root)."""
        parent_id = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name, kind=kind, attrs=dict(attrs),
            t_start_s=time.perf_counter() - self._epoch,
            trace_id=self.trace_id if parent_id is None else None,
            remote_parent=(self.remote_parent if parent_id is None
                           else None))
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def close(self, span: Span, ok: bool = True,
              error: Optional[str] = None) -> Span:
        """Close ``span``, stamping its duration and emitting the event.

        Closes any forgotten inner spans first so the stack always
        unwinds to a consistent tree even through exceptions.
        """
        while self._stack and self._stack[-1] != span.span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        span.dur_s = (time.perf_counter() - self._epoch
                      - span.t_start_s)
        span.ok = ok
        span.error = error
        if self.sink is not None:
            self.sink(SpanEvent(
                span_id=span.span_id, parent_id=span.parent_id,
                name=span.name, kind=span.kind, attrs=dict(span.attrs),
                t_start_s=span.t_start_s, dur_s=span.dur_s,
                ok=span.ok, error=span.error))
        return span

    @contextmanager
    def span(self, name: str, kind: str = "span",
             **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("sta", kind="stage") as s: ...``

        The span closes on exit; an escaping exception marks it
        ``ok=False`` with the error text and re-raises.
        """
        opened = self.open(name, kind=kind, **attrs)
        try:
            yield opened
        except BaseException as exc:
            self.close(opened, ok=False,
                       error=f"{type(exc).__name__}: {exc}")
            raise
        else:
            self.close(opened)

    # --- queries ----------------------------------------------------------

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def children(self, span_id: Optional[int]) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def validate(self) -> None:
        """Raise ``ValueError`` unless the span list forms a valid tree
        (unique ids, every parent id exists, every span closed)."""
        ids = [span.span_id for span in self.spans]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate span ids in trace")
        known = set(ids)
        for span in self.spans:
            if span.parent_id is not None and span.parent_id not in known:
                raise ValueError(
                    f"span {span.span_id} ({span.name!r}) references "
                    f"unknown parent {span.parent_id}")
            if not span.closed:
                raise ValueError(
                    f"span {span.span_id} ({span.name!r}) never closed")

    # --- grafting ---------------------------------------------------------

    def graft(self, spans: Sequence[Span],
              request_id: Optional[str] = None,
              under: Optional[int] = None,
              keep_remote: bool = True) -> List[Span]:
        """Absorb closed spans from another tracer into this one.

        Span ids are re-allocated (preserving the subtree topology) so
        grafted spans slot into this tracer's deterministic numbering;
        roots of the grafted forest are attached under ``under`` (or
        the innermost open span, or stay roots).  ``request_id`` tags
        every grafted span's attrs, which is how a busy daemon's trace
        stays filterable per request.

        ``keep_remote`` governs the roots' cross-process linkage: a
        daemon absorbing a finished request trace keeps the roots'
        ``trace_id``/``remote_parent`` (they point at the *client*);
        a caller absorbing its own worker-pool spans passes ``False``
        because the local ``parent_id`` now carries the link and the
        remote ref would dangle after renumbering.  Thread-safe:
        several compute threads may graft concurrently.
        """
        ordered = sorted(spans, key=lambda s: s.span_id)
        with self._graft_lock:
            attach = under if under is not None else (
                self._stack[-1] if self._stack else None)
            mapping: Dict[int, int] = {}
            grafted: List[Span] = []
            for span in ordered:
                new_id = self._next_id
                self._next_id += 1
                mapping[span.span_id] = new_id
                attrs = dict(span.attrs)
                if request_id is not None:
                    attrs.setdefault("request_id", request_id)
                is_root = span.parent_id is None
                grafted.append(replace(
                    span, span_id=new_id,
                    parent_id=(mapping.get(span.parent_id, attach)
                               if not is_root else attach),
                    attrs=attrs,
                    trace_id=(span.trace_id
                              if keep_remote and is_root else None),
                    remote_parent=(span.remote_parent
                                   if keep_remote and is_root
                                   else None)))
            self.spans.extend(grafted)
        return grafted

    def evict(self, grafted: Sequence[Span]) -> None:
        """Drop the spans one earlier :meth:`graft` returned.

        A graft appends its spans as one contiguous run and eviction
        removes whole runs, so the run is found by its first span —
        near the front when the oldest graft goes first, which is how
        a long-lived daemon keeps its trace bounded.
        """
        if not grafted:
            return
        first = grafted[0]
        with self._graft_lock:
            for index, span in enumerate(self.spans):
                if span is first:
                    del self.spans[index:index + len(grafted)]
                    return


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str, kind: str = "span",
               **attrs: Any) -> Iterator[Optional[Span]]:
    """``tracer.span(...)`` when a tracer is present, else a no-op.

    The pattern every instrumented layer uses so tracing stays strictly
    opt-in: un-traced runs execute the exact same code with a ``None``
    span and zero overhead beyond one ``if``.
    """
    if tracer is None:
        yield None
        return
    with tracer.span(name, kind=kind, **attrs) as opened:
        yield opened


def aggregate_spans(spans: List[Span], kind: Optional[str] = None
                    ) -> List[Tuple[str, int, float]]:
    """``(name, calls, total_seconds)`` rows aggregated by span name.

    Rows come back in first-seen order (deterministic given a
    deterministic trace).  ``kind`` filters to one span kind.
    """
    order: List[str] = []
    calls: Dict[str, int] = {}
    totals: Dict[str, float] = {}
    for span in spans:
        if kind is not None and span.kind != kind:
            continue
        if span.name not in calls:
            order.append(span.name)
            calls[span.name] = 0
            totals[span.name] = 0.0
        calls[span.name] += 1
        totals[span.name] += span.dur_s or 0.0
    return [(name, calls[name], totals[name]) for name in order]
