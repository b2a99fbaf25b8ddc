"""In-memory span recorder for the benchmark's traced run.

The benchmark never edits the program to measure it: it wraps the
public functions of each layer from the outside (module attributes and
class attributes are replaced by timing wrappers) and records, per
wrapped name, the call count, the total time and the *self* time (the
call's duration minus the time spent in wrapped calls it made).  Coarse
calls are additionally kept as spans with parent links and the run id,
and written at exit as the span JSONL that ``repro report`` and
``repro report --chrome`` read.

Pool workers are forked from a traced parent, so they inherit the
wrappers.  An after-fork hook resets the recorder in each worker, and
the worker writes its own tallies and spans when it exits, one file per
process; the parent folds them in after the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """Per-process tallies, samples and spans of one traced run."""

    def __init__(self, run_id: str, role: str, out_dir: str) -> None:
        self.run_id = run_id
        self.role = role
        self.out_dir = out_dir
        self._lock = threading.Lock()
        self._patched: List[tuple] = []
        # Shared with forked workers: bumping it makes every process
        # drop what it recorded so far (warm-up work is not measured).
        self._generation = multiprocessing.RawValue("i", 0)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: name -> [calls, total_s, self_s]
        self.tally: Dict[str, List[float]] = {}
        #: name -> list of JSON-ready values (per-call observations)
        self.samples: Dict[str, List[Any]] = {}
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._next_id = 1
        self._epoch = time.perf_counter()
        self._seen = self._generation.value

    def new_generation(self) -> None:
        """Discard everything recorded so far, in every process."""
        with self._lock:
            self._generation.value += 1
        self._check_generation()

    def _check_generation(self) -> None:
        if self._generation.value != self._seen:
            with self._lock:
                self.tally.clear()
                self.samples.clear()
                self.spans.clear()
                self._seen = self._generation.value

    # -- recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, total_s: float, self_s: float,
            calls: int = 1) -> None:
        self._check_generation()
        with self._lock:
            entry = self.tally.get(name)
            if entry is None:
                entry = self.tally[name] = [0, 0.0, 0.0]
            entry[0] += calls
            entry[1] += total_s
            entry[2] += self_s

    def sample(self, name: str, value: Any) -> None:
        self._check_generation()
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, fn: Callable[[], Any],
              **attrs: Any) -> Any:
        """Run ``fn()`` as one recorded call (and span) of ``name``."""
        return self._call(name, True, None, fn, (), {}, attrs)

    def _call(self, name: str, keep_span: bool,
              observe: Optional[Callable], fn: Callable, args: tuple,
              kwargs: dict, attrs: Optional[dict] = None) -> Any:
        stack = self._stack()
        child = [0.0]
        parent_id = stack[-1][1] if stack else None
        span_id = None
        if keep_span:
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
        stack.append((child, span_id if keep_span else parent_id))
        start = time.perf_counter()
        ok = True
        try:
            return fn(*args, **kwargs)
        except BaseException:
            ok = False
            raise
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0][0] += dur
            self.add(name, dur, dur - child[0])
            if observe is not None:
                observe(args, kwargs, dur)
            if keep_span:
                record = {
                    "type": "span", "span_id": span_id,
                    "parent_id": parent_id, "name": name,
                    "kind": name.split(".", 1)[0],
                    "attrs": dict(attrs or {}, pid=self.pid,
                                  role=self.role),
                    "t_start_s": start - self._epoch, "dur_s": dur,
                    "ok": ok, "error": None, "trace_id": self.run_id}
                with self._lock:
                    self.spans.append(record)

    # -- wrapping ----------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             keep_span: bool = False,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        For a module-level function every ``repro.*`` module that
        imported the same object by name is patched too, so calls
        through any import path are seen.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder._call(name, keep_span, observe, original,
                                  args, kwargs)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner: Any, attr: str, original: Any,
                 wrapper: Any) -> None:
        targets = [owner]
        if not isinstance(owner, type):
            targets += [module for key, module in
                        list(sys.modules.items())
                        if key.startswith("repro") and module is not owner
                        and getattr(module, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapper)
            self._patched.append((target, attr, original))

    def wrap_iterator(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a generator function so that each ``next()`` the
        caller blocks in is recorded as one call of ``name``."""
        original = getattr(owner, attr)
        recorder = self

        def step(iterator):
            return next(iterator)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            try:
                while True:
                    try:
                        item = recorder._call(name, False, None, step,
                                              (iterator,), {})
                    except StopIteration:
                        return
                    yield item
            finally:
                iterator.close()  # an early stop shuts the pool now

        self._install(owner, attr, original, wrapper)

    def unwrap(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------

    def dump(self) -> str:
        """Write this process's tallies/samples and its span JSONL."""
        os.makedirs(self.out_dir, exist_ok=True)
        stem = os.path.join(self.out_dir,
                            f"{self.run_id}-{self.role}-{self.pid}")
        with self._lock:
            payload = {"run_id": self.run_id, "role": self.role,
                       "pid": self.pid, "tally": self.tally,
                       "samples": self.samples}
            spans = sorted(self.spans, key=lambda s: s["span_id"])
        with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "trace_meta",
                                 "source": f"{self.role}-{self.pid}"})
                     + "\n")
            for record in spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return stem

    def follow_forks(self, on_child: Optional[Callable] = None) -> None:
        """Reset this recorder in ``multiprocessing`` children and dump
        it when such a child exits."""
        from multiprocessing import util

        def after_fork(recorder: "Recorder") -> None:
            recorder._reset()
            recorder.role = "worker"
            util.Finalize(None, recorder.dump, exitpriority=100)
            if on_child is not None:
                on_child()

        # Runs inside the child's bootstrap, after multiprocessing has
        # cleared the finalizers inherited from the parent.
        util.register_after_fork(self, after_fork)


def load_dumps(out_dir: str, run_id: str) -> List[Dict[str, Any]]:
    """Every ``*.layers.json`` payload a run left in ``out_dir``."""
    found = []
    if not os.path.isdir(out_dir):
        return found
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith(run_id + "-") and \
                entry.endswith(".layers.json"):
            with open(os.path.join(out_dir, entry),
                      encoding="utf-8") as fh:
                found.append(json.load(fh))
    return found


def fold(dumps: List[Dict[str, Any]], roles=None
         ) -> Dict[str, List[float]]:
    """Sum tallies over processes (optionally only some roles)."""
    total: Dict[str, List[float]] = {}
    for dump in dumps:
        if roles is not None and dump["role"] not in roles:
            continue
        for name, (calls, tot, self_s) in dump["tally"].items():
            entry = total.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += tot
            entry[2] += self_s
    return total
