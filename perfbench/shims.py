"""Timing shims for the traced run.

The benchmark measures layers from outside: it wraps the program's
public functions in shims that record a span per call, installed into
every ``repro`` module that references the function (``from x import f``
makes a second reference the shim must also replace) and removed again
afterwards.  Nothing under ``src/`` changes.

A span is ``(span_id, name, start_s, end_s, parent_id, request_id)``.
Spans are kept in memory (up to a cap) and written out at the end; the
per-name aggregates — calls, inclusive time and self time (inclusive
time minus the time of child spans) — are kept for every call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Spans kept verbatim; aggregates keep counting past the cap.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: name -> [calls, inclusive_s, self_s], over every call and over
        #: the calls made inside op spans (not from the output checks)
        self.totals: dict[str, list] = {}
        self.op_totals: dict[str, list] = {}
        #: calls made inside op spans, for the count-only shims
        self.counts: dict[str, int] = {}
        self.in_op = False
        self.absent: list[str] = []
        #: layer -> self time of spans that ran inside an op span
        self.in_op_self_s: dict[str, float] = {}
        self.op_s = 0.0
        self.request_id: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, op: bool = False) -> list:
        stack = self._stack()
        in_op = op or bool(stack and stack[-1][2])
        self.in_op = in_op
        # id, child time, in-op flag, start
        frame = [next(self._ids), 0.0, in_op, time.perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, child_s, in_op, start = frame
        duration = end - start
        scopes = (self.totals, self.op_totals) if in_op else (self.totals,)
        for scope in scopes:
            total = scope.get(name)
            if total is None:
                total = scope[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - child_s
        if in_op:
            layer = name.split(".", 1)[0]
            self.in_op_self_s[layer] = (
                self.in_op_self_s.get(layer, 0.0) + duration - child_s
            )
            if not stack:
                self.op_s += duration
        parent = stack[-1] if stack else None
        self.in_op = parent is not None and parent[2]
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end,
                 parent[0] if parent is not None else None, self.request_id)
            )

    @contextmanager
    def span(self, name: str, *, op: bool = False):
        """A span opened by the benchmark itself around an op (``op=True``)
        or a call site inside one."""
        frame = self._enter(op)
        try:
            yield
        finally:
            self._exit(name, frame)

    def wrap(self, name: str, fn):
        """A span-recording shim around *fn*."""
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)

        return shim

    def counting(self, name: str, fn):
        """A call counter without a span, for functions too hot to time;
        it counts only calls made inside op spans."""
        tracer = self
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if tracer.in_op:
                counts[name] += 1
            return fn(*args, **kwargs)

        return shim

    # -- installation ----------------------------------------------------

    def install(self, targets: dict[str, tuple[str, str]], *, count_only=()):
        """Wrap each ``name -> (module, qualified attribute)`` target.

        A module function is replaced in every loaded ``repro`` module
        whose namespace holds it; a method is replaced on its class.  A
        target that cannot be resolved is recorded in ``absent``.
        """
        for name, (module_name, qualname) in targets.items():
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            make = self.counting if name in count_only else self.wrap
            shim = make(name, original)
            if path:
                self._patch(owner, attr, original, shim)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                module_id = getattr(module, "__name__", "") or ""
                if namespace is None or not module_id.startswith(
                    ("repro", "perfbench")
                ):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, original, shim)

    def _patch(self, owner, attr: str, original, shim) -> None:
        setattr(owner, attr, shim)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- read-out --------------------------------------------------------

    def calls(self, name: str, *, in_op: bool = False) -> int:
        return (self.op_totals if in_op else self.totals).get(name, (0,))[0]

    def inclusive_s(self, name: str, *, in_op: bool = False) -> float:
        return (self.op_totals if in_op else self.totals).get(name, (0, 0.0))[1]

    def self_s(self, name: str, *, in_op: bool = False) -> float:
        return (self.op_totals if in_op else self.totals).get(name, (0, 0, 0.0))[2]

    def mean_ms(self, name: str, *, in_op: bool = False) -> float:
        """Mean inclusive time of one call."""
        calls, inclusive_s, _ = (self.op_totals if in_op else self.totals).get(
            name, (0, 0.0, 0.0))
        return inclusive_s / calls * 1e3 if calls else 0.0

    def layer_share(self, layer: str) -> float:
        """Share of op time spent in *layer*'s own code (its self time
        inside op spans; the span name's first component is its layer)."""
        return self.in_op_self_s.get(layer, 0.0) / self.op_s if self.op_s else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")
