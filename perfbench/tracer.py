"""In-memory span recorder that wraps public functions of ``dmpcqp``.

Each attach point names a module and an attribute path inside it, e.g.
``("dmpcqp.fabric", "Fabric.global_reduce")``.  :meth:`Tracer.attach`
replaces the attribute with a recorder and :meth:`Tracer.detach` puts the
original back.  Because the program looks these names up at call time (module
globals and class attributes), every call made through them is recorded
without touching the program's files.

A span is (name, start, end, parent span, sample id, extra).  ``extra`` is an
optional integer taken from the call, e.g. the working-set row count of a
``condense`` call.  Spans are kept in flat arrays and written once, at exit.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import NamedTuple

import numpy as np


class SpanStats(NamedTuple):
    """Totals over all spans of one name."""

    count: int
    total_s: float
    self_s: float
    extra_sum: int
    extras: int  # spans that recorded an extra


NO_SPANS = SpanStats(0, 0.0, 0.0, 0, 0)


class Tracer:
    """Records nested spans; one tracer per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.sample = array("i")
        self.extra = array("i")
        self.current_sample = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, extra=None):
        """Return ``fn`` wrapped in a span recorder called ``name``.

        ``extra(args, result) -> int`` optionally records one integer per
        call; it runs after the span is closed, outside the timed interval.
        If it cannot read the call, the span keeps no extra.
        """
        nid = self._id(name)
        stack = self._stack

        def recorder(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.sample.append(self.current_sample)
            self.extra.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if extra is not None:
                try:
                    self.extra[idx] = int(extra(args, out))
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # the call changed shape; the extra stays absent
            return out

        return recorder

    def attach(self, points) -> list[str]:
        """Wrap every attach point that exists; return the missing names.

        ``points`` holds ``(span_name, module, attr_path, extra)`` tuples.  A
        point whose module or attribute is gone is skipped with a warning on
        stderr, so the run survives refactors of the program.
        """
        missing = []
        for name, module, path, extra in points:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"warning: attach point {module}.{path} is missing; "
                      f"metrics from span {name!r} are absent",
                      file=sys.stderr)
                missing.append(name)
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, extra))
        return missing

    def detach(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, SpanStats]:
        """Totals per span name.

        Self time is a span's duration minus the durations of its direct
        children, so nested spans are never counted twice.
        """
        name_id = np.asarray(self.name_id)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        extra = np.asarray(self.extra)
        kept = extra >= 0
        k = len(self.names)
        count = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=dur - child, minlength=k)
        extra_sum = np.bincount(name_id[kept], weights=extra[kept],
                                minlength=k)
        extras = np.bincount(name_id[kept], minlength=k)
        return {name: SpanStats(int(count[i]), float(total[i]), float(own[i]),
                                int(extra_sum[i]), int(extras[i]))
                for i, name in enumerate(self.names)}

    def count_by_sample(self, name: str) -> dict[int, int]:
        """Number of spans called ``name`` per sample id."""
        nid = self._name_ids.get(name)
        if nid is None:
            return {}
        samples = np.asarray(self.sample)[np.asarray(self.name_id) == nid]
        ids, counts = np.unique(samples, return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def write(self, path) -> None:
        """Write all spans as a compact ``.npz`` (names, times, links)."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id), start=np.array(self.start),
                 end=np.array(self.end), parent=np.array(self.parent),
                 sample=np.array(self.sample), extra=np.array(self.extra))
