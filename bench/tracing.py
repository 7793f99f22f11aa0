"""In-memory spans around the package's public functions.

Each traced function is replaced, in every module namespace its callers
look it up in, by a wrapper that records one span: name, operation index,
parent span, start and end.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ops: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.ops.append(self.op)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(clock())
            self.ends.append(0.0)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.ends[idx] = clock()

        return traced

    def patch(self, name: str, owners, attr: str) -> None:
        """Replace ``attr`` in each owner (module or class) by one traced
        wrapper of the value its first owner's callers see."""
        traced = self.span(name, getattr(owners[0], attr))
        for owner in owners:
            self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds
        (duration minus the time its child spans cover)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["s"] += durations[idx]
            row["self_s"] += durations[idx] - child[idx]
        return dict(out)

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, operation, parent, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in zip(self.names, self.ops, self.parents, self.starts, self.ends):
                fh.write(json.dumps(rec) + "\n")


class Proxy:
    """Stands in for a module inside one namespace: attributes set on the
    proxy shadow the module's, every other lookup falls through."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)
