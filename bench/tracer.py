"""Span recording around the public functions of cpssperso, from outside.

A span is (name, start, end, parent).  Spans live in flat in-memory arrays
while the workload runs and are summarised and written out once
it has finished.  Each function is wrapped once and the same wrapper is
installed at every place the program looks it up, because ``cli`` and
``rl_core`` bind several ``workshop_env`` functions under their own names.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """Collects spans for one process; install wrappers with ``patch``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def patch(self, name: str, sites: list[tuple[object, str]]) -> None:
        """Wrap the function found at the first (module or class, attribute)
        site and install the same wrapper at every site."""
        owner, attr = sites[0]
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        for site_owner, site_attr in sites:
            setattr(site_owner, site_attr, wrapped)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds (outermost spans of
        that name only) and self seconds (span minus its child spans)."""
        n = len(self.start)
        out: dict[str, dict[str, float]] = {}
        if n == 0:
            return out
        names, parents, start, end = self._arrays()
        dur = end - start
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        parent_name = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        outermost = parent_name != names
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names[outermost], weights=dur[outermost], minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
        return out

    def count_children(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        names, parents, _, _ = self._arrays()
        mask = (names == self._ids[child]) & (parents >= 0)
        return int(np.count_nonzero(names[parents[mask]] == self._ids[parent]))

    def write(self, path: Path) -> None:
        """Write the spans as a compressed numpy archive."""
        names, parents, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=names, parent=parents, start=start, end=end
        )

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the span columns (a view would pin the growing arrays)."""
        return (
            np.array(self.name_of, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )
