"""In-memory span tracer installed from outside the program.

The tracer replaces a function under the name its caller looks it up by
(``chemfuse.pipeline.backward``, ``chemfuse.encoder.multi_head_attention``,
the ``MoleculeEncoder`` methods, ...), so the program itself is unchanged.
Each span keeps its name, start, end, parent and the unit of work (step,
row or chunk) it ran in. Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    """Spans with parents, plus counters, for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Each span is [name, start, end, parent index or None, unit id or None].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit: int | None = None
        self.unit_span: int | None = None
        self._units_begun = 0
        # Counters per unit id; None collects what runs outside any unit.
        self.unit_counts: dict[int | None, Counter] = {None: Counter()}
        self.counts: Counter = self.unit_counts[None]
        # Objects counted by ``count_repeat`` in this unit, kept alive so
        # that no other object can take over a counted one's id.
        self._seen: dict = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def open(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, self.clock() if start is None else start,
                           None, parent, self.unit])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        if not self.stack or self.stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.stack.pop()
        self.spans[idx][2] = self.clock() if end is None else end

    def begin_unit(self, name: str, start: float) -> None:
        """Open the root span of the next unit of work at ``start``."""
        self.unit = self._units_begun
        self._units_begun += 1
        self.counts = self.unit_counts[self.unit] = Counter()
        self._seen = {}
        self.unit_span = self.open(name, start)

    def end_unit(self, end: float) -> None:
        self.close(self.unit_span, end)
        self.unit = self.unit_span = None
        self.counts = self.unit_counts.setdefault(None, Counter())
        self._seen = {}

    # ------------------------------------------------------------ patching

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, owner, attr: str, name: str) -> None:
        """Trace ``owner.attr`` as ``name``. A missing function raises
        AttributeError, so a renamed layer cannot drop out of the trace."""
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def count_repeat(self, key: str, obj, detail=()) -> None:
        """Count ``key.calls`` and, if this unit already counted the same
        object (by identity) with the same ``detail``, ``key.repeats``."""
        self.counts[key + ".calls"] += 1
        item = (id(obj), detail)
        if item in self._seen:
            self.counts[key + ".repeats"] += 1
        else:
            self._seen[item] = obj

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, unit in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "unit": unit}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span are disjoint and
    their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def nesting_errors(spans: list[list], tolerance: float = 1e-9) -> int:
    """Number of spans that are unclosed or stick out of their parent."""
    bad = 0
    for _, start, end, parent, _ in spans:
        if end is None or end < start:
            bad += 1
        elif parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if p_end is None or start < p_start - tolerance or end > p_end + tolerance:
                bad += 1
    return bad
