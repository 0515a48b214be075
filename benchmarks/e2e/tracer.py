"""Outside-in span tracer: wraps public callables of each layer at run time.

Installed by the traced child only.  A span is ``{id, name, start, end,
parent, run}``; spans stay in memory until the run ends.  Wrappers are
never removed — the child process exits after its one run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

Span = Dict[str, Any]


class Tracer:
    def __init__(self, run: str) -> None:
        self.run = run
        #: ``[id, name, start, end, parent]`` rows; id == index
        self._rows: List[list] = []
        self._stack: List[int] = []
        #: byte/element tallies reported next to the spans
        self.counters: Dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Span around a call the benchmark itself makes into a layer."""
        row = [len(self._rows), name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else None]
        self._rows.append(row)
        self._stack.append(row[0])
        try:
            yield
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class, a module or an instance.  ``count(args,
        result)`` adds to ``counters[name + ".bytes"]``; for methods
        wrapped on a class ``args[0]`` is ``self``.
        """
        inner = getattr(owner, attr)
        rows, stack, clock = self._rows, self._stack, time.perf_counter
        counters, key = self.counters, name + ".bytes"

        def traced(*args, **kwargs):
            row = [len(rows), name, clock(), 0.0, stack[-1] if stack else None]
            rows.append(row)
            stack.append(row[0])
            try:
                result = inner(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if count is not None:
                counters[key] += count(args, result)
            return result

        traced.__wrapped__ = inner
        # a classmethod read off its class is already bound to it: keep
        # the class out of the wrapper's positional arguments
        bound_to_class = isinstance(owner, type) and getattr(inner, "__self__", None) is owner
        setattr(owner, attr, staticmethod(traced) if bound_to_class else traced)

    # -- reading ---------------------------------------------------------
    def spans(self) -> List[Span]:
        return [
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "run": self.run}
            for i, name, start, end, parent in self._rows
        ]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def covered(intervals: Iterable[Sequence[float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Sequence[float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"]) - covered(
            # clip to the parent: a child cannot cover time outside it
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], ())
        )
        for span in spans
    }


class SpanIndex:
    """Totals over the spans of one run, restricted to a time window."""

    def __init__(self, spans: Sequence[Span], since: float = float("-inf")) -> None:
        self.all = list(spans)
        self._by_id = {s["id"]: s for s in self.all}
        self._self = self_times(self.all)
        self._by_name: Dict[str, List[Span]] = defaultdict(list)
        for span in self.all:
            if span["start"] >= since:
                self._by_name[span["name"]].append(span)

    def named(self, name: str, outermost: bool = False) -> List[Span]:
        """Spans called ``name``; ``outermost`` drops those nested in one
        of the same name (recursive layers count once)."""
        found = self._by_name.get(name, [])
        if not outermost:
            return found
        return [s for s in found if not self._has_ancestor(s, name)]

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            above = self._by_id[parent]
            if above["name"] == name:
                return True
            parent = above["parent"]
        return False

    def durations_ms(self, name: str, outermost: bool = False) -> List[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.named(name, outermost)]

    def total_ms(self, name: str, outermost: bool = False) -> float:
        return sum(self.durations_ms(name, outermost))

    def calls(self, name: str, outermost: bool = False) -> int:
        return len(self.named(name, outermost))

    def self_ms(self, name: str) -> float:
        return sum(self._self[s["id"]] for s in self.named(name)) * 1e3
