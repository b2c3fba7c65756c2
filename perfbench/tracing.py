"""In-memory spans recorded around calls into sensetrace's layers.

The benchmark never edits the package: it swaps module attributes for
timing wrappers (``Tracer.wrap``) and restores them afterwards, so a span
covers exactly one call into a public function as the package itself makes
it. Hot leaf functions (tens of thousands of calls per pass) are aggregated
into per-name totals instead of one record per call; their time still counts
as covered by the enclosing span when its self time is computed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Optional

_clock = time.perf_counter

# Span record fields: name, start, end, parent index (-1 for a root),
# seconds covered by children.
NAME, START, END, PARENT, CHILD = range(5)


class Tracer:
    """Spans of one run, kept in memory until ``write_jsonl``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _clock(), None, parent, 0.0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        rec = self.spans[index]
        rec[END] = _clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {rec[NAME]} closed out of order")
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _leaf(self, name: str, seconds: float) -> None:
        self.leaf_s[name] += seconds
        self.counts[name] += 1
        if self._open:
            self.spans[self._open[-1]][CHILD] += seconds

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        leaf: bool = False,
        observe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper until ``restore``.

        ``observe(tracer, args, result)`` runs after each call, outside the
        timed interval, to record counts. ``leaf`` aggregates instead of
        recording one span per call.
        """
        original = getattr(owner, attr)
        tracer = self

        if leaf:
            def wrapper(*args, **kwargs):
                t0 = _clock()
                result = original(*args, **kwargs)
                tracer._leaf(name, _clock() - t0)
                if observe is not None:
                    observe(tracer, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                if observe is not None:
                    observe(tracer, args, result)
                return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every closed span called ``name``."""
        return [r[END] - r[START] for r in self.spans if r[NAME] == name and r[END] is not None]

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover.
        Leaf aggregates are their own self time."""
        out: dict[str, float] = defaultdict(float)
        for r in self.spans:
            out[r[NAME]] += (r[END] - r[START]) - r[CHILD]
        for name, seconds in self.leaf_s.items():
            out[name] += seconds
        return dict(out)

    def write_jsonl(self, path: Path, header: dict) -> None:
        """``header``, then one line per span and one per leaf aggregate."""
        lines = [json.dumps(header)] + [
            json.dumps({
                "run": self.run_id, "id": i, "name": r[NAME], "start": r[START],
                "end": r[END], "parent": None if r[PARENT] < 0 else r[PARENT],
                "self_s": (r[END] - r[START]) - r[CHILD],
            })
            for i, r in enumerate(self.spans)
        ]
        lines += [
            json.dumps({"run": self.run_id, "leaf": name, "calls": self.counts[name], "total_s": s})
            for name, s in sorted(self.leaf_s.items())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_UNTRACED = nullcontext()


class NullTracer:
    """Stand-in for untraced runs: every span is the same no-op context."""

    def span(self, name: str):
        return _UNTRACED
