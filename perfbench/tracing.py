"""Outside-in tracing: timing wrappers rebound over the program's public names.

The program under test is not edited.  Instead, for the traced run the
benchmark rebinds the names a calling module looks up (for example
``repro.service.engine.restore_runtime`` or the ``run`` attribute of a
backend class) to wrappers that record one span per call, and restores
the originals afterwards.  Spans live in memory and are written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    """One timed call: name, start/end (perf_counter s), parent span, operation id."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None

    @property
    def dur(self) -> float:
        """Wall seconds the call took."""
        return self.end - self.start


class Tracer:
    """Collects spans from rebound callables; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)

    def _open(self) -> tuple[int, int | None, float]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, sid: int, name: str, parent: int | None, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self._op))

    @contextmanager
    def op(self, op_id: str, name: str) -> Iterator[None]:
        """A root span for one benchmark operation; spans inside carry *op_id*."""
        self._op = op_id
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, name, parent, start)
            self._op = None

    def wrap(
        self, fn: Callable, name: str, on_return: Callable | None = None
    ) -> Callable:
        """A span-recording wrapper of *fn*; ``on_return(args, result)`` sees each result."""

        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, parent, start)
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(
        self, owner: Any, attr: str, name: str, on_return: Callable | None = None
    ) -> None:
        """Rebind ``owner.attr`` to a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_return))

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def busy(self, name: str) -> float:
        """Total seconds inside spans called *name*."""
        return sum(s.dur for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        """Number of spans called *name*."""
        return sum(1 for s in self.spans if s.name == name)

    def child_time(self) -> dict[int, float]:
        """Seconds each span spent in its direct children."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.dur
        return child

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds = total - children)."""
        child = self.child_time()
        table: dict[str, tuple[int, float, float]] = {}
        for s in self.spans:
            calls, total, own = table.get(s.name, (0, 0.0, 0.0))
            table[s.name] = (calls + 1, total + s.dur, own + s.dur - child.get(s.id, 0.0))
        return table

    def attributed_frac(self) -> float:
        """Share of root-span time covered by wrapped child calls."""
        child = self.child_time()
        roots = [s for s in self.spans if s.parent is None]
        total = sum(s.dur for s in roots)
        covered = sum(child.get(s.id, 0.0) for s in roots)
        return covered / total if total > 0 else 0.0

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
