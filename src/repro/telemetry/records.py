"""Structured telemetry records (the one trace schema in the codebase).

Every telemetry producer -- the kernel's span hooks, backend and
campaign instrumentation -- reduces to one record type,
:class:`TraceRecord`, so a single set of exporters
(:mod:`repro.telemetry.export`) can serialize any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceRecord"]

#: ``kind`` values a :class:`TraceRecord` may carry.
KINDS = ("span", "event")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One structured telemetry record (a timed span or instant event).

    Attributes:
        kind: ``"span"`` (has a duration) or ``"event"`` (instant).
        name: dotted record name (``"kernel.step.query"``,
            ``"backend.run"``, ``"kernel.heartbeat"``, ...).
        ts: start time in seconds since the tracer's epoch.
        dur: span duration in seconds (``None`` for instant events).
        span_id: unique id of this record within its tracer.
        parent_id: id of the enclosing span (``None`` at top level).
        attrs: structured attributes (JSON-serializable values).
    """

    kind: str
    name: str
    ts: float
    dur: float | None
    span_id: int
    parent_id: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """The record as one flat JSON-ready dict (the JSONL schema)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TraceRecord":
        """Rebuild a record from its :meth:`as_dict` form."""
        return cls(
            kind=doc["kind"],
            name=doc["name"],
            ts=float(doc["ts"]),
            dur=None if doc.get("dur") is None else float(doc["dur"]),
            span_id=int(doc["span_id"]),
            parent_id=(
                None if doc.get("parent_id") is None else int(doc["parent_id"])
            ),
            attrs=dict(doc.get("attrs") or {}),
        )
