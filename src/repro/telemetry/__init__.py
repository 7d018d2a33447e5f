"""Telemetry: structured tracing, metrics, and profiling hooks.

The observability layer the rest of the repo instruments against.  One
process-global :class:`TelemetrySession` (a :class:`Tracer` plus a
:class:`MetricsRegistry`) is either installed or absent:

* **absent** (the default): instrumented code paths fall back to their
  uninstrumented form -- the kernel pays one global read per *run*,
  nothing per step, so telemetry is zero-cost when disabled (gated by
  ``benchmarks/bench_telemetry_overhead.py``);
* **installed** (via :func:`use_session` or the CLI's ``--trace`` /
  ``--metrics`` flags): the kernel times every step phase into metrics
  histograms and emits structured span/event records, backends and
  campaigns wrap themselves in spans, and the exporters
  (:mod:`repro.telemetry.export`) serialize everything as JSONL,
  Chrome ``trace_event`` JSON (loadable in Perfetto), or a
  Prometheus-style metrics dump.

Example:
    >>> from repro.telemetry import TelemetrySession, use_session
    >>> from repro.core import Instance, simulate
    >>> inst = Instance.from_percent([[50, 50], [50, 50]])
    >>> with use_session(TelemetrySession()) as session:
    ...     makespan = simulate(inst, "greedy-balance").makespan
    >>> session.metrics.counter("kernel.steps").value
    2
    >>> any(r.name == "kernel.run" for r in session.tracer.records)
    True
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .export import (
    chrome_trace,
    load_chrome_trace,
    read_jsonl,
    render_metrics,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import PHASES, phase_report
from .records import TraceRecord
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "TelemetrySession",
    "TraceRecord",
    "Tracer",
    "chrome_trace",
    "get_session",
    "load_chrome_trace",
    "phase_report",
    "read_jsonl",
    "render_metrics",
    "set_session",
    "use_session",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]


class TelemetrySession:
    """One tracer + one metrics registry, installable process-globally.

    Args:
        tracing: collect span/event records (True, the default).  A
            metrics-only session (``tracing=False``) shares the no-op
            :data:`NULL_TRACER`, so per-step span records are skipped
            while phase histograms still fill -- the ``--metrics``
            CLI mode.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(self, *, tracing: bool = True) -> None:
        self.tracer: Tracer = Tracer() if tracing else NULL_TRACER
        self.metrics = MetricsRegistry()


#: The process-global session; None = telemetry disabled.
_SESSION: TelemetrySession | None = None


def get_session() -> TelemetrySession | None:
    """The installed session, or None when telemetry is disabled.

    Instrumented layers call this once per run (never per step) and
    skip all telemetry work on None -- the zero-cost-when-disabled
    contract.
    """
    return _SESSION


def set_session(session: TelemetrySession | None) -> TelemetrySession | None:
    """Install *session* process-globally; returns the previous one."""
    global _SESSION
    previous = _SESSION
    _SESSION = session
    return previous


@contextmanager
def use_session(session: TelemetrySession) -> Iterator[TelemetrySession]:
    """Install *session* for the duration of the ``with`` block.

    Restores whatever was installed before on exit (exception-safe),
    so nested scopes and tests compose.
    """
    previous = set_session(session)
    try:
        yield session
    finally:
        set_session(previous)
