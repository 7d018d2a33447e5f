"""The always-on scheduling service: event-driven incremental runs.

:class:`SchedulingService` keeps one live kernel runtime for its whole
life and reacts to arrival events instead of re-simulating from
``t=0``:

1. **advance** the live runtime to the arrival step (an idle gap after
   the workload drained moves the clock in place, never simulated);
2. **place** the job -- a new logical queue while the service is
   below ``max_queues``, otherwise the lowest-indexed queue whose
   backlog is within :data:`PLACEMENT_TOL` of the least (backlogs come
   from per-queue prefix sums, so the query costs ``O(m)``);
3. **admit or shed** via the pluggable admission policy
   (:mod:`repro.service.admission`);
4. on admission, **extend** the run: a job for an existing queue is
   appended to the live runtime's state in place
   (:meth:`~repro.core.kernel.KernelRuntime.extend`; a drained queue
   starts it with its full work), and a new queue, released at the
   arrival step, is opened through a checkpoint restore -- at most
   ``max_queues`` times per service.  Either way the grown run
   continues bit-identically.

Apart from copying the grown queue's job tuple (and validating it as
an extension), per-event cost follows the active work, not the
admitted history.

Every decision lands in an event log replayable through
:func:`replay_log`; :meth:`SchedulingService.report` summarizes
steady-state utilization and per-event scheduling-latency percentiles.

``mode="from-scratch"`` keeps identical semantics but rebuilds the
kernel state from ``t=0`` on every event -- the quadratic baseline the
service benchmark gates the incremental path against (>= 5x on a
500-job stream, see ``benchmarks/bench_service.py``).

Example:
    >>> from repro.service import ArrivalEvent, SchedulingService
    >>> from repro.core import Job
    >>> svc = SchedulingService(policy="greedy-balance", max_queues=2)
    >>> svc.submit(ArrivalEvent(0, Job("1/2")))
    True
    >>> svc.submit(ArrivalEvent(1, Job("3/4")))
    True
    >>> svc.drain()
    2
    >>> svc.report().completed
    2
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable

from ..algorithms import get_policy
from ..backends.vector import VectorRuntime
from ..core.checkpoint import checkpoint_run, restore_runtime
from ..core.instance import Instance
from ..core.job import Job
from ..core.kernel import CompletionRecorder, ExactRuntime, run_kernel
from ..core.numerics import ZERO
from ..core.simulator import default_step_limit
from ..exceptions import ServiceError
from ..io.serialization import job_from_dict, job_to_dict
from ..telemetry import get_session
from .admission import AdmissionContext, AdmissionPolicy, get_admission
from .events import ArrivalEvent

__all__ = ["SchedulingService", "ServiceReport", "replay_log"]

_BACKENDS = ("exact", "vector")
_MODES = ("incremental", "from-scratch")


#: Backlogs (full-speed steps) closer than this to the least one tie
#: for placement; the lowest queue index wins.
PLACEMENT_TOL = 1e-9


class _CompletionFeed(CompletionRecorder):
    """Completion table plus the completions not yet in the event log."""

    __slots__ = ("fresh",)

    def __init__(self) -> None:
        super().__init__()
        self.fresh: list[tuple[int, int, int]] = []

    def on_complete(self, job: tuple[int, int], t: int) -> None:
        """Record *job*'s completion step and queue it for the log."""
        self.completion_steps[job] = t
        self.fresh.append((t, job[0], job[1]))


class _QueueLedger:
    """Per-queue prefix sums behind the ``O(1)`` backlog queries.

    ``steps[j]`` / ``work[j]`` sum the full-speed steps / exact work
    of the queue's first ``j`` jobs; the tail after the active job is
    cached until the queue grows or its active job changes.
    """

    __slots__ = ("steps", "work", "bottleneck", "job_work", "_tail")

    def __init__(self) -> None:
        self.steps: list[int] = [0]
        self.work: list[Fraction] = [ZERO]
        self.bottleneck: list[float] = []
        self.job_work: list[float] = []
        self._tail: tuple[int, int, int, float] = (-1, 0, 0, 0.0)

    def append(self, job: Job) -> None:
        """Account for *job* appended at the tail of the queue."""
        work = job.work
        self.steps.append(self.steps[-1] + job.steps_at_full_speed())
        self.work.append(self.work[-1] + work)
        self.bottleneck.append(float(job.requirement))
        self.job_work.append(float(work))

    def after(self, j: int) -> tuple[int, float]:
        """Full-speed steps and work of the jobs queued after job *j*."""
        n = len(self.job_work)
        tail = self._tail
        if tail[0] != j or tail[1] != n:
            tail = self._tail = (
                j,
                n,
                self.steps[n] - self.steps[j + 1],
                float(self.work[n] - self.work[j + 1]),
            )
        return tail[2], tail[3]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


@dataclass(frozen=True, slots=True)
class ServiceReport:
    """Steady-state summary of one service run.

    Attributes:
        policy: scheduling policy registry name.
        backend: kernel backend (``"exact"`` / ``"vector"``).
        admission: admission policy description.
        mode: ``"incremental"`` or ``"from-scratch"``.
        num_queues: logical queues at shutdown.
        final_step: the step the run drained at (0 if nothing ran).
        submitted: arrival events offered to the service.
        admitted: arrivals accepted into the system.
        rejected: arrivals shed by admission control.
        completed: jobs finished by drain time.
        dropped_events: events lost by the engine -- always 0; the
            soak test pins it.
        total_work: processing volume admitted (float).
        utilization: admitted work / (queues x elapsed steps), the
            steady-state busy fraction in ``[0, 1]``.
        latency_percentiles: per-event scheduling-latency seconds at
            p50/p90/p99, plus mean and max.
    """

    policy: str
    backend: str
    admission: str
    mode: str
    num_queues: int
    final_step: int
    submitted: int
    admitted: int
    rejected: int
    completed: int
    dropped_events: int
    total_work: float
    utilization: float
    latency_percentiles: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``crsharing serve`` report payload)."""
        return {
            "policy": self.policy,
            "backend": self.backend,
            "admission": self.admission,
            "mode": self.mode,
            "num_queues": self.num_queues,
            "final_step": self.final_step,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "dropped_events": self.dropped_events,
            "total_work": self.total_work,
            "utilization": self.utilization,
            "latency_percentiles": dict(self.latency_percentiles),
        }

    def render(self) -> str:
        """Human-readable multi-line report for the CLI."""
        lat = self.latency_percentiles
        lines = [
            f"policy={self.policy} backend={self.backend} "
            f"admission={self.admission} mode={self.mode}",
            f"queues={self.num_queues} final_step={self.final_step}",
            f"events: submitted={self.submitted} admitted={self.admitted} "
            f"rejected={self.rejected} completed={self.completed} "
            f"dropped={self.dropped_events}",
            f"utilization={self.utilization:.3f} "
            f"(total_work={self.total_work:.2f})",
            "scheduling latency: "
            + " ".join(
                f"{key}={lat.get(key, 0.0) * 1e3:.3f}ms"
                for key in ("p50", "p90", "p99", "max")
            ),
        ]
        return "\n".join(lines)


class SchedulingService:
    """A long-running, event-driven scheduler over the stepping kernel.

    Args:
        policy: scheduling policy registry name (or callable accepted
            by :func:`repro.algorithms.get_policy` names only here --
            the event log must be able to name it).
        backend: ``"vector"`` (default, float64) or ``"exact"``
            (Fraction arithmetic).
        admission: admission policy registry name or
            :class:`~repro.service.admission.AdmissionPolicy` object.
        max_queues: logical queue cap -- the service grows one queue
            per early arrival up to this many "cores", then places on
            the least-loaded queue.
        mode: ``"incremental"`` (advance the live runtime between
            events; the point of this subsystem) or ``"from-scratch"``
            (rebuild kernel state from ``t=0`` on every event; the
            quadratic baseline for the benchmark gate).  Both modes
            produce bit-identical schedules.

    Raises:
        ServiceError: unknown backend/mode/admission, bad
            ``max_queues``.
    """

    def __init__(
        self,
        *,
        policy: str = "greedy-balance",
        backend: str = "vector",
        admission: str | AdmissionPolicy = "accept-all",
        max_queues: int = 8,
        mode: str = "incremental",
    ) -> None:
        if backend not in _BACKENDS:
            raise ServiceError(
                f"unknown service backend {backend!r}; "
                f"available: {list(_BACKENDS)}"
            )
        if mode not in _MODES:
            raise ServiceError(
                f"unknown service mode {mode!r}; available: {list(_MODES)}"
            )
        if max_queues < 1:
            raise ServiceError(f"max_queues must be >= 1, got {max_queues}")
        self.policy_name = policy
        self._policy = get_policy(policy)
        self.backend = backend
        self.admission = get_admission(admission)
        self.max_queues = int(max_queues)
        self.mode = mode
        self._instance: Instance | None = None
        self._runtime = None
        self._recorder = _CompletionFeed()
        self._clock = 0
        self._closed = False
        self._seq = 0
        self._records: list[dict[str, Any]] = []
        self._history: list[tuple[Job, int, int]] = []
        self._latencies: list[float] = []
        self._logged = 0
        # One ledger per queue: backlog queries cost O(m), not O(history).
        self._ledgers: list[_QueueLedger] = []
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------
    def _new_runtime(self, instance: Instance):
        if self.backend == "exact":
            return ExactRuntime(instance)
        return VectorRuntime(instance)

    def _sim_to(self, target: int) -> None:
        """Step the live runtime forward to *target* (no rebuild)."""
        if self._instance is None:
            return
        limit = default_step_limit(self._instance) + target + 16
        finished = run_kernel(
            self._runtime,
            self._policy,
            (self._recorder,),
            max_steps=limit,
            stop=lambda rt: rt.t >= target,
        )
        if finished is not None and finished < target:
            # Drained before the event: move the clock over the idle
            # gap instead of simulating empty steps.
            self._runtime.idle_until(target)

    def _rebuild_from_history(self, target: int) -> None:
        """The from-scratch baseline: replay every admitted extension
        from ``t=0`` and re-simulate up to *target*.

        A queue extension is an *event*, not part of a static
        instance: a job appended to a queue that drained before its
        arrival must not start before the arrival step.  Re-running
        the extension history reproduces the incremental run
        bit-identically while paying the full ``O(t)`` simulation cost
        per event -- the quadratic baseline ``benchmarks/
        bench_service.py`` gates the incremental path against.
        """
        self._instance = None
        self._runtime = None
        self._recorder = _CompletionFeed()
        for job, queue_index, at in self._history:
            self._sim_to(at)
            self._extend(job, queue_index, at)
        self._sim_to(target)
        # The replay re-observes, in the same order, every completion
        # the log already holds.
        del self._recorder.fresh[: self._logged]

    def _advance(self, target: int) -> None:
        """Bring the kernel state to step *target* (>= current clock)."""
        if self.mode == "from-scratch":
            self._rebuild_from_history(target)
        else:
            self._sim_to(target)
        self._clock = target
        self._log_new_completions()

    def _log_new_completions(self) -> None:
        fresh = self._recorder.fresh
        for t, i, j in fresh:
            self._records.append(
                {"type": "completion", "t": t, "queue": i, "index": j}
            )
        self._logged += len(fresh)
        fresh.clear()

    # ------------------------------------------------------------------
    # Placement / admission
    # ------------------------------------------------------------------
    def _backlogs(self) -> tuple[list[float], float]:
        """Full-speed steps of unfinished work per queue, and the total work.

        The total is the unfinished processing volume over all queues.
        A queue's active job is untouched until a step has run since
        the queue's release.  The vector state still masks its work to
        0 then, so its full work is read from the ledger on both
        backends.  The vector state is one-lane: its rows are lane 0.
        """
        state = self._runtime.state
        t = state.t
        done_counts, remaining = state.done, state.remaining
        if self.backend == "vector":  # one conversion, not m scalar reads
            done_counts, remaining = done_counts[0].tolist(), remaining[0].tolist()
        backlogs: list[float] = []
        total = 0.0
        for i, release in enumerate(self._instance.releases):
            ledger = self._ledgers[i]
            done = done_counts[i]
            if done >= len(ledger.job_work):
                backlogs.append(0.0)
                continue
            rem = ledger.job_work[done] if t <= release else float(remaining[i])
            bottleneck = ledger.bottleneck[done]
            steps_after, work_after = ledger.after(done)
            backlogs.append(
                (rem / bottleneck if bottleneck > 0 else 0.0) + steps_after
            )
            total += rem
            total += work_after
        return backlogs, total

    def _placement(self) -> tuple[int, float, float]:
        """Where the next arrival would go: ``(queue, backlog, total)``.

        A new queue while the service is below ``max_queues``;
        otherwise the lowest-indexed queue whose backlog is within
        :data:`PLACEMENT_TOL` of the least, so float noise in the
        vector backend cannot break ties differently from the exact
        one.
        """
        if self._instance is None:
            return 0, 0.0, 0.0
        backlogs, total = self._backlogs()
        m = len(backlogs)
        if m < self.max_queues:
            return m, 0.0, total
        cutoff = min(backlogs) + PLACEMENT_TOL
        i = next(i for i, backlog in enumerate(backlogs) if backlog <= cutoff)
        return i, backlogs[i], total

    def _extend(self, job: Job, queue_index: int, at: int) -> None:
        """Grow the instance by *job* and carry the run state over.

        Appends to an existing queue extend the live runtime in place;
        a new queue (released at *at*) goes through a checkpoint
        restore, at most ``max_queues`` times per service.
        """
        if self._instance is None:
            self._instance = Instance([[job]], releases=[at])
            self._runtime = self._new_runtime(self._instance)
            self._runtime.idle_until(at)
            return
        if queue_index == self._instance.num_processors:
            grown = self._instance.appended(queue_index, job, release=at)
            ckpt = checkpoint_run(self._runtime)
            self._runtime = restore_runtime(ckpt, instance=grown)
        else:
            grown = self._instance.appended(queue_index, job)
            self._runtime.extend(grown)
        self._instance = grown

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, event: ArrivalEvent) -> bool:
        """Process one arrival; returns the admission decision.

        Raises:
            ServiceError: after :meth:`drain` (the engine is closed),
                or when *event* is earlier than an already-processed
                event (the clock never rewinds).
        """
        if self._closed:
            raise ServiceError("service is closed (drain() already ran)")
        if event.time < self._clock:
            raise ServiceError(
                f"event at step {event.time} arrived after the clock "
                f"reached {self._clock}; arrivals must be in order"
            )
        started = time.perf_counter()
        self._advance(event.time)
        queue_index, queue_backlog, total_backlog = self._placement()
        ctx = AdmissionContext(
            time=event.time,
            job=event.job,
            queue_index=queue_index,
            queue_backlog=queue_backlog,
            total_backlog=total_backlog,
            num_processors=(
                self._instance.num_processors if self._instance else 0
            ),
        )
        decision = bool(self.admission.admit(ctx))
        if decision:
            self._extend(event.job, queue_index, event.time)
            if queue_index == len(self._ledgers):
                self._ledgers.append(_QueueLedger())
            self._ledgers[queue_index].append(event.job)
            self._history.append((event.job, queue_index, event.time))
            self.admitted += 1
        else:
            self.rejected += 1
        self.submitted += 1
        self._records.append(
            {
                "type": "arrival",
                "seq": self._seq,
                "t": event.time,
                "job": job_to_dict(event.job),
                "admitted": decision,
                "queue": queue_index if decision else None,
            }
        )
        self._seq += 1
        elapsed = time.perf_counter() - started
        self._latencies.append(elapsed)
        session = get_session()
        if session is not None:
            session.metrics.counter("service.arrivals").inc()
            session.metrics.counter(
                "service.admitted" if decision else "service.rejected"
            ).inc()
            session.metrics.histogram("service.latency_seconds").observe(
                elapsed
            )
        return decision

    def drain(self) -> int:
        """Run the admitted workload to completion and close the engine.

        Returns:
            The final step (0 if nothing was ever admitted).  The
            service accepts no further events afterwards.
        """
        if self._closed:
            raise ServiceError("service is closed (drain() already ran)")
        makespan = 0
        if self.mode == "from-scratch":
            self._rebuild_from_history(self._clock)
        if self._instance is not None:
            limit = default_step_limit(self._instance) + self._clock + 16
            finished = run_kernel(
                self._runtime,
                self._policy,
                (self._recorder,),
                max_steps=limit,
            )
            makespan = finished if finished is not None else self._clock
            self._clock = max(self._clock, makespan)
            self._log_new_completions()
        self._records.append({"type": "drain", "t": self._clock})
        self._closed = True
        session = get_session()
        if session is not None:
            session.metrics.counter("service.completions").inc(self.completed)
        return makespan

    def run_stream(self, stream: Iterable[ArrivalEvent]) -> "ServiceReport":
        """Feed every event of *stream*, drain, and report.

        Under an installed telemetry session the whole run is wrapped
        in a ``service.stream`` span.
        """
        session = get_session()
        if session is None:
            for event in stream:
                self.submit(event)
            self.drain()
            return self.report()
        with session.tracer.span(
            "service.stream", policy=self.policy_name, backend=self.backend
        ) as span:
            for event in stream:
                self.submit(event)
            self.drain()
            report = self.report()
            span.note(
                submitted=report.submitted,
                admitted=report.admitted,
                final_step=report.final_step,
            )
        return report

    @property
    def completed(self) -> int:
        """Jobs finished so far."""
        return len(self._recorder.completion_steps)

    @property
    def clock(self) -> int:
        """The step the kernel state currently sits at."""
        return self._clock

    @property
    def closed(self) -> bool:
        """True once :meth:`drain` has run."""
        return self._closed

    def config(self) -> dict[str, Any]:
        """The replayable engine configuration (event-log header)."""
        return {
            "policy": self.policy_name,
            "backend": self.backend,
            "admission": {
                "name": self.admission.name,
                "options": self.admission.options(),
            },
            "max_queues": self.max_queues,
            "mode": self.mode,
        }

    @property
    def event_log(self) -> list[dict[str, Any]]:
        """The event records so far (copy; pair with :meth:`config`)."""
        return list(self._records)

    def report(self) -> ServiceReport:
        """Summarize the run (valid mid-stream or after drain)."""
        total_work = 0.0
        if self._instance is not None:
            total_work = float(self._instance.total_work())
        queues = self._instance.num_processors if self._instance else 0
        elapsed = max(self._clock, 1)
        utilization = (
            total_work / (queues * elapsed) if queues else 0.0
        )
        ordered = sorted(self._latencies)
        percentiles = {
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "mean": (
                sum(ordered) / len(ordered) if ordered else 0.0
            ),
            "max": ordered[-1] if ordered else 0.0,
        }
        return ServiceReport(
            policy=self.policy_name,
            backend=self.backend,
            admission=self.admission.describe(),
            mode=self.mode,
            num_queues=queues,
            final_step=self._clock,
            submitted=self.submitted,
            admitted=self.admitted,
            rejected=self.rejected,
            completed=self.completed,
            dropped_events=0,
            total_work=total_work,
            utilization=min(1.0, utilization),
            latency_percentiles=percentiles,
        )

    @property
    def completion_steps(self) -> dict[tuple[int, int], int]:
        """Completion step per finished ``(queue, index)`` job."""
        return dict(self._recorder.completion_steps)


def replay_log(
    config: dict[str, Any], records: Iterable[dict[str, Any]]
) -> tuple[ServiceReport, SchedulingService]:
    """Deterministically re-run a recorded event log.

    Rebuilds the service from the log's config, re-submits every
    arrival, re-derives every admission decision, and checks each one
    against the recorded decision -- a mismatch means the log and the
    engine disagree and the replay is rejected.

    Returns:
        ``(report, service)`` for the re-run.

    Raises:
        ServiceError: malformed config/records, or an admission
            decision that diverges from the record.
    """
    try:
        admission_doc = config.get("admission", {"name": "accept-all"})
        service = SchedulingService(
            policy=config["policy"],
            backend=config.get("backend", "vector"),
            admission=get_admission(
                admission_doc["name"], **admission_doc.get("options", {})
            ),
            max_queues=config.get("max_queues", 8),
            mode=config.get("mode", "incremental"),
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed event-log config: {exc}") from exc
    for record in records:
        if record.get("type") != "arrival":
            continue
        try:
            event = ArrivalEvent(
                time=int(record["t"]), job=job_from_dict(record["job"])
            )
            recorded = bool(record["admitted"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed arrival record {record!r}: {exc}"
            ) from exc
        decision = service.submit(event)
        if decision != recorded:
            raise ServiceError(
                f"replay diverged at seq {record.get('seq')}: recorded "
                f"admitted={recorded} but the engine decided {decision}"
            )
    service.drain()
    return service.report(), service
