"""The unified stepping kernel (the one step loop in the codebase).

Before this module existed, the paper's step dynamics (Eq. (1)/(2),
Section 3.1) were implemented three times -- in the exact simulator,
the many-core engine, and the vectorized backend -- and every scenario
or metric had to be added to each copy.  The kernel collapses them:

:func:`run_kernel`
    owns the loop -- policy query, feasibility check, state advance,
    stall and step-limit handling, arrival releases -- and knows
    nothing about arithmetic or telemetry.

:class:`KernelRuntime`
    the arithmetic adapter.  :class:`ExactRuntime` (here) drives the
    exact :class:`~repro.core.state.ExecState` in ``Fraction``
    arithmetic; :class:`~repro.backends.vector.VectorRuntime` drives
    the float64 NumPy state.  A runtime translates between the
    policy's native share representation and the shared step
    semantics, and reports each executed step as a :class:`StepEvent`.

:class:`StepObserver`
    the telemetry adapter.  Share recording, completion bookkeeping,
    and per-core busy/stall accounting are all observers subscribed to
    the kernel, so new metrics compose instead of being inlined into
    loop bodies.

``simulate``, ``ExactBackend`` and ``VectorBackend`` are thin
configurations of this kernel; golden-output
tests pin that release-time-0 instances execute bit-identically to the
pre-kernel implementations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..exceptions import (
    CheckpointError,
    InfeasibleAssignmentError,
    ObserverError,
    SimulationLimitError,
)
from ..telemetry import get_session
from .instance import Instance
from .numerics import ONE, ZERO, format_frac, frac_sum, to_frac
from .state import ExecState

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..telemetry import TelemetrySession
    from .job import JobId

__all__ = [
    "StepEvent",
    "StepObserver",
    "ShareRecorder",
    "CompletionRecorder",
    "CoreActivityRecorder",
    "ObjectiveRecorder",
    "TelemetryObserver",
    "KernelRuntime",
    "ExactRuntime",
    "check_share_vector",
    "run_kernel",
]

#: Structured stall/heartbeat log channel (see ``run_kernel``).
_KERNEL_LOG = logging.getLogger("repro.kernel")


def check_share_vector(
    instance: Instance, t: int, shares: Sequence[Fraction]
) -> None:
    """Exact feasibility check of one share assignment (Section 3.1).

    This is the single over-grant check every exact layer shares: the
    simulator and the exact backend report infeasibility through it.  For single-resource instances *shares*
    is one value per processor; for ``k > 1`` it is ``k`` rows (one
    per resource) and every row is checked against that resource's
    unit capacity.

    Raises:
        InfeasibleAssignmentError: wrong arity, share outside
            ``[0, 1]``, or resource overuse (on any resource).
    """
    if instance.num_resources != 1:
        _check_share_matrix(instance, t, shares)
        return
    _check_share_row(instance, t, shares, resource=None)


def _check_share_row(
    instance: Instance,
    t: int,
    shares: Sequence[Fraction],
    *,
    resource: int | None,
) -> None:
    """Check one per-processor share row against unit capacity."""
    where = "" if resource is None else f" on resource {resource}"
    if len(shares) != instance.num_processors:
        raise InfeasibleAssignmentError(
            f"policy returned {len(shares)} shares for "
            f"{instance.num_processors} processors at step {t}{where}"
        )
    for i, x in enumerate(shares):
        if x < ZERO or x > ONE:
            raise InfeasibleAssignmentError(
                f"step {t}: share {format_frac(x)} for processor "
                f"{i} outside [0, 1]{where}"
            )
    total = frac_sum(shares)
    if total > ONE:
        raise InfeasibleAssignmentError(
            f"step {t}: resource overused{where} "
            f"(sum of shares = {format_frac(total)} > 1)"
        )


def _check_share_matrix(
    instance: Instance, t: int, rows: Sequence[Sequence[Fraction]]
) -> None:
    """Check a ``k x m`` share matrix row by row (capacity 1 each)."""
    k = instance.num_resources
    if len(rows) != k:
        raise InfeasibleAssignmentError(
            f"policy returned {len(rows)} share rows for {k} shared "
            f"resources at step {t} (expected one row per resource)"
        )
    for lane, row in enumerate(rows):
        _check_share_row(instance, t, row, resource=lane)


@dataclass(frozen=True, slots=True)
class StepEvent:
    """One executed kernel step, in the runtime's native arithmetic.

    Attributes:
        t: 0-based index of the step that just executed.
        shares: the share vector the policy produced (``Fraction``
            tuples for the exact runtime, a float64 array for the
            vector runtime).
        processed: work processed per processor this step.
        completed: jobs that finished during this step.
        had_work: per processor, whether it was *active* (released and
            with unfinished jobs) when the step began -- the basis of
            busy/stall accounting.
        progressed: True iff the step completed a job or processed a
            measurable amount of work (the runtime's tolerance
            decides "measurable").
    """

    t: int
    shares: Sequence[Any]
    processed: Sequence[Any]
    completed: tuple["JobId", ...]
    had_work: Sequence[Any]
    progressed: bool


class StepObserver:
    """Composable telemetry hook; all callbacks default to no-ops.

    Observers receive every executed step (:meth:`on_step`), every job
    completion (:meth:`on_complete`, called once per finished job after
    the step's :meth:`on_step`), and the final makespan
    (:meth:`on_finish`).  They must not mutate the runtime state.

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> class StepCounter(StepObserver):
        ...     steps = 0
        ...     def on_step(self, event):
        ...         self.steps += 1
        >>> counter = StepCounter()
        >>> inst = Instance.from_percent([[50, 50], [50, 50]])
        >>> run_kernel(ExactRuntime(inst), GreedyBalance(), [counter])
        2
        >>> counter.steps
        2
    """

    def on_step(self, event: StepEvent) -> None:
        """Called after every executed step."""

    def on_complete(self, job: "JobId", t: int) -> None:
        """Called once per job completion (after that step's on_step)."""

    def on_finish(self, makespan: int) -> None:
        """Called once, after the last step."""

    def capture_state(self) -> dict | None:
        """JSON-serializable observer state for checkpointing.

        ``None`` (the default) marks the observer as stateless: the
        checkpoint layer (:mod:`repro.core.checkpoint`) records nothing
        and :meth:`restore_state` is never called for it on resume.
        Stateful observers return a plain-data dict instead and accept
        the same dict back.
        """
        return None

    def restore_state(self, state: dict) -> None:
        """Restore observer state from a :meth:`capture_state` dict.

        Only called with a non-``None`` captured state; the default
        (stateless) observer rejects any payload, because receiving one
        means the checkpoint was taken from a different observer.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is stateless but a checkpoint "
            "carries state for it"
        )


class ShareRecorder(StepObserver):
    """Record per-step share and progress rows (memory permitting).

    Mutable rows (NumPy arrays) are copied at record time, so a policy
    that reuses an output buffer cannot retroactively corrupt earlier
    rows; immutable rows (the exact runtime's tuples) are stored as-is.
    """

    __slots__ = ("shares", "processed")

    def __init__(self) -> None:
        self.shares: list[Sequence[Any]] = []
        self.processed: list[Sequence[Any]] = []

    @staticmethod
    def _freeze(row: Sequence[Any]) -> Sequence[Any]:
        copy = getattr(row, "copy", None)
        return copy() if copy is not None else row

    def on_step(self, event: StepEvent) -> None:
        """Record the step's share and progress rows."""
        self.shares.append(self._freeze(event.shares))
        self.processed.append(self._freeze(event.processed))


class CompletionRecorder(StepObserver):
    """Record the 0-based completion step of every job."""

    __slots__ = ("completion_steps",)

    def __init__(self) -> None:
        self.completion_steps: dict["JobId", int] = {}

    def on_complete(self, job: "JobId", t: int) -> None:
        """Record that *job* completed in step *t*."""
        self.completion_steps[job] = t

    def capture_state(self) -> dict:
        """Completion table as plain data (``[[i, j, t], ...]``)."""
        return {
            "completions": [
                [i, j, t] for (i, j), t in self.completion_steps.items()
            ]
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the completion table from a captured payload."""
        self.completion_steps = {
            (int(i), int(j)): int(t) for i, j, t in state["completions"]
        }


class CoreActivityRecorder(StepObserver):
    """Per-core busy/stall steps, last completion step and bus use.

    The Section 1 many-core view of a run on one shared resource (the
    data bus).  A core is *busy* in a step when it was active
    (released, with unfinished jobs) and processed work or completed a
    job; it *stalls* when it was active but received no useful share.
    An idle core (not yet released, or drained) earns neither.  The
    recorder works unchanged on the exact and the vector runtime:
    :attr:`bus_utilization` is a ``Fraction`` on exact runs and a
    ``float`` on vector runs.

    Attributes:
        busy_steps: per core, the steps it made progress in.
        stall_steps: per core, the active steps it got nothing done in.
        last_completion: per core, the 0-based step its last job
            completed in (``None`` while no job has completed).
        bus_utilization: granted share per step over the whole run,
            set by :meth:`on_finish`.

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> inst = Instance.from_percent([[100, 100], [50]])
        >>> rec = CoreActivityRecorder(inst.num_processors)
        >>> run_kernel(ExactRuntime(inst), GreedyBalance(), [rec])
        3
        >>> rec.busy_steps, rec.stall_steps, rec.last_completion
        ([2, 1], [0, 2], [1, 2])
        >>> rec.bus_utilization
        Fraction(5, 6)
    """

    __slots__ = (
        "busy_steps",
        "stall_steps",
        "last_completion",
        "bus_utilization",
        "_granted",
    )

    def __init__(self, num_processors: int) -> None:
        self.busy_steps = [0] * num_processors
        self.stall_steps = [0] * num_processors
        self.last_completion: list[int | None] = [None] * num_processors
        self.bus_utilization: Fraction | float = 0.0
        self._granted = 0  # Fraction or float, depending on the runtime

    def on_step(self, event: StepEvent) -> None:
        """Count busy and stalled cores and the step's granted share."""
        self._granted += sum(event.shares)
        finishing = {i for i, _ in event.completed}
        processed = event.processed
        for i, active in enumerate(event.had_work):
            if not active:
                continue
            if processed[i] > 0 or i in finishing:
                self.busy_steps[i] += 1
            else:
                self.stall_steps[i] += 1

    def on_complete(self, job: "JobId", t: int) -> None:
        """Jobs of one core complete in order, so the last write wins."""
        self.last_completion[job[0]] = t

    def on_finish(self, makespan: int) -> None:
        """Average the granted share over the run's steps."""
        if not makespan:
            self.bus_utilization = 0.0
            return
        utilization = self._granted / makespan
        # Exact runs keep the Fraction; vector runs turn the summed
        # numpy scalar into a plain Python float.
        if not isinstance(utilization, Fraction):
            utilization = float(utilization)
        self.bus_utilization = utilization


class ObjectiveRecorder(StepObserver):
    """Accumulate a scheduling objective online during the run.

    The shared bridge between the kernel and the pluggable objective
    layer (:mod:`repro.objectives`): the objective contributes a
    per-run accumulator, the recorder feeds it the kernel's completion
    stream, and :attr:`value` holds the objective value once
    :meth:`on_finish` has fired -- the same observer works unchanged on
    the exact and the vector runtime, so objectives never need a second
    pass over recorded rows.

    Args:
        objective: any object with ``start(instance)`` returning an
            accumulator with ``complete(job, t)`` / ``finish(makespan)``
            (the :class:`repro.objectives.base.Objective` contract).
        instance: the instance the run executes.
    """

    __slots__ = ("objective", "value", "_accumulator", "_seen", "_instance")

    def __init__(self, objective, instance: Instance) -> None:
        self.objective = objective
        self.value = None
        self._instance = instance
        self._accumulator = objective.start(instance)
        #: Completion events in arrival order, kept so a checkpoint can
        #: replay them into a fresh accumulator on resume (accumulators
        #: are arbitrary objective-defined objects; their state is the
        #: fold over this stream by construction).
        self._seen: list[tuple["JobId", int]] = []

    def on_complete(self, job: "JobId", t: int) -> None:
        """Feed one completion to the objective's accumulator."""
        self._seen.append((job, t))
        self._accumulator.complete(job, t)

    def on_finish(self, makespan: int) -> None:
        """Close the accumulator and publish the objective value."""
        self.value = self._accumulator.finish(makespan)

    def capture_state(self) -> dict:
        """The completion stream the accumulator has folded so far."""
        return {"completions": [[i, j, t] for (i, j), t in self._seen]}

    def restore_state(self, state: dict) -> None:
        """Replay a captured completion stream into a fresh accumulator."""
        self.value = None
        self._accumulator = self.objective.start(self._instance)
        self._seen = []
        for i, j, t in state["completions"]:
            self.on_complete((int(i), int(j)), int(t))


class KernelRuntime:
    """Arithmetic adapter contract consumed by :func:`run_kernel`.

    A runtime owns the mutable execution state and translates the
    shared loop skeleton into one arithmetic model:

    * :attr:`t` / :attr:`all_done` / :attr:`waiting` expose progress;
    * :meth:`begin_step` activates processors whose release time has
      arrived (a no-op for the static model);
    * :meth:`query` asks the policy for shares in native form;
    * :meth:`check` raises
      :class:`~repro.exceptions.InfeasibleAssignmentError` on invalid
      shares (within the runtime's tolerance);
    * :meth:`apply` advances the state one step and reports it.

    The built-in runtimes also grow a suspended run in place for the
    service layer: :meth:`extend` appends jobs, :meth:`idle_until`
    skips an idle gap.
    """

    instance: Instance

    @property
    def t(self) -> int:
        """0-based index of the next step to execute."""
        raise NotImplementedError

    @property
    def all_done(self) -> bool:
        """True once every job on every processor has finished."""
        raise NotImplementedError

    @property
    def waiting(self) -> bool:
        """True iff some pending processor has not been released yet.

        Zero-progress steps are then legitimate waiting, not a stalled
        policy.
        """
        raise NotImplementedError

    def begin_step(self) -> None:
        """Activate processors whose release time has arrived."""

    def query(self, policy) -> Sequence[Any]:
        """Ask *policy* for shares in the runtime's native form."""
        raise NotImplementedError

    def check(self, shares: Sequence[Any]) -> None:
        """Validate one share assignment (raise on infeasibility)."""
        raise NotImplementedError

    def apply(self, shares: Sequence[Any]) -> StepEvent:
        """Advance the state one step and report what happened."""
        raise NotImplementedError

    def describe_progress(self) -> str:
        """Short state description used in limit-error messages."""
        return ""

    # The two primitives below need a ``state`` exposing ``t``, ``done``
    # and ``extend`` (both built-in runtimes have one).
    def extend(self, instance: Instance) -> None:
        """Adopt *instance*, which appends jobs to the existing queues.

        The run continues from its current step with the new jobs
        queued behind the existing ones; a queue that had drained
        starts its first appended job with that job's full work.

        Raises:
            CheckpointError: if *instance* is not a tail-append
                extension over the same processors.
        """
        self.state.extend(instance)
        self.instance = instance

    def idle_until(self, t: int) -> None:
        """Move the clock to step *t* across an idle gap.

        No step executes.  Legal only while no pending processor is
        released before *t*, so no work could have happened in the
        skipped steps.

        Raises:
            CheckpointError: if *t* is in the past or the gap is not
                idle.
        """
        state = self.state
        if t < state.t:
            raise CheckpointError(
                f"cannot move the step counter backwards ({state.t} -> {t})"
            )
        instance = self.instance
        for i, release in enumerate(instance.releases):
            if release < t and state.done[i] < instance.num_jobs(i):
                raise CheckpointError(
                    f"processor {i} has pending work before step {t}; "
                    "only an idle gap can be skipped"
                )
        state.t = int(t)


class ExactRuntime(KernelRuntime):
    """Exact ``Fraction`` arithmetic over :class:`ExecState`.

    The reference runtime; bit-identical to the pre-kernel simulator.
    """

    #: Checkpoint backend tag (see :mod:`repro.core.checkpoint`).
    kind = "exact"

    __slots__ = ("instance", "state", "_m", "_k")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.state = ExecState(instance)
        self._m = instance.num_processors
        self._k = instance.num_resources

    @property
    def t(self) -> int:
        """0-based index of the next step to execute."""
        return self.state.t

    @property
    def all_done(self) -> bool:
        """True once every job on every processor has finished."""
        return self.state.all_done

    @property
    def waiting(self) -> bool:
        """True while unreleased processors still hold pending jobs."""
        return self.state.waiting

    def query(self, policy) -> tuple[Fraction, ...]:
        """Ask *policy* for exact shares (a vector, or ``k`` rows)."""
        raw = policy(self.state)
        if self._k == 1:
            return tuple(to_frac(x) for x in raw)
        try:
            return tuple(tuple(to_frac(x) for x in row) for row in raw)
        except TypeError:
            raise InfeasibleAssignmentError(
                f"policy returned a flat share vector for an instance "
                f"with {self._k} shared resources at step {self.state.t}; "
                "expected one share row per resource"
            ) from None

    def check(self, shares: Sequence[Fraction]) -> None:
        """Exact feasibility check via :func:`check_share_vector`."""
        check_share_vector(self.instance, self.state.t, shares)

    def apply(self, shares: Sequence[Fraction]) -> StepEvent:
        """Advance :class:`ExecState` one step and report it."""
        state = self.state
        had_work = tuple(state.is_active(i) for i in range(self._m))
        outcome = state.apply(shares)
        progressed = bool(outcome.completed) or any(
            p > ZERO for p in outcome.processed
        )
        return StepEvent(
            t=state.t - 1,
            shares=shares,
            processed=outcome.processed,
            completed=outcome.completed,
            had_work=had_work,
            progressed=progressed,
        )

    def describe_progress(self) -> str:
        """Completed-job counts, for limit-error messages."""
        return f"done={self.state.done}"

    def capture(self) -> dict:
        """Serializable snapshot of the runtime's mutable state."""
        return self.state.capture()

    def restore(self, data: dict) -> None:
        """Overwrite the runtime's state from a :meth:`capture` payload."""
        self.state.restore(data)


class TelemetryObserver(StepObserver):
    """Kernel step metrics for one run (auto-attached under telemetry).

    Records the run-level figures every future perf PR regressions
    against: a ``kernel.steps`` counter, ``kernel.completions``, a
    ``kernel.job_wait_steps`` histogram (completion step minus the
    processor's release -- the queue-wait distribution), and on finish
    the run wall time (``kernel.run_seconds`` histogram, the
    denominator of hot-spot attribution) plus a
    ``kernel.steps_per_second`` gauge.

    Args:
        session: the telemetry session receiving the metrics.
        instance: the instance the run executes (for release times).
    """

    __slots__ = ("_steps", "_completions", "_waits", "_runs", "_sps", "_run_hist", "_releases", "_t0")

    def __init__(self, session: "TelemetrySession", instance: Instance) -> None:
        metrics = session.metrics
        self._steps = metrics.counter("kernel.steps")
        self._completions = metrics.counter("kernel.completions")
        self._waits = metrics.histogram("kernel.job_wait_steps")
        self._run_hist = metrics.histogram("kernel.run_seconds")
        self._runs = metrics.counter("kernel.runs")
        self._sps = metrics.gauge("kernel.steps_per_second")
        self._releases = instance.releases
        self._t0 = perf_counter()

    def on_step(self, event: StepEvent) -> None:
        """Count the executed step."""
        self._steps.inc()

    def on_complete(self, job: "JobId", t: int) -> None:
        """Count the completion and record its queue wait."""
        self._completions.inc()
        self._waits.observe(t + 1 - self._releases[job[0]])

    def on_finish(self, makespan: int) -> None:
        """Record run wall time and throughput."""
        wall = perf_counter() - self._t0
        self._run_hist.observe(wall)
        self._runs.inc()
        if wall > 0:
            self._sps.set(makespan / wall)


class _TimedObserver(StepObserver):
    """Time one observer's callbacks into the observers histogram.

    Wrapping each observer separately (instead of timing the dispatch
    loop once) keeps the attribution honest when observers are nested
    or added by different layers; ``wrapped`` exposes the original for
    error reporting.
    """

    __slots__ = ("wrapped", "_hist")

    def __init__(self, observer: StepObserver, hist) -> None:
        self.wrapped = observer
        self._hist = hist

    def on_step(self, event: StepEvent) -> None:
        """Forward and time the step callback."""
        t0 = perf_counter()
        self.wrapped.on_step(event)
        self._hist.observe(perf_counter() - t0)

    def on_complete(self, job: "JobId", t: int) -> None:
        """Forward and time the completion callback."""
        t0 = perf_counter()
        self.wrapped.on_complete(job, t)
        self._hist.observe(perf_counter() - t0)

    def on_finish(self, makespan: int) -> None:
        """Forward and time the finish callback."""
        t0 = perf_counter()
        self.wrapped.on_finish(makespan)
        self._hist.observe(perf_counter() - t0)


class _InstrumentedRuntime(KernelRuntime):
    """Phase-timing proxy around a runtime (installed-session runs).

    Pure delegation plus two ``perf_counter`` reads per phase: query,
    check, and apply land in per-phase metrics histograms (query
    labelled by policy -- the per-policy query-latency series) and,
    when the tracer is live, per-step ``kernel.step.*`` span records.
    The proxy never touches shares or state, so instrumented runs stay
    bit-identical (the golden-with-tracing suite pins this).
    """

    __slots__ = ("instance", "_rt", "_tracer", "_trace_steps", "_q", "_c", "_a")

    def __init__(self, runtime: KernelRuntime, session: "TelemetrySession", policy_label: str) -> None:
        self._rt = runtime
        self.instance = runtime.instance
        self._tracer = session.tracer
        self._trace_steps = session.tracer.enabled
        metrics = session.metrics
        self._q = metrics.histogram("kernel.query_seconds", policy=policy_label)
        self._c = metrics.histogram("kernel.check_seconds")
        self._a = metrics.histogram("kernel.apply_seconds")

    @property
    def t(self) -> int:
        """Delegate to the wrapped runtime."""
        return self._rt.t

    @property
    def all_done(self) -> bool:
        """Delegate to the wrapped runtime."""
        return self._rt.all_done

    @property
    def waiting(self) -> bool:
        """Delegate to the wrapped runtime."""
        return self._rt.waiting

    def begin_step(self) -> None:
        """Delegate to the wrapped runtime."""
        self._rt.begin_step()

    def query(self, policy) -> Sequence[Any]:
        """Time the policy query into metrics (and the tracer)."""
        t0 = perf_counter()
        shares = self._rt.query(policy)
        dt = perf_counter() - t0
        self._q.observe(dt)
        if self._trace_steps:
            self._tracer.complete("kernel.step.query", t0, dt, t=self._rt.t)
        return shares

    def check(self, shares: Sequence[Any]) -> None:
        """Time the feasibility check into metrics (and the tracer)."""
        t0 = perf_counter()
        self._rt.check(shares)
        dt = perf_counter() - t0
        self._c.observe(dt)
        if self._trace_steps:
            self._tracer.complete("kernel.step.check", t0, dt, t=self._rt.t)

    def apply(self, shares: Sequence[Any]) -> StepEvent:
        """Time the state advance into metrics (and the tracer)."""
        t0 = perf_counter()
        event = self._rt.apply(shares)
        dt = perf_counter() - t0
        self._a.observe(dt)
        if self._trace_steps:
            self._tracer.complete(
                "kernel.step.apply",
                t0,
                dt,
                t=event.t,
                completed=len(event.completed),
            )
        return event

    def describe_progress(self) -> str:
        """Delegate to the wrapped runtime."""
        return self._rt.describe_progress()


def _log_heartbeat(runtime: KernelRuntime, waited: int, label: str) -> None:
    """Structured stall warning: the run is alive but waiting."""
    detail = runtime.describe_progress()
    _KERNEL_LOG.warning(
        "%s waiting on releases: %d consecutive zero-progress steps at "
        "t=%d%s",
        label,
        waited,
        runtime.t,
        f" ({detail})" if detail else "",
    )


def _kernel_loop(
    runtime: KernelRuntime,
    policy,
    observers: tuple[StepObserver, ...],
    limit: int,
    stall_limit: int,
    label: str,
    heartbeat_interval: int | None,
    heartbeat,
    stop=None,
) -> int | None:
    """The one step loop (shared by the plain and instrumented paths)."""
    stalled = 0
    waited = 0
    while not runtime.all_done:
        if stop is not None and stop(runtime):
            # Suspended at an event boundary: the state is consistent
            # (no partial step), on_finish is NOT dispatched, and the
            # run can be continued bit-identically (checkpoint layer).
            return None
        if runtime.t >= limit:
            detail = runtime.describe_progress()
            raise SimulationLimitError(
                f"{label} did not finish within {limit} steps"
                + (f" ({detail})" if detail else "")
            )
        runtime.begin_step()
        shares = runtime.query(policy)
        runtime.check(shares)
        event = runtime.apply(shares)
        observer: StepObserver | None = None
        try:
            for observer in observers:
                observer.on_step(event)
            if event.completed:
                for job in event.completed:
                    for observer in observers:
                        observer.on_complete(job, event.t)
        except Exception as exc:
            raise _observer_error(observer, f"step {event.t}", exc) from exc
        if event.progressed:
            stalled = 0
            waited = 0
        elif runtime.waiting:
            # Legitimate waiting on a future release -- not a stall,
            # but not silent either: emit a structured heartbeat so a
            # long wait (or a release-time bug) is visible.
            stalled = 0
            waited += 1
            if heartbeat_interval and waited % heartbeat_interval == 0:
                heartbeat(runtime, waited, label)
        else:
            stalled += 1
            if stalled >= stall_limit:
                raise SimulationLimitError(
                    f"{label} made no progress for {stalled} consecutive "
                    f"steps (t={runtime.t}); aborting"
                )

    makespan = runtime.t
    observer = None
    try:
        for observer in observers:
            observer.on_finish(makespan)
    except Exception as exc:
        raise _observer_error(
            observer, f"finish (makespan={makespan})", exc
        ) from exc
    return makespan


def _observer_error(
    observer: StepObserver | None, where: str, exc: Exception
) -> ObserverError:
    """Build the :class:`ObserverError` for one failed callback."""
    target = getattr(observer, "wrapped", observer)
    name = type(target).__name__ if target is not None else "<none>"
    return ObserverError(
        f"observer {name} raised {type(exc).__name__} at {where}: {exc}"
    )


def run_kernel(
    runtime: KernelRuntime,
    policy,
    observers: Iterable[StepObserver] = (),
    *,
    max_steps: int | None = None,
    stall_limit: int = 3,
    label: str = "policy",
    heartbeat_interval: int | None = 64,
    stop=None,
) -> int | None:
    """Drive *policy* through *runtime* until every job is finished.

    Args:
        runtime: the arithmetic adapter owning the execution state.
        policy: the resource-assignment policy (queried via
            ``runtime.query``, so exact runtimes call ``policy(state)``
            and the vector runtime calls ``policy.shares_array``).
        observers: telemetry hooks, notified in the given order.  An
            exception escaping an observer callback is re-raised as
            :class:`~repro.exceptions.ObserverError` (original
            chained); the step it interrupted has already fully
            applied, so the runtime state stays consistent.
        max_steps: hard safety limit (default
            :func:`~repro.core.simulator.default_step_limit` of the
            runtime's instance, which accounts for release times).
        stall_limit: abort after this many *consecutive* steps with no
            progress while no processor is waiting on a release -- the
            signature of a policy that will never terminate.
        label: subject of error messages ("policy", "workload").
        heartbeat_interval: while the run is legitimately *waiting*
            (zero progress, unreleased processors pending), emit a
            structured warning on the ``repro.kernel`` logger -- plus a
            ``kernel.heartbeat`` trace event under telemetry -- every
            this-many waiting steps, so stalls are never silent.
            ``None``/``0`` disables the heartbeat.
        stop: optional suspension predicate ``stop(runtime) -> bool``,
            evaluated before each step.  When it returns True the loop
            returns ``None`` *without* dispatching ``on_finish`` -- the
            runtime sits at a clean step boundary and can be resumed
            (same runtime, or a checkpoint restored through
            :mod:`repro.core.checkpoint`) by calling :func:`run_kernel`
            again; the continued run is bit-identical to an
            uninterrupted one.  The event engine of
            :mod:`repro.service` advances to each arrival this way.

    When a :class:`~repro.telemetry.TelemetrySession` is installed
    (:func:`repro.telemetry.use_session`), the run is instrumented: a
    ``kernel.run`` span wraps the loop, every step phase
    (query/check/apply/observers) is timed into metrics histograms
    (query latency labelled per policy), and a
    :class:`TelemetryObserver` records steps, completions, queue waits
    and throughput.  With no session installed the loop runs
    uninstrumented -- telemetry costs one global read per run
    (``benchmarks/bench_telemetry_overhead.py`` gates the disabled
    path at <= 2% overhead).  Instrumentation never alters arithmetic
    or control flow: traced runs are bit-identical to untraced ones.

    Returns:
        The makespan (number of executed steps).

    Raises:
        InfeasibleAssignmentError: if the policy emits an invalid
            share vector (via ``runtime.check``).
        SimulationLimitError: if a limit is exceeded.
        ObserverError: if an observer callback raises.

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import RoundRobin
        >>> inst = Instance.from_percent([[100], [100]])
        >>> run_kernel(ExactRuntime(inst), RoundRobin())
        2
    """
    if max_steps is None:
        from .simulator import default_step_limit  # circular-free: lazy

        limit = default_step_limit(runtime.instance)
    else:
        limit = max_steps
    observers = tuple(observers)
    session = get_session()
    if session is None:
        # The zero-cost path: no per-step telemetry work at all.
        return _kernel_loop(
            runtime,
            policy,
            observers,
            limit,
            stall_limit,
            label,
            heartbeat_interval,
            _log_heartbeat,
            stop,
        )

    tracer = session.tracer
    metrics = session.metrics
    policy_label = str(getattr(policy, "name", type(policy).__name__))
    obs_hist = metrics.histogram("kernel.observers_seconds")
    instrumented = _InstrumentedRuntime(runtime, session, policy_label)
    wrapped = tuple(
        _TimedObserver(obs, obs_hist)
        for obs in (*observers, TelemetryObserver(session, runtime.instance))
    )

    def _heartbeat(rt: KernelRuntime, waited: int, lbl: str) -> None:
        _log_heartbeat(rt, waited, lbl)
        tracer.event(
            "kernel.heartbeat",
            t=rt.t,
            waited=waited,
            label=lbl,
            detail=rt.describe_progress(),
        )
        metrics.counter("kernel.heartbeats").inc()

    with tracer.span(
        "kernel.run",
        label=label,
        policy=policy_label,
        runtime=type(runtime).__name__,
        m=runtime.instance.num_processors,
        jobs=runtime.instance.total_jobs,
        resources=runtime.instance.num_resources,
    ) as span:
        makespan = _kernel_loop(
            instrumented,
            policy,
            wrapped,
            limit,
            stall_limit,
            label,
            heartbeat_interval,
            _heartbeat,
            stop,
        )
        span.note(
            makespan=makespan,
            **({} if makespan is not None else {"suspended_at": runtime.t}),
        )
    return makespan
