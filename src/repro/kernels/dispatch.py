"""Dispatch layer between the backends and the fused compiled driver.

The backends never call :func:`repro.kernels.driver.run_fused`
directly; they ask this module two questions:

* :func:`decide` -- may *this* run use the fused driver, and if not,
  why not?  There is no user-set switch: a run takes the fused path
  exactly when numba is importable, the policy is a registered
  built-in water-filling class, and no per-step share rows are
  requested.  Every other run stays on the per-step path and the
  reason is counted in the ``compiled.fallbacks`` telemetry counter
  (:func:`note_fallback`).
* :func:`run_fused_instance` -- execute one instance through the
  driver and translate its status code back into the exceptions the
  interpreted kernel raises.

Eligibility is an *exact-type* lookup: a subclass of a built-in policy
may override ``shares_batch``, so only the registered classes
themselves map to driver codes.  Without numba the driver still runs
(interpreted), but slower than the NumPy per-step path, so
:func:`decide` keeps such runs per-step (reason ``"numba-missing"``);
tests reach the driver by patching :data:`NUMBA_AVAILABLE`.

Completion tables produced by the driver are replayed through the
observer stack (:func:`replay_run`), so objective values and
completion steps are indistinguishable from a per-step run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..exceptions import InfeasibleAssignmentError, SimulationLimitError
from ..telemetry import get_session
from ._numba import NUMBA_AVAILABLE
from .driver import (
    CODE_EDF_WATERFILL,
    CODE_FEWEST_REMAINING_JOBS_FIRST,
    CODE_GREEDY_BALANCE,
    CODE_GREEDY_FINISH_JOBS,
    CODE_LARGEST_REQUIREMENT_FIRST,
    CODE_PROPORTIONAL_SHARE,
    CODE_ROUND_ROBIN,
    CODE_WEIGHTED_SRPT,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_STALLED,
    STATUS_STEP_LIMIT,
    run_fused,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.instance import Instance

__all__ = [
    "CompiledDecision",
    "compiled_policy_code",
    "decide",
    "note_fallback",
    "instance_tables",
    "run_fused_instance",
    "replay_run",
]

#: Lazily built exact-type map {policy class: driver code}.
_POLICY_CODES: dict[type, int] | None = None


def _policy_codes() -> dict[type, int]:
    """The exact-type policy-class -> driver-code map (built lazily).

    Lazy so importing :mod:`repro.kernels` never drags the algorithm
    registry in (the algorithms package imports backends, which import
    this module).
    """
    global _POLICY_CODES
    if _POLICY_CODES is None:
        from ..algorithms.flowdeadline import EDFWaterfill, WeightedSRPT
        from ..algorithms.greedy_balance import GreedyBalance
        from ..algorithms.heuristics import (
            FewestRemainingJobsFirst,
            GreedyFinishJobs,
            LargestRequirementFirst,
            ProportionalShare,
        )
        from ..algorithms.round_robin import RoundRobin

        _POLICY_CODES = {
            GreedyBalance: CODE_GREEDY_BALANCE,
            RoundRobin: CODE_ROUND_ROBIN,
            GreedyFinishJobs: CODE_GREEDY_FINISH_JOBS,
            LargestRequirementFirst: CODE_LARGEST_REQUIREMENT_FIRST,
            FewestRemainingJobsFirst: CODE_FEWEST_REMAINING_JOBS_FIRST,
            ProportionalShare: CODE_PROPORTIONAL_SHARE,
            EDFWaterfill: CODE_EDF_WATERFILL,
            WeightedSRPT: CODE_WEIGHTED_SRPT,
        }
    return _POLICY_CODES


def compiled_policy_code(policy: Any) -> int | None:
    """The fused-driver code for *policy*, or ``None``.

    Exact-type match only: subclasses may override ``shares_batch``
    with a different rule, so they never silently inherit the base
    class's compiled path.
    """
    return _policy_codes().get(type(policy))


@dataclass(frozen=True, slots=True)
class CompiledDecision:
    """Outcome of :func:`decide` for one run.

    Attributes:
        code: the driver's policy code when the run may use the fused
            driver, else ``None``.
        reason: why the run falls back (``"policy"``,
            ``"record-shares"``, ``"numba-missing"``) when *code* is
            ``None``; ``None`` otherwise.
    """

    code: int | None
    reason: str | None


def decide(policy: Any, *, record_shares: bool = False) -> CompiledDecision:
    """Decide whether one run goes through the fused driver.

    Args:
        policy: the (already resolved) policy object.
        record_shares: whether the caller needs per-step share rows --
            the fused driver records completions only, so share
            recording forces the per-step path.
    """
    code = compiled_policy_code(policy)
    if code is None:
        return CompiledDecision(code=None, reason="policy")
    if record_shares:
        return CompiledDecision(code=None, reason="record-shares")
    if not NUMBA_AVAILABLE:
        return CompiledDecision(code=None, reason="numba-missing")
    return CompiledDecision(code=code, reason=None)


def note_fallback(reason: str | None) -> None:
    """Count one compiled-tier fallback in telemetry (if installed)."""
    if reason is None:
        return
    session = get_session()
    if session is not None:
        session.metrics.counter("compiled.fallbacks", reason=reason).inc()


def instance_tables(instance: "Instance") -> tuple:
    """Flatten *instance* into the driver's input arrays.

    Returns ``(num_jobs, release, work, req, reqk, wgt, dl)`` --
    the padded job tables :func:`repro.kernels.driver.run_fused`
    consumes (for ``k == 1`` the ``reqk`` tensor is the requirement
    table with a leading unit axis, no copy).
    """
    m = instance.num_processors
    nmax = instance.max_jobs
    k = instance.num_resources
    num_jobs = np.array(
        [instance.num_jobs(i) for i in range(m)], dtype=np.int64
    )
    release = np.array(instance.releases, dtype=np.int64)
    work = np.zeros((m, nmax), dtype=np.float64)
    req = np.zeros((m, nmax), dtype=np.float64)
    wgt = np.zeros((m, nmax), dtype=np.float64)
    dl = np.full((m, nmax), np.inf, dtype=np.float64)
    for i, queue in enumerate(instance.queues):
        for j, job in enumerate(queue):
            work[i, j] = float(job.work)
            req[i, j] = float(job.requirement)
            wgt[i, j] = float(job.weight)
            if job.deadline is not None:
                dl[i, j] = float(job.deadline)
    if k == 1:
        reqk = req.reshape(1, m, nmax)
    else:
        reqk = np.zeros((k, m, nmax), dtype=np.float64)
        for i, queue in enumerate(instance.queues):
            for j, job in enumerate(queue):
                for lane, r in enumerate(job.requirements):
                    reqk[lane, i, j] = float(r)
    return num_jobs, release, work, req, reqk, wgt, dl


def run_fused_instance(
    instance: "Instance",
    policy_code: int,
    *,
    tol: float,
    max_steps: int | None = None,
    stall_limit: int = 3,
    label: str = "policy",
) -> tuple[int, np.ndarray]:
    """Run one instance through the fused driver.

    Returns ``(makespan, completion)`` where ``completion`` is the
    driver's ``(m, nmax)`` int64 table of 0-based completion steps.

    Raises:
        SimulationLimitError: step limit exceeded or the policy
            stalled, with the interpreted kernel's message shapes.
        InfeasibleAssignmentError: the fused fill emitted an invalid
            share row (cannot happen for the built-in rules; kept as a
            defensive mirror of the per-step check phase).
    """
    if max_steps is None:
        from ..core.simulator import default_step_limit  # lazy: cycle

        limit = default_step_limit(instance)
    else:
        limit = max_steps
    tables = instance_tables(instance)
    status, steps, completion = run_fused(
        *tables, policy_code, float(tol), limit, stall_limit
    )
    if status == STATUS_OK:
        return steps, completion
    if status == STATUS_STEP_LIMIT:
        raise SimulationLimitError(
            f"{label} did not finish within {limit} steps (compiled)"
        )
    if status == STATUS_STALLED:
        raise SimulationLimitError(
            f"{label} made no progress for {stall_limit} consecutive "
            f"steps (t={steps}); aborting (compiled)"
        )
    if status == STATUS_INFEASIBLE:
        raise InfeasibleAssignmentError(
            f"step {steps}: compiled fill produced an infeasible share "
            "assignment"
        )
    raise AssertionError(  # pragma: no cover - exhaustive statuses
        f"unknown fused-driver status {status}"
    )


def replay_run(
    completion: np.ndarray, makespan: int, observers=()
) -> dict[tuple[int, int], int]:
    """Replay a driver completion table through step observers.

    Completions are delivered in the per-step order the interpreted
    kernel uses -- ascending step, then ascending processor index --
    followed by one ``on_finish(makespan)``, so completion-driven
    observers (objective accumulators, completion recorders) see an
    identical event stream.  Returns the ``{(i, j): t}`` completion
    map for :class:`~repro.backends.base.BackendResult`.
    """
    rows, cols = np.nonzero(completion >= 0)
    steps = completion[rows, cols]
    completion_steps: dict[tuple[int, int], int] = {}
    for pos in np.lexsort((cols, rows, steps)):
        i = int(rows[pos])
        j = int(cols[pos])
        t = int(steps[pos])
        completion_steps[(i, j)] = t
        for observer in observers:
            observer.on_complete((i, j), t)
    for observer in observers:
        observer.on_finish(makespan)
    return completion_steps
