"""Vectorized float64 backend (NumPy).

The exact simulator pays for its correctness guarantees with
``Fraction`` arithmetic: every share, comparison, and subtraction
allocates and normalizes big-int pairs, which caps throughput far
below what large-``m`` campaigns need.  This backend implements the
*same* step semantics (Section 3.1 / Eq. (1)-(2)) on flat NumPy
arrays, as a :class:`VectorRuntime` plugged into the unified stepping
kernel (:func:`repro.core.kernel.run_kernel`):

* the state is a one-lane
  :class:`~repro.backends.batched.BatchVectorState`: remaining work,
  active-job requirements, and share rows are ``(1, m)`` float64
  arrays, stepped by the same array program as a batch of ``B`` lanes;
* water-filling policies produce a whole share row with one sort +
  ``cumsum`` + clip (no Python loop over processors, see
  :func:`repro.algorithms.base.water_fill_array_batch`);
* completion tests are *tolerance-aware*: a job finishes when its
  remaining work drops to ``<= tol`` (default ``1e-9``), absorbing
  float rounding without changing which step a job completes in for
  any instance whose requirement grid is coarser than the tolerance;
* processors with non-zero release times stay masked (zero remaining
  work and requirement) until their release step, so water-filling
  policies skip them for free.

The float path is validated, not trusted: the cross-validation suite
(``tests/backends``) checks makespan and per-step shares against
:class:`~repro.backends.exact.ExactBackend` on hundreds of random
instances (static and arrival), and
:func:`repro.analysis.verification.verify_share_rows` re-executes
float rows independently with the same tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.instance import Instance
from ..core.kernel import (
    CompletionRecorder,
    KernelRuntime,
    ShareRecorder,
    StepEvent,
    run_kernel,
)
from ..exceptions import CheckpointError
from ..kernels import (
    decide,
    note_fallback,
    replay_run,
    run_fused_instance,
)
from ..telemetry import get_session
from .base import Backend, BackendResult, backend_run_span
from .batched import BatchVectorState, check_shares, require_array_policy

__all__ = ["VectorRuntime", "VectorBackend"]


class VectorRuntime(KernelRuntime):
    """Float64 runtime: the one-lane case of the batched array program.

    Holds a one-lane :class:`~repro.backends.batched.BatchVectorState`
    and steps it with the same ``shares_batch`` fill, the same
    feasibility check (:func:`~repro.backends.batched.check_shares`)
    and the same step body (:meth:`BatchVectorState.apply
    <repro.backends.batched.BatchVectorState.apply>`) as
    :class:`~repro.backends.batched.BatchVectorRuntime`; step events
    report row 0.

    Args:
        instance: the CRSharing instance.
        tol: completion / feasibility tolerance (see
            :class:`VectorBackend`).
    """

    #: Checkpoint backend tag (see :mod:`repro.core.checkpoint`).
    kind = "vector"

    __slots__ = ("instance", "state", "tol")

    def __init__(self, instance: Instance, *, tol: float = 1e-9) -> None:
        self.instance = instance
        self.state = BatchVectorState((instance,))
        self.tol = float(tol)

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
        return bool(self.state.lane_waiting[0])

    def begin_step(self) -> None:
        """Unmask processors whose release time has arrived."""
        self.state.begin_step()

    def query(self, policy) -> np.ndarray:
        """The policy's ``(1, m)`` share row (``(1, k, m)`` for ``k > 1``)."""
        return np.asarray(policy.shares_batch(self.state), dtype=np.float64)

    def check(self, shares: np.ndarray) -> None:
        """Tolerance-aware feasibility check (shape, bounds, capacity)."""
        check_shares(self.state, shares, self.tol)

    def apply(self, shares: np.ndarray) -> StepEvent:
        """Advance the float64 state one step and report row 0."""
        state = self.state
        work, had_work, finished, jobs, lane_work = state.apply(shares, self.tol)
        completed: tuple[tuple[int, int], ...] = ()
        if finished.size:
            completed = tuple(zip(finished.tolist(), jobs.tolist()))
        return StepEvent(
            t=state.t - 1,
            shares=shares[0],
            processed=work[0],
            completed=completed,
            had_work=had_work[0],
            progressed=bool(finished.size) or float(lane_work[0]) > self.tol,
        )

    def describe_progress(self) -> str:
        """Completed-job counts, for limit-error messages."""
        return f"vector backend, done={self.state.done[0].tolist()}"

    def _done_counts(self) -> np.ndarray:
        return self.state.done[0]

    def capture(self) -> dict:
        """Serializable snapshot of the runtime's mutable state.

        Carries the completion tolerance alongside the state so a
        restored runtime reproduces the same completion decisions.
        """
        data = self.state.capture()
        data["tol"] = self.tol
        return data

    def restore(self, data: dict) -> None:
        """Overwrite the runtime's state from a :meth:`capture` payload.

        Raises:
            CheckpointError: on a malformed state payload or a ``tol``
                that is not a positive finite number.
        """
        tol = data.get("tol", self.tol)
        if (
            isinstance(tol, bool)
            or not isinstance(tol, (int, float))
            or not math.isfinite(tol)
            or tol <= 0
        ):
            raise CheckpointError(
                f"checkpoint tolerance must be a positive finite number, "
                f"got {tol!r}"
            )
        self.state.restore(data)
        self.tol = float(tol)


class VectorBackend(Backend):
    """NumPy float64 execution engine (a kernel configuration).

    Args:
        tol: completion / feasibility tolerance.  A job is complete
            when its remaining work is ``<= tol``; shares may exceed
            the exact bounds by up to ``tol`` before the backend calls
            them infeasible.  Must be far below the instance's
            requirement grid (the default ``1e-9`` is safe for grids
            down to ``1e-6``).

    Each run picks its own execution path (:func:`repro.kernels.decide`):
    a built-in water-filling policy with no share recording runs inside
    the JIT-fused whole-run driver when numba is installed; every other
    run steps through :func:`~repro.core.kernel.run_kernel`, and the
    fallback reason lands in the ``compiled.fallbacks`` telemetry
    counter.
    """

    name = "vector"

    def __init__(self, *, tol: float = 1e-9) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = float(tol)

    def make_runtime(self, instance: Instance, policy) -> VectorRuntime:
        """The kernel runtime this backend contributes.

        Policy registry names resolve first, so the ``shares_batch``
        capability check below only ever judges genuine policy objects
        (an unresolved string used to be reported -- misleadingly -- as
        lacking the array path).
        """
        require_array_policy(self._resolve_policy(policy))
        return VectorRuntime(instance, tol=self.tol)

    def run(
        self,
        instance: Instance,
        policy,
        *,
        max_steps: int | None = None,
        record_shares: bool = True,
        stall_limit: int = 3,
        objectives=(),
    ) -> BackendResult:
        """Run *policy* on *instance* through the float64 kernel.

        *policy* may be a registry name; see
        :func:`repro.algorithms.resolve_policy`.  Runs the fused
        driver serves return no share rows (``shares is None``, as
        with ``record_shares=False``).
        """
        policy = self._resolve_policy(policy)
        decision = decide(policy, record_shares=record_shares)
        if decision.code is not None:
            return self._run_compiled(
                instance,
                policy,
                decision.code,
                max_steps=max_steps,
                stall_limit=stall_limit,
                objectives=objectives,
            )
        note_fallback(decision.reason)
        runtime = self.make_runtime(instance, policy)
        completions = CompletionRecorder()
        recorders = self._objective_observers(instance, objectives)
        observers: list = [completions, *recorders]
        recorder: ShareRecorder | None = None
        if record_shares:
            recorder = ShareRecorder()
            observers.append(recorder)
        with backend_run_span(self.name, instance, policy) as span:
            makespan = run_kernel(
                runtime,
                policy,
                observers,
                max_steps=max_steps,
                stall_limit=stall_limit,
            )
            if span is not None:
                span.note(makespan=makespan)
        return BackendResult(
            backend=self.name,
            makespan=makespan,
            shares=np.array(recorder.shares) if recorder is not None else None,
            processed=(
                np.array(recorder.processed) if recorder is not None else None
            ),
            completion_steps=completions.completion_steps,
            instance=instance,
            objective_values=self._objective_values(recorders),
        )

    def _run_compiled(
        self,
        instance: Instance,
        policy,
        policy_code: int,
        *,
        max_steps: int | None,
        stall_limit: int,
        objectives,
    ) -> BackendResult:
        """Serve one run through the JIT-fused whole-run driver.

        The driver returns the makespan and a completion-step table;
        replaying that table through the objective recorders yields
        exactly the values a per-step run produces (objectives depend
        only on completion events and the makespan).
        """
        recorders = self._objective_observers(instance, objectives)
        with backend_run_span(self.name, instance, policy) as span:
            makespan, completion = run_fused_instance(
                instance,
                policy_code,
                tol=self.tol,
                max_steps=max_steps,
                stall_limit=stall_limit,
            )
            completion_steps = replay_run(completion, makespan, recorders)
            if span is not None:
                span.note(makespan=makespan, compiled=True)
        session = get_session()
        if session is not None:
            session.metrics.counter("compiled.runs").inc()
            session.metrics.counter("compiled.steps").inc(makespan)
        return BackendResult(
            backend=self.name,
            makespan=makespan,
            completion_steps=completion_steps,
            instance=instance,
            objective_values=self._objective_values(recorders),
        )
