"""Vectorized float64 backend (NumPy).

The exact simulator pays for its correctness guarantees with
``Fraction`` arithmetic: every share, comparison, and subtraction
allocates and normalizes big-int pairs, which caps throughput far
below what large-``m`` campaigns need.  This backend implements the
*same* step semantics (Section 3.1 / Eq. (1)-(2)) on flat NumPy
arrays, as a :class:`VectorRuntime` plugged into the unified stepping
kernel (:func:`repro.core.kernel.run_kernel`):

* remaining work, active-job requirements, and share vectors are
  float64 arrays of length ``m``;
* water-filling policies produce a whole share vector with one
  ``argsort`` + ``cumsum`` + ``clip`` (no Python loop over
  processors, see :func:`repro.algorithms.base.water_fill_array`);
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

import numpy as np

from ..core.checkpoint import require_extension
from ..core.instance import Instance
from ..core.kernel import (
    CompletionRecorder,
    KernelRuntime,
    ShareRecorder,
    StepEvent,
    run_kernel,
)
from ..exceptions import (
    CheckpointError,
    InfeasibleAssignmentError,
    VectorizationUnsupportedError,
)
from ..kernels import (
    decide,
    note_fallback,
    replay_run,
    run_fused_instance,
)
from ..telemetry import get_session
from .base import Backend, BackendResult, backend_run_span

__all__ = ["VectorState", "VectorRuntime", "VectorBackend"]


class VectorState:
    """Float64 view of the execution state for ``Policy.shares_array``.

    Mirrors the read API of :class:`~repro.core.state.ExecState` in
    array form; policies must treat every array as read-only (the
    backend owns the mutation).

    Attributes:
        instance: the originating instance.
        t: 0-based current step.
        num_jobs: per processor, total job count (``n_i``).
        done: per processor, completed job count (``j_i(t)``).
        remaining: per processor, remaining work of the active job
            (0.0 once the processor has finished everything, and 0.0
            *before* a processor's release time -- unreleased work is
            invisible to policies).  Multi-resource instances measure
            work on the bottleneck resource.
        active_requirements: per processor, the (bottleneck)
            requirement ``r_ij`` of the active job (0.0 once finished
            or before release) -- the speed cap of Eq. (1).
        active_req_matrix: ``(k, m)`` per-resource requirements of the
            active jobs (the single-resource state aliases it to
            ``active_requirements`` reshaped, so the share-matrix view
            exists for every ``k``).
        active_weights: per processor, the objective weight ``w_ij`` of
            the active job (0.0 once finished or before release) --
            read by flow-tuned policies such as ``weighted-srpt``.
        active_deadlines: per processor, the due step ``d_ij`` of the
            active job (``inf`` when the job has no deadline, the
            processor is finished, or it is not yet released) -- read
            by deadline-aware policies such as ``edf-waterfill``.
        resource_spent: ``(k,)`` cumulative resource-time consumed per
            shared resource.
    """

    __slots__ = (
        "instance",
        "t",
        "num_jobs",
        "done",
        "remaining",
        "active_requirements",
        "active_req_matrix",
        "active_weights",
        "active_deadlines",
        "resource_spent",
        "num_resources",
        "_req",
        "_reqk",
        "_work",
        "_wgt",
        "_dl",
        "_release",
        "_released",
        "_all_released",
    )

    def __init__(self, instance: Instance) -> None:
        m = instance.num_processors
        nmax = instance.max_jobs
        k = instance.num_resources
        self.instance = instance
        self.t = 0
        self.num_resources = k
        self.num_jobs = np.array(
            [instance.num_jobs(i) for i in range(m)], dtype=np.int64
        )
        self.done = np.zeros(m, dtype=np.int64)
        # Requirements / work padded to a rectangle; the padding is
        # never read (done is bounded by num_jobs).
        self._req = np.zeros((m, nmax), dtype=np.float64)
        self._work = np.zeros((m, nmax), dtype=np.float64)
        self._wgt = np.zeros((m, nmax), dtype=np.float64)
        self._dl = np.full((m, nmax), np.inf, dtype=np.float64)
        self._reqk = None if k == 1 else np.zeros((k, m, nmax), dtype=np.float64)
        for i, queue in enumerate(instance.queues):
            self._write_jobs(i, 0, queue)
        self._release = np.array(instance.releases, dtype=np.int64)
        self._released = self._release <= 0
        self._all_released = bool(self._released.all())
        # Unreleased processors are masked to zero until they arrive.
        self.remaining = np.where(self._released, self._work[:, 0], 0.0)
        self.active_requirements = np.where(
            self._released, self._req[:, 0], 0.0
        )
        self.active_weights = np.where(self._released, self._wgt[:, 0], 0.0)
        self.active_deadlines = np.where(
            self._released, self._dl[:, 0], np.inf
        )
        self.resource_spent = np.zeros(k, dtype=np.float64)
        if k == 1:
            # Degenerate share-matrix view; no separate bookkeeping.
            self.active_req_matrix = self.active_requirements.reshape(1, m)
        else:
            self.active_req_matrix = np.where(
                self._released[None, :], self._reqk[:, :, 0], 0.0
            )

    @property
    def num_processors(self) -> int:
        """``m`` -- the number of processors."""
        return int(self.num_jobs.shape[0])

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask of released processors with unfinished jobs."""
        if self._all_released:
            return self.done < self.num_jobs
        return self._released & (self.done < self.num_jobs)

    @property
    def pending_mask(self) -> np.ndarray:
        """Boolean mask of processors with unfinished jobs.

        Released or not: arrival-aware policies reason about future
        work too.
        """
        return self.done < self.num_jobs

    @property
    def released_mask(self) -> np.ndarray:
        """Boolean mask of processors whose release time has arrived."""
        return self._released.copy()

    @property
    def jobs_remaining(self) -> np.ndarray:
        """``n_i(t)`` for every processor, as an int64 array."""
        return self.num_jobs - self.done

    @property
    def all_done(self) -> bool:
        """True once every job on every processor has finished."""
        return bool((self.done >= self.num_jobs).all())

    @property
    def waiting(self) -> bool:
        """True iff some processor has not been released yet.

        Its jobs are pending by construction.
        """
        return not self._all_released

    def begin_step(self) -> None:
        """Unmask processors whose release time has arrived."""
        if self._all_released:
            return
        newly = ~self._released & (self._release <= self.t)
        if newly.any():
            self._load_active(np.flatnonzero(newly))
            self._released |= newly
            self._all_released = bool(self._released.all())

    def _load_active(self, idx: np.ndarray) -> None:
        """Make job ``done[i]`` the active job of every processor in *idx*."""
        j = self.done[idx]
        self.remaining[idx] = self._work[idx, j]
        self.active_requirements[idx] = self._req[idx, j]
        self.active_weights[idx] = self._wgt[idx, j]
        self.active_deadlines[idx] = self._dl[idx, j]
        if self._reqk is not None:
            self.active_req_matrix[:, idx] = self._reqk[:, idx, j]

    def extend(self, instance: Instance) -> None:
        """Adopt *instance*, which appends jobs to this state's queues.

        The appended jobs are written into the padded tables, whose
        column capacity doubles whenever a queue outgrows it, so a
        stream of appends costs amortized ``O(1)`` table work per job.
        A released queue that had drained loads its first appended job
        as the active job, with its full work.  New processors need a
        checkpoint restore instead
        (:func:`repro.core.checkpoint.restore_runtime`).

        Raises:
            CheckpointError: if *instance* is not a tail-append
                extension over the same processors.
        """
        old = self.instance
        require_extension(old, instance, same_processors=True)
        for i, queue in enumerate(old.queues):
            grown = instance.queues[i]
            if grown is queue:
                continue
            n_old, n_new = len(queue), len(grown)
            self._reserve(n_new)
            self._write_jobs(i, n_old, grown[n_old:])
            self.num_jobs[i] = n_new
            if self.done[i] == n_old and self._released[i]:
                self._load_active(np.array([i]))
        self.instance = instance

    def _reserve(self, columns: int) -> None:
        """Grow the padded tables to at least *columns* job slots."""
        cap = self._work.shape[1]
        if columns <= cap:
            return
        cap = max(columns, 2 * cap)

        def grow(table: np.ndarray, fill: float) -> np.ndarray:
            """*table* copied into *cap* columns, padded with *fill*."""
            out = np.full((*table.shape[:-1], cap), fill, dtype=np.float64)
            out[..., : table.shape[-1]] = table
            return out

        self._req = grow(self._req, 0.0)
        self._work = grow(self._work, 0.0)
        self._wgt = grow(self._wgt, 0.0)
        self._dl = grow(self._dl, np.inf)
        if self._reqk is not None:
            self._reqk = grow(self._reqk, 0.0)

    def _write_jobs(self, i: int, start: int, jobs) -> None:
        """Fill table slots ``(i, start)`` onwards from *jobs*."""
        reqk = self._reqk
        for j, job in enumerate(jobs, start):
            self._req[i, j] = float(job.requirement)
            self._work[i, j] = float(job.work)
            self._wgt[i, j] = float(job.weight)
            if job.deadline is not None:
                self._dl[i, j] = float(job.deadline)
            if reqk is not None:
                for lane, r in enumerate(job.requirements):
                    reqk[lane, i, j] = float(r)

    def capture(self) -> dict:
        """JSON-serializable snapshot of the mutable float64 state.

        Floats survive JSON byte-exactly (``repr`` round-trips float64),
        so :meth:`restore` is bit-identical.  The padded requirement /
        work tables are immutable derivations of the instance and are
        rebuilt, not captured.
        """
        return {
            "t": self.t,
            "done": [int(x) for x in self.done],
            "remaining": [float(x) for x in self.remaining],
            "resource_spent": [float(x) for x in self.resource_spent],
            "released": [bool(x) for x in self._released],
        }

    def restore(self, data: dict) -> None:
        """Overwrite this state from a :meth:`capture` payload.

        As with :meth:`repro.core.state.ExecState.restore`, the payload
        may describe fewer processors than the instance this state was
        built over (extension restores keep the new queues' fresh
        state); the active-job views are recomputed from the padded
        tables in place, which preserves the ``k == 1`` aliasing of
        ``active_req_matrix``.

        Raises:
            CheckpointError: on malformed payloads or any inconsistency
                with the instance.
        """
        m = self.num_processors
        try:
            t = int(data["t"])
            done = np.array([int(x) for x in data["done"]], dtype=np.int64)
            remaining = np.array(
                [float(x) for x in data["remaining"]], dtype=np.float64
            )
            spent = np.array(
                [float(x) for x in data["resource_spent"]], dtype=np.float64
            )
            released = np.array(
                [bool(x) for x in data["released"]], dtype=bool
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed vector state payload: {exc}") from exc
        mm = int(done.shape[0])
        if not (
            mm == remaining.shape[0] == released.shape[0] and mm <= m
        ):
            raise CheckpointError(
                f"state payload describes {mm} processors "
                f"(remaining: {remaining.shape[0]}, released: "
                f"{released.shape[0]}) for an instance with {m}"
            )
        if spent.shape[0] != self.num_resources:
            raise CheckpointError(
                f"resource ledger has {spent.shape[0]} entries for "
                f"{self.num_resources} shared resource(s)"
            )
        if t < 0:
            raise CheckpointError(f"negative step counter {t}")
        nn = self.num_jobs[:mm]
        if (done < 0).any() or (done > nn).any():
            raise CheckpointError(
                f"done counts {done.tolist()} out of range for queues "
                f"of {nn.tolist()} jobs"
            )
        j = np.minimum(done, nn - 1)
        idx = np.arange(mm)
        cap = np.where(done < nn, self._work[idx, j], 0.0)
        if (remaining < 0.0).any() or (remaining > cap).any():
            raise CheckpointError(
                f"remaining work {remaining.tolist()} outside [0, work] "
                "for the active jobs"
            )
        self.t = t
        self.done[:mm] = done
        self.remaining[:mm] = remaining
        self.resource_spent[:] = spent
        self._released[:mm] = released
        self._all_released = bool(self._released.all())
        live = released & (done < nn)
        self.active_requirements[:mm] = np.where(live, self._req[idx, j], 0.0)
        self.active_weights[:mm] = np.where(live, self._wgt[idx, j], 0.0)
        self.active_deadlines[:mm] = np.where(live, self._dl[idx, j], np.inf)
        if self._reqk is not None:
            self.active_req_matrix[:, :mm] = np.where(
                live[None, :], self._reqk[:, idx, j], 0.0
            )

    def advance(self, finished: np.ndarray) -> None:
        """Complete the active jobs of the *finished* index array.

        Loads the successor job (or zeros the lane) on each.
        """
        self.done[finished] += 1
        has_next = finished[self.done[finished] < self.num_jobs[finished]]
        self._load_active(has_next)
        exhausted = finished[self.done[finished] >= self.num_jobs[finished]]
        self.remaining[exhausted] = 0.0
        self.active_requirements[exhausted] = 0.0
        self.active_weights[exhausted] = 0.0
        self.active_deadlines[exhausted] = np.inf
        if self._reqk is not None:
            self.active_req_matrix[:, exhausted] = 0.0


class VectorRuntime(KernelRuntime):
    """Float64 arithmetic adapter over :class:`VectorState`.

    Args:
        instance: the CRSharing instance.
        tol: completion / feasibility tolerance (see
            :class:`VectorBackend`).
    """

    #: Checkpoint backend tag (see :mod:`repro.core.checkpoint`).
    kind = "vector"

    __slots__ = ("instance", "state", "tol", "_m", "_k")

    def __init__(self, instance: Instance, *, tol: float = 1e-9) -> None:
        self.instance = instance
        self.state = VectorState(instance)
        self.tol = float(tol)
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

    def begin_step(self) -> None:
        """Unmask processors whose release time has arrived."""
        self.state.begin_step()

    def query(self, policy) -> np.ndarray:
        """Ask *policy* for a float64 share vector (or (k, m) matrix)."""
        return np.asarray(policy.shares_array(self.state), dtype=np.float64)

    def check(self, shares: np.ndarray) -> None:
        """Tolerance-aware feasibility check (shape, bounds, capacity).

        Expects a flat ``(m,)`` share vector for single-resource
        instances and a ``(k, m)`` share matrix for ``k > 1``; every
        resource row is checked against its unit capacity.
        """
        tol = self.tol
        t = self.state.t
        expected = (self._m,) if self._k == 1 else (self._k, self._m)
        if shares.shape != expected:
            raise InfeasibleAssignmentError(
                f"policy returned shape {shares.shape} shares for "
                f"{self._m} processors and {self._k} resource(s) at "
                f"step {t} (expected {expected})"
            )
        if (shares < -tol).any() or (shares > 1.0 + tol).any():
            raise InfeasibleAssignmentError(
                f"step {t}: share outside [0, 1] "
                f"(min={shares.min()}, max={shares.max()})"
            )
        # Per-resource capacity: sum over processors (the flat vector
        # is the k=1 row of the same formulation).
        totals = shares.sum(axis=-1, keepdims=False)
        worst = float(np.max(totals))
        if worst > 1.0 + tol:
            raise InfeasibleAssignmentError(
                f"step {t}: resource overused (sum of shares = "
                f"{worst} > 1)"
            )

    def apply(self, shares: np.ndarray) -> StepEvent:
        """Advance the float64 state one step and report it."""
        state = self.state
        tol = self.tol
        had_work = state.active_mask
        if self._k == 1:
            # Eq. (1)/(2): the requirement caps useful speed; a job
            # cannot absorb more than its remaining work in one step.
            speed = np.minimum(shares, state.active_requirements)
            work = np.minimum(speed, state.remaining)
            np.maximum(work, 0.0, out=work)
            state.remaining -= work
            state.resource_spent[0] += float(work.sum())
        else:
            work = self._multi_work(shares)
            state.remaining -= work
        finished = np.flatnonzero(had_work & (state.remaining <= tol))
        completed: tuple[tuple[int, int], ...] = ()
        if finished.size:
            completed = tuple(
                (int(i), int(state.done[i])) for i in finished
            )
            state.advance(finished)
        progressed = bool(finished.size) or float(work.sum()) > tol
        t = state.t
        state.t += 1
        return StepEvent(
            t=t,
            shares=shares,
            processed=work,
            completed=completed,
            had_work=had_work,
            progressed=progressed,
        )

    def _multi_work(self, shares: np.ndarray) -> np.ndarray:
        """Per-processor work under a ``(k, m)`` share matrix.

        The bottleneck rule of the multi-resource model: a job runs at
        speed fraction ``min_l min(s_l, r_l) / r_l`` over the
        resources it needs, progresses ``fraction * r*`` bottleneck
        work units (capped by its remaining work), and consumes
        ``progress_fraction * r_l`` of every resource ``l`` (tracked
        in ``resource_spent``).
        """
        state = self.state
        req = state.active_req_matrix  # (k, m)
        rstar = state.active_requirements
        needed = req > 0.0
        ratio = np.divide(
            np.minimum(shares, req),
            req,
            out=np.full_like(req, np.inf),
            where=needed,
        )
        fraction = ratio.min(axis=0)  # inf where no resource is needed
        positive = rstar > 0.0
        work = np.zeros(state.num_processors, dtype=np.float64)
        work[positive] = np.minimum(
            fraction[positive] * rstar[positive], state.remaining[positive]
        )
        np.maximum(work, 0.0, out=work)
        progress = np.zeros_like(work)
        progress[positive] = work[positive] / rstar[positive]
        state.resource_spent += (req * progress[None, :]).sum(axis=1)
        return work

    def describe_progress(self) -> str:
        """Completed-job counts, for limit-error messages."""
        return f"vector backend, done={self.state.done.tolist()}"

    def capture(self) -> dict:
        """Serializable snapshot of the runtime's mutable state.

        Carries the completion tolerance alongside the state so a
        restored runtime reproduces the same completion decisions.
        """
        data = self.state.capture()
        data["tol"] = self.tol
        return data

    def restore(self, data: dict) -> None:
        """Overwrite the runtime's state from a :meth:`capture` payload."""
        self.state.restore(data)
        if "tol" in data:
            self.tol = float(data["tol"])


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

        Policy registry names resolve first, so the ``shares_array``
        capability check below only ever judges genuine policy objects
        (an unresolved string used to be reported -- misleadingly -- as
        "does not implement shares_array").
        """
        policy = self._resolve_policy(policy)
        if not getattr(policy, "supports_vector", False):
            raise VectorizationUnsupportedError(
                f"policy {getattr(policy, 'name', policy)!r} does not "
                "implement shares_array; use backend='exact'"
            )
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
