"""Batched vectorized execution: step ``B`` instances per array program.

The vector backend removed the per-*processor* Python loop; this module
removes the per-*instance* one.  Campaign rows, local-search
neighborhoods, and restart candidates all run the same policy over many
(usually similar) instances, yet each kernel run pays the full per-step
NumPy dispatch cost for one ``m``-vector at a time.
:class:`BatchVectorRuntime` instead holds the execution state of ``B``
padded instance *lanes* as ``(B, m)`` / ``(B, k, m)`` float64 arrays
and advances all of them with one shared array program per step:

* batched water-filling (:func:`repro.algorithms.base.water_fill_array_batch`)
  turns each policy's priority order into per-lane grants with one
  flat-index gather + ``cumsum`` + clip + scatter;
* completion tests, release unmasking, and successor loading are
  batched boolean masks and flat-index gathers;
* every lane terminates early -- a finished lane's processors hold
  zero remaining work, so it receives all-zero shares and rides along
  masked; once the live fraction of a large batch drops below
  :data:`COMPACT_THRESHOLD` (50%), the state *compacts* to the
  surviving lanes so long-tail ragged batches stop paying for dead
  ones (``BatchRunResult.compactions`` counts the shrinks);
* objectives accumulate lane-wise through the standard
  ``ObjectiveAccumulator`` contract, so makespan / weighted flow /
  tardiness come out as length-``B`` vectors identical to ``B``
  separate :class:`~repro.backends.vector.VectorBackend` runs.

:class:`BatchVectorState` is the only float64 state and
:meth:`repro.algorithms.base.Policy.shares_batch` the only array policy
method: :class:`~repro.backends.vector.VectorRuntime` is the one-lane
case, running the same fill, the same feasibility check
(:func:`check_shares`) and the same step body
(:meth:`BatchVectorState.apply`) and reporting row 0.

Bit-consistency: padded processors carry zero jobs, zero remaining
work, and zero requirements, so they contribute exact ``0.0`` terms to
every cumsum and never perturb real grants; all apply arithmetic is
elementwise.  The crosscheck suite (``tests/backends``) pins batched
lanes against per-lane vector runs within ``1e-9`` and against the
exact backend's makespans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..core.checkpoint import require_extension, state_flag, state_int
from ..core.instance import Instance
from ..exceptions import (
    BackendError,
    CheckpointError,
    InfeasibleAssignmentError,
    SimulationLimitError,
    VectorizationUnsupportedError,
)
from ..kernels import (
    decide,
    note_fallback,
    replay_run,
    run_fused_instance,
)
from .base import resolve_objectives

__all__ = [
    "BatchVectorState",
    "BatchVectorRuntime",
    "BatchRunResult",
    "check_shares",
    "run_batch",
]

#: Live-lane fraction below which a ragged batch (of at least 4 lanes)
#: compacts to its surviving lanes; ``0`` disables compaction.
COMPACT_THRESHOLD = 0.5


class BatchVectorState:
    """The float64 execution state of ``B`` instance lanes.

    The one array state of the float path: :class:`BatchVectorRuntime`
    holds ``B`` lanes, and :class:`~repro.backends.vector.VectorRuntime`
    holds one (``B == 1``, no padding).  Every per-processor array has
    a leading lane axis, padded to the batch maxima (``m`` = max
    processors, ``k`` = max resources).  Policies read it through
    :meth:`~repro.algorithms.base.Policy.shares_batch` and must treat
    every array as read-only (the state owns the mutation).

    Padding invariants: a padded processor has ``num_jobs == 0``,
    zero remaining work, zero requirements, weight 0, deadline
    ``inf``, and release time 0 -- it is never pending, never active,
    and contributes exact zeros to every reduction.  A padded resource
    row is all zeros.  The job tables keep at least one padding column
    past every queue, so loading job ``num_jobs`` (a drained queue)
    reads exactly those zeros.

    Attributes:
        instances: the originating instances, in lane order.
        t: 0-based current step (shared by all lanes).
        num_lanes: ``B``.
        num_processors: the padded processor count ``m``.
        num_resources: the padded resource count ``k``.
        lane_num_processors: per lane, the real processor count.
        lane_num_resources: per lane, the real resource count.
        num_jobs: ``(B, m)`` total job counts.
        done: ``(B, m)`` completed job counts.
        remaining: ``(B, m)`` remaining work of the active jobs (0.0
            once a processor has finished everything, and 0.0 *before*
            its release time -- unreleased work is invisible to
            policies).  Multi-resource lanes measure work on the
            bottleneck resource.
        active_requirements: ``(B, m)`` bottleneck requirements
            ``r_ij`` of the active jobs -- the speed cap of Eq. (1).
        active_req_matrix: ``(B, k, m)`` per-resource requirements (for
            ``k == 1`` a reshaped alias of ``active_requirements``).
        active_weights: ``(B, m)`` objective weights.
        active_deadlines: ``(B, m)`` due steps (``inf`` when absent).
        resource_spent: ``(B, k)`` cumulative resource-time used.
    """

    __slots__ = (
        "instances",
        "t",
        "num_lanes",
        "num_resources",
        "lane_num_processors",
        "lane_num_resources",
        "num_jobs",
        "done",
        "remaining",
        "active_requirements",
        "active_req_matrix",
        "active_weights",
        "active_deadlines",
        "resource_spent",
        "_req",
        "_reqk",
        "_work",
        "_wgt",
        "_dl",
        "_release",
        "_released",
        "_all_released",
    )

    def __init__(self, instances: Sequence[Instance]) -> None:
        if not instances:
            raise BackendError("batch state needs at least one instance")
        B = len(instances)
        m = max(inst.num_processors for inst in instances)
        # One padding column past the longest queue (see the class doc).
        cols = max(inst.max_jobs for inst in instances) + 1
        k = max(inst.num_resources for inst in instances)
        self.instances = tuple(instances)
        self.t = 0
        self.num_lanes = B
        self.num_resources = k
        self.lane_num_processors = np.array(
            [inst.num_processors for inst in instances], dtype=np.int64
        )
        self.lane_num_resources = np.array(
            [inst.num_resources for inst in instances], dtype=np.int64
        )
        self.num_jobs = np.zeros((B, m), dtype=np.int64)
        self.done = np.zeros((B, m), dtype=np.int64)
        self._req = np.zeros((B, m, cols), dtype=np.float64)
        self._work = np.zeros((B, m, cols), dtype=np.float64)
        self._wgt = np.zeros((B, m, cols), dtype=np.float64)
        self._dl = np.full((B, m, cols), np.inf, dtype=np.float64)
        self._release = np.zeros((B, m), dtype=np.int64)
        self._reqk = (
            None if k == 1 else np.zeros((B, k, m, cols), dtype=np.float64)
        )
        # The same job objects -- and, queue by queue, the same *queue
        # tuples* -- recur across lanes (neighborhood batches permute
        # one bag, and each move touches at most two queues), so float
        # conversions are memoized as rows of a shared table, row
        # indices are memoized per queue, and slots are filled with a
        # handful of fancy-index scatters instead of five scalar
        # writes per job.
        rows: dict[int, int] = {}
        table: list[tuple[float, float, float, float]] = []
        table_k: list[tuple[float, ...]] = []
        q_rows: dict[tuple, np.ndarray] = {}
        entry_b: list[int] = []
        entry_i: list[int] = []
        entry_n: list[int] = []
        r_parts: list[np.ndarray] = []
        for b, inst in enumerate(instances):
            releases = inst.releases
            for i, queue in enumerate(inst.queues):
                n = len(queue)
                self.num_jobs[b, i] = n
                self._release[b, i] = releases[i]
                if not n:  # pragma: no cover - queues are never empty
                    continue
                ri_q = q_rows.get(queue)
                if ri_q is None:
                    idxs = []
                    for job in queue:
                        row = rows.get(id(job))
                        if row is None:
                            row = len(table)
                            rows[id(job)] = row
                            table.append(
                                (
                                    float(job.requirement),
                                    float(job.work),
                                    float(job.weight),
                                    (
                                        np.inf
                                        if job.deadline is None
                                        else float(job.deadline)
                                    ),
                                )
                            )
                            if self._reqk is not None:
                                reqs = tuple(
                                    float(r) for r in job.requirements
                                )
                                table_k.append(
                                    reqs + (0.0,) * (k - len(reqs))
                                )
                        idxs.append(row)
                    ri_q = np.array(idxs, dtype=np.intp)
                    q_rows[queue] = ri_q
                entry_b.append(b)
                entry_i.append(i)
                entry_n.append(n)
                r_parts.append(ri_q)
        if r_parts:
            tab = np.array(table, dtype=np.float64)  # (J, 4)
            counts = np.array(entry_n, dtype=np.intp)
            bi = np.repeat(np.array(entry_b, dtype=np.intp), counts)
            ii = np.repeat(np.array(entry_i, dtype=np.intp), counts)
            total = int(counts.sum())
            starts = np.cumsum(counts) - counts
            ji = np.arange(total, dtype=np.intp) - np.repeat(starts, counts)
            ri = np.concatenate(r_parts)
            self._req[bi, ii, ji] = tab[ri, 0]
            self._work[bi, ii, ji] = tab[ri, 1]
            self._wgt[bi, ii, ji] = tab[ri, 2]
            self._dl[bi, ii, ji] = tab[ri, 3]
            if self._reqk is not None:
                tab_k = np.array(table_k, dtype=np.float64)  # (J, k)
                self._reqk[bi, :, ii, ji] = tab_k[ri]
        self._released = self._release <= 0
        self._all_released = bool(self._released.all())
        self.remaining = np.where(self._released, self._work[:, :, 0], 0.0)
        self.active_requirements = np.where(
            self._released, self._req[:, :, 0], 0.0
        )
        self.active_weights = np.where(self._released, self._wgt[:, :, 0], 0.0)
        self.active_deadlines = np.where(
            self._released, self._dl[:, :, 0], np.inf
        )
        self.resource_spent = np.zeros((B, k), dtype=np.float64)
        if self._reqk is None:
            self.active_req_matrix = self.active_requirements.reshape(B, 1, m)
        else:
            self.active_req_matrix = np.where(
                self._released[:, None, :], self._reqk[:, :, :, 0], 0.0
            )

    @property
    def num_processors(self) -> int:
        """The padded processor count ``m``."""
        return int(self.num_jobs.shape[1])

    @property
    def active_mask(self) -> np.ndarray:
        """``(B, m)`` mask of released processors with unfinished jobs."""
        if self._all_released:
            return self.done < self.num_jobs
        return self._released & (self.done < self.num_jobs)

    @property
    def pending_mask(self) -> np.ndarray:
        """``(B, m)`` mask of processors with unfinished jobs.

        Released or not: arrival-aware policies reason about future
        work too.
        """
        return self.done < self.num_jobs

    @property
    def released_mask(self) -> np.ndarray:
        """``(B, m)`` mask of processors whose release time has arrived."""
        return self._released.copy()

    @property
    def jobs_remaining(self) -> np.ndarray:
        """``(B, m)`` remaining job counts ``n_i(t)``."""
        return self.num_jobs - self.done

    @property
    def lane_done(self) -> np.ndarray:
        """``(B,)`` mask of lanes whose every job has finished."""
        return ~(self.done < self.num_jobs).any(axis=1)

    @property
    def all_done(self) -> bool:
        """True once every lane has finished."""
        return bool((self.done >= self.num_jobs).all())

    @property
    def lane_waiting(self) -> np.ndarray:
        """``(B,)`` mask of lanes with unreleased pending processors."""
        if self._all_released:
            return np.zeros(self.num_lanes, dtype=bool)
        return (~self._released & (self.num_jobs > 0)).any(axis=1)

    def begin_step(self) -> None:
        """Unmask processors whose release time has arrived (all lanes)."""
        if self._all_released:
            return
        newly = ~self._released & (self._release <= self.t)
        if newly.any():
            self._load_active(*np.nonzero(newly))
            self._released |= newly
            self._all_released = bool(self._released.all())

    def _load_active(self, bl, bi) -> None:
        """Make job ``done[b, i]`` the active job at the ``(b, i)`` pairs."""
        d = self.done[bl, bi]
        self.remaining[bl, bi] = self._work[bl, bi, d]
        self.active_requirements[bl, bi] = self._req[bl, bi, d]
        self.active_weights[bl, bi] = self._wgt[bl, bi, d]
        self.active_deadlines[bl, bi] = self._dl[bl, bi, d]
        if self._reqk is not None:
            self.active_req_matrix[bl, :, bi] = self._reqk[bl, :, bi, d]

    def apply(self, shares: np.ndarray, tol: float):
        """Advance every lane one step under *shares* (Eq. (1)/(2)).

        The requirement caps useful speed, and a job cannot absorb more
        than its remaining work in one step; ``k > 1`` lanes follow the
        bottleneck rule (:meth:`_multi_work`).  A job completes when
        its remaining work drops to ``<= tol``.

        Returns:
            ``(work, had_work, finished, jobs, lane_work)``: the
            ``(B, m)`` work processed, the ``(B, m)`` mask of
            processors active when the step began, the flat slots
            ``lane * m + processor`` whose job completed (ascending),
            the completed job indices at those slots, and the ``(B,)``
            work total per lane.
        """
        had_work = self.active_mask
        if self.num_resources == 1:
            work = np.minimum(shares, self.active_requirements)
            np.minimum(work, self.remaining, out=work)
            np.maximum(work, 0.0, out=work)
            lane_work = work.sum(axis=1)
            self.resource_spent[:, 0] += lane_work
        else:
            work = self._multi_work(shares)
            lane_work = work.sum(axis=1)
        self.remaining -= work
        finished = np.flatnonzero(had_work & (self.remaining <= tol))
        jobs = self.advance(finished) if finished.size else finished
        self.t += 1
        return work, had_work, finished, jobs, lane_work

    def _multi_work(self, shares: np.ndarray) -> np.ndarray:
        """Per-processor work under a ``(B, k, m)`` share tensor.

        The bottleneck rule of the multi-resource model, elementwise
        over lanes: a job runs at speed fraction
        ``min_l min(s_l, r_l) / r_l`` over the resources it needs,
        progresses ``fraction * r*`` bottleneck work units (capped by
        its remaining work), and consumes ``progress_fraction * r_l``
        of every resource ``l`` (tracked in ``resource_spent``).
        Single-resource lanes in a mixed batch follow the scalar rule,
        exactly as a one-lane state of that instance would.
        """
        req = self.active_req_matrix  # (B, k, m)
        rstar = self.active_requirements  # (B, m)
        needed = req > 0.0
        ratio = np.divide(
            np.minimum(shares, req),
            req,
            out=np.full_like(req, np.inf),
            where=needed,
        )
        fraction = ratio.min(axis=1)  # (B, m); inf where nothing needed
        positive = rstar > 0.0
        work = np.zeros_like(rstar)
        np.multiply(fraction, rstar, out=work, where=positive)
        np.minimum(work, self.remaining, out=work, where=positive)
        np.maximum(work, 0.0, out=work)
        scalar = self.lane_num_resources == 1
        if scalar.any():
            row = np.minimum(shares[:, 0, :], rstar)
            scalar_work = np.minimum(row, self.remaining)
            np.maximum(scalar_work, 0.0, out=scalar_work)
            work[scalar] = scalar_work[scalar]
        progress = np.divide(work, rstar, out=np.zeros_like(work), where=positive)
        self.resource_spent += (req * progress[:, None, :]).sum(axis=2)
        return work

    def advance(self, slots: np.ndarray) -> np.ndarray:
        """Complete the active jobs at the flat ``lane * m + processor`` *slots*.

        Loads each slot's successor job; a drained queue loads the
        padding column, which zeros the slot.  Returns the completed
        job indices.
        """
        # The state arrays are C-contiguous, so reshape(-1) is a view
        # and the flat scatters below write through.
        cols = self._work.shape[-1]
        done = self.done.reshape(-1)
        jobs = done[slots]
        nxt = jobs + 1
        done[slots] = nxt
        cell = slots * cols + nxt
        self.remaining.reshape(-1)[slots] = self._work.take(cell)
        self.active_requirements.reshape(-1)[slots] = self._req.take(cell)
        self.active_weights.reshape(-1)[slots] = self._wgt.take(cell)
        self.active_deadlines.reshape(-1)[slots] = self._dl.take(cell)
        if self._reqk is not None:
            lanes, procs = np.divmod(slots, self.num_processors)
            self.active_req_matrix[lanes, :, procs] = self._reqk[
                lanes, :, procs, nxt
            ]
        return jobs

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the batch to the lanes selected by the *keep* mask.

        Dropped lanes must already be finished: a dead lane holds only
        exact zeros (shares, remaining work, requirements), and every
        step operation is elementwise or a lane-row reduction, so
        removing such lanes cannot perturb any surviving lane's
        arithmetic.  Callers own the lane-index bookkeeping (results
        are reported against original lane indices via an origin map).
        """
        idx = np.flatnonzero(keep)
        if not idx.size:
            raise BackendError("compaction must keep at least one lane")
        self.instances = tuple(self.instances[int(b)] for b in idx)
        self.num_lanes = int(idx.size)
        self.lane_num_processors = self.lane_num_processors[idx]
        self.lane_num_resources = self.lane_num_resources[idx]
        self.num_jobs = self.num_jobs[idx]
        self.done = self.done[idx]
        self._req = self._req[idx]
        self._work = self._work[idx]
        self._wgt = self._wgt[idx]
        self._dl = self._dl[idx]
        self._release = self._release[idx]
        self._released = self._released[idx]
        self._all_released = bool(self._released.all())
        self.remaining = self.remaining[idx]
        self.active_requirements = self.active_requirements[idx]
        self.active_weights = self.active_weights[idx]
        self.active_deadlines = self.active_deadlines[idx]
        self.resource_spent = self.resource_spent[idx]
        if self._reqk is None:
            # The k == 1 share-matrix view aliases active_requirements;
            # slicing produced a fresh array, so rebuild the view.
            self.active_req_matrix = self.active_requirements.reshape(
                self.num_lanes, 1, self.num_processors
            )
        else:
            self._reqk = self._reqk[idx]
            self.active_req_matrix = self.active_req_matrix[idx]

    # ------------------------------------------------------------------
    # One-lane operations (the live runtime of VectorRuntime)
    # ------------------------------------------------------------------
    def _require_one_lane(self, what: str) -> None:
        if self.num_lanes != 1:
            raise BackendError(
                f"{what} needs a one-lane state (this one has "
                f"{self.num_lanes} lanes)"
            )

    def extend(self, instance: Instance) -> None:
        """Adopt *instance*, which appends jobs to this state's queues.

        One-lane states only.  The appended jobs are written into the
        job tables, whose column capacity doubles whenever a queue
        outgrows it, so a stream of appends costs amortized ``O(1)``
        table work per job.  A released queue that had drained loads
        its first appended job as the active job, with its full work.
        New processors need a checkpoint restore instead
        (:func:`repro.core.checkpoint.restore_runtime`).

        Raises:
            CheckpointError: if *instance* is not a tail-append
                extension over the same processors.
        """
        self._require_one_lane("extend")
        old = self.instances[0]
        require_extension(old, instance, same_processors=True)
        for i, queue in enumerate(old.queues):
            grown = instance.queues[i]
            if grown is queue:
                continue
            n_old, n_new = len(queue), len(grown)
            self._reserve(n_new + 1)
            self._write_jobs(i, n_old, grown[n_old:])
            self.num_jobs[0, i] = n_new
            if self.done[0, i] == n_old and self._released[0, i]:
                self._load_active(0, i)
        self.instances = (instance,)

    def _reserve(self, columns: int) -> None:
        """Grow the job tables to at least *columns* job slots."""
        cap = self._work.shape[-1]
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
        """Fill lane 0's table slots ``(i, start)`` onwards from *jobs*."""
        reqk = self._reqk
        for j, job in enumerate(jobs, start):
            self._req[0, i, j] = float(job.requirement)
            self._work[0, i, j] = float(job.work)
            self._wgt[0, i, j] = float(job.weight)
            if job.deadline is not None:
                self._dl[0, i, j] = float(job.deadline)
            if reqk is not None:
                for lane, r in enumerate(job.requirements):
                    reqk[0, lane, i, j] = float(r)

    def capture(self) -> dict:
        """JSON-serializable snapshot of a one-lane state.

        Floats survive JSON byte-exactly (``repr`` round-trips float64),
        so :meth:`restore` is bit-identical.  The job tables are
        immutable derivations of the instance and are rebuilt, not
        captured.
        """
        self._require_one_lane("capture")
        return {
            "t": self.t,
            "done": self.done[0].tolist(),
            "remaining": self.remaining[0].tolist(),
            "resource_spent": self.resource_spent[0].tolist(),
            "released": self._released[0].tolist(),
        }

    def restore(self, data: dict) -> None:
        """Overwrite a one-lane state from a :meth:`capture` payload.

        As with :meth:`repro.core.state.ExecState.restore`, the payload
        may describe fewer processors than the instance this state was
        built over (extension restores keep the new queues' fresh
        state); the active-job views are reloaded from the job tables
        in place, which preserves the ``k == 1`` aliasing of
        ``active_req_matrix``.

        Raises:
            CheckpointError: on malformed payloads (including a
                non-integer step counter or non-finite work) or any
                inconsistency with the instance.
        """
        self._require_one_lane("restore")
        m = self.num_processors
        try:
            t = state_int(data["t"])
            done = np.array(
                [state_int(x) for x in data["done"]], dtype=np.int64
            )
            remaining = np.array(
                [float(x) for x in data["remaining"]], dtype=np.float64
            )
            spent = np.array(
                [float(x) for x in data["resource_spent"]], dtype=np.float64
            )
            released = np.array(
                [state_flag(x) for x in data["released"]], dtype=bool
            )
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
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
        if not np.isfinite(spent).all():
            raise CheckpointError(f"non-finite resource ledger {spent.tolist()}")
        if t < 0:
            raise CheckpointError(f"negative step counter {t}")
        nn = self.num_jobs[0, :mm]
        if (done < 0).any() or (done > nn).any():
            raise CheckpointError(
                f"done counts {done.tolist()} out of range for queues "
                f"of {nn.tolist()} jobs"
            )
        idx = np.arange(mm)
        # A drained queue reads the padding column: capacity 0.
        cap = self._work[0, idx, done]
        if not ((remaining >= 0.0) & (remaining <= cap)).all():
            raise CheckpointError(
                f"remaining work {remaining.tolist()} outside [0, work] "
                "for the active jobs"
            )
        self.t = t
        self.done[0, :mm] = done
        self.remaining[0, :mm] = remaining
        self.resource_spent[0] = spent
        self._released[0, :mm] = released
        self._all_released = bool(self._released.all())
        live = released & (done < nn)
        self.active_requirements[0, :mm] = np.where(
            live, self._req[0, idx, done], 0.0
        )
        self.active_weights[0, :mm] = np.where(
            live, self._wgt[0, idx, done], 0.0
        )
        self.active_deadlines[0, :mm] = np.where(
            live, self._dl[0, idx, done], np.inf
        )
        if self._reqk is not None:
            self.active_req_matrix[0, :, :mm] = np.where(
                live[None, :], self._reqk[0][:, idx, done], 0.0
            )


def require_array_policy(policy) -> None:
    """Raise unless *policy* implements the array path (``shares_batch``).

    Raises:
        VectorizationUnsupportedError: for exact-only policies.
    """
    if not getattr(policy, "supports_batch", False):
        raise VectorizationUnsupportedError(
            f"policy {getattr(policy, 'name', policy)!r} does not "
            "implement shares_batch; use backend='exact'"
        )


def check_shares(state: BatchVectorState, shares: np.ndarray, tol: float) -> None:
    """Tolerance-aware feasibility check of one step's shares, every lane.

    Expects one ``(m,)`` row per lane for single-resource states and a
    ``(k, m)`` matrix per lane otherwise; every share must lie in
    ``[0, 1]`` and every resource row sum to at most 1, each within
    *tol*.  NaN and infinite shares are rejected too: the min/max
    reductions propagate NaN, so no comparison can let one through.

    Raises:
        InfeasibleAssignmentError: wrong shape, non-finite or
            out-of-range share, or an overused resource.
    """
    B, m, k = state.num_lanes, state.num_processors, state.num_resources
    t = state.t
    expected = (B, m) if k == 1 else (B, k, m)
    if shares.shape != expected:
        raise InfeasibleAssignmentError(
            f"policy returned shape {shares.shape} shares for {B} "
            f"lane(s), {m} processors and {k} resource(s) at step {t} "
            f"(expected {expected})"
        )
    lo, hi = shares.min(), shares.max()
    if not (lo >= -tol and hi <= 1.0 + tol):
        what = (
            "share outside [0, 1]"
            if math.isfinite(lo) and math.isfinite(hi)
            else "non-finite share"
        )
        raise InfeasibleAssignmentError(
            f"step {t}: {what} (min={lo}, max={hi})"
        )
    totals = shares.sum(axis=-1)
    worst = totals.max()
    if worst > 1.0 + tol:
        where = ""
        if B > 1:
            lane = int(np.argmax(totals.reshape(B, -1).max(axis=1)))
            where = f" in lane {lane}"
        raise InfeasibleAssignmentError(
            f"step {t}: resource overused{where} (sum of shares = "
            f"{worst} > 1)"
        )


@dataclass(slots=True)
class BatchRunResult:
    """Outcome of one batched run.

    Attributes:
        makespans: ``(B,)`` int64 makespans, in lane order.
        objective_values: per requested objective, the length-``B``
            list of lane values (same numbers ``B`` separate
            :class:`~repro.backends.vector.VectorBackend` runs would
            report).
        lanes: ``B``.
        steps: shared steps the batch executed (= the largest lane
            makespan; finished lanes ride along masked).
        lane_steps: sum of per-lane makespans -- the useful work the
            batch amortized its dispatch over.
        wall_seconds: end-to-end wall time of the run.
        compactions: how many times the runtime shrank the batch to
            its surviving lanes (ragged batches only; 0 when every
            lane finishes near the same step).
        compiled: True when the run was served by the fused compiled
            driver instead of the per-step array program.
    """

    makespans: np.ndarray
    objective_values: dict[str, list]
    lanes: int
    steps: int
    lane_steps: int
    wall_seconds: float
    compactions: int = 0
    compiled: bool = False


class BatchVectorRuntime:
    """Step ``B`` instances through one policy with shared array programs.

    Args:
        instances: the batch, one lane per instance (ragged batches --
            mixed processor counts, queue lengths, resource counts,
            releases -- are padded; mixed makespans terminate lanes
            early).
        policy: the policy (registry name or object).  Must implement
            :meth:`~repro.algorithms.base.Policy.shares_batch`.
        tol: completion / feasibility tolerance (as
            :class:`~repro.backends.vector.VectorBackend`).

    Like :class:`~repro.backends.vector.VectorBackend`, a run takes the
    fused compiled driver whenever :func:`repro.kernels.decide` allows
    it and the per-step array program otherwise.
    """

    def __init__(
        self,
        instances: Sequence[Instance],
        policy,
        *,
        tol: float = 1e-9,
    ) -> None:
        from ..algorithms import resolve_policy  # local: avoid import cycle

        if tol <= 0:
            raise ValueError("tol must be positive")
        policy = resolve_policy(policy)
        require_array_policy(policy)
        self.policy = policy
        self.state = BatchVectorState(instances)
        self.tol = float(tol)

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------
    def _query(self) -> np.ndarray:
        """One share row per lane from the policy's ``shares_batch``."""
        return np.asarray(self.policy.shares_batch(self.state), dtype=np.float64)

    def _apply(
        self, shares: np.ndarray
    ) -> tuple[list[tuple[int, int, int]], np.ndarray]:
        """Advance every lane one step.

        Returns the completed ``(lane, processor, job)`` triples and
        the per-lane progress mask.
        """
        state = self.state
        _, _, finished, jobs, lane_work = state.apply(shares, self.tol)
        progressed = lane_work > self.tol
        if not finished.size:
            return [], progressed
        lanes, procs = np.divmod(finished, state.num_processors)
        progressed[lanes] = True
        return list(zip(lanes.tolist(), procs.tolist(), jobs.tolist())), progressed

    # ------------------------------------------------------------------
    # The batched loop
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        objectives: Iterable = (),
        max_steps: int | None = None,
        stall_limit: int = 3,
    ) -> BatchRunResult:
        """Drive every lane to completion and report per-lane results.

        Semantics mirror :func:`repro.core.kernel.run_kernel` per lane:
        per-lane step limits (*max_steps* or each instance's
        :func:`~repro.core.simulator.default_step_limit`), per-lane
        stall detection (*stall_limit* consecutive zero-progress steps
        while not waiting on a release), and lane-wise objective
        accumulation through the standard accumulator contract.

        Under an installed telemetry session the run is wrapped in a
        ``batched.run`` span (with per-step ``batched.step`` records
        when tracing is on) and fills the ``batch.lanes`` gauge plus
        ``batched.steps`` / ``batched.lane_steps`` / ``batched.runs``
        counters.

        Raises:
            SimulationLimitError: when any live lane exceeds its step
                limit or stalls.
            InfeasibleAssignmentError: when the policy emits an
                invalid share row for any lane.
        """
        from ..core.simulator import default_step_limit  # lazy: no cycle
        from ..telemetry import get_session

        objectives = resolve_objectives(tuple(objectives))
        decision = decide(self.policy)
        if decision.code is not None:
            return self._run_compiled(
                decision.code,
                objectives=objectives,
                max_steps=max_steps,
                stall_limit=stall_limit,
            )
        note_fallback(decision.reason)
        state = self.state
        B = state.num_lanes
        if max_steps is None:
            limits = np.array(
                [default_step_limit(inst) for inst in state.instances],
                dtype=np.int64,
            )
        else:
            limits = np.full(B, int(max_steps), dtype=np.int64)
        accumulators = [
            [obj.start(inst) for inst in state.instances]
            for obj in objectives
        ]
        values: list[list] = [[None] * B for _ in objectives]
        makespans = np.zeros(B, dtype=np.int64)
        stalled = np.zeros(B, dtype=np.int64)
        # Results are reported against *original* lane indices; the
        # state may compact to its surviving lanes mid-run, so this
        # map tracks where each current lane started.
        origin = np.arange(B, dtype=np.int64)
        threshold = COMPACT_THRESHOLD
        compactions = 0
        live = ~state.lane_done
        # Lanes born finished (no jobs at all) have makespan 0.
        for b in np.flatnonzero(~live):
            for o in range(len(objectives)):
                values[o][b] = accumulators[o][b].finish(0)
        t0 = perf_counter()
        session = get_session()
        tracer = session.tracer if session is not None else None
        trace_steps = tracer is not None and tracer.enabled
        steps = 0
        next_limit = int(limits.min())  # no live lane's limit is lower
        while live.any():
            if state.t >= next_limit:
                over = live & (state.t >= limits)
                if over.any():
                    lane = int(np.argmax(over))
                    raise SimulationLimitError(
                        f"batched run: lane {int(origin[lane])} did not "
                        f"finish within {int(limits[lane])} steps "
                        f"(done={state.done[lane].tolist()})"
                    )
                next_limit = int(limits[live].min())
            ts = perf_counter() if trace_steps else 0.0
            t = state.t
            state.begin_step()
            shares = self._query()
            check_shares(state, shares, self.tol)
            completed, progressed = self._apply(shares)
            steps += 1
            if objectives:
                for b, i, j in completed:
                    for o in range(len(objectives)):
                        accumulators[o][b].complete((i, j), t)
            if completed:  # a lane can only finish on a completing step
                newly_done = live & state.lane_done
                if newly_done.any():
                    for b in np.flatnonzero(newly_done):
                        ob = int(origin[b])
                        makespans[ob] = t + 1
                        for o in range(len(objectives)):
                            values[o][ob] = accumulators[o][b].finish(t + 1)
                    live &= ~newly_done
            if progressed[live].all():
                stalled[:] = 0
            else:
                stalled = np.where(
                    ~live | progressed | state.lane_waiting, 0, stalled + 1
                )
                if (stalled >= stall_limit).any():
                    lane = int(np.argmax(stalled >= stall_limit))
                    raise SimulationLimitError(
                        f"batched run: lane {int(origin[lane])} made no "
                        f"progress for {int(stalled[lane])} consecutive steps "
                        f"(t={state.t}); aborting"
                    )
            if trace_steps:
                tracer.complete(
                    "batched.step",
                    ts,
                    perf_counter() - ts,
                    t=t,
                    live=int(live.sum()),
                    completed=len(completed),
                )
            if (
                threshold
                and live.size >= 4
                and 0 < live.sum() < threshold * live.size
            ):
                state.compact(live)
                origin = origin[live]
                limits = limits[live]
                stalled = stalled[live]
                keep = np.flatnonzero(live)
                for o in range(len(objectives)):
                    accumulators[o] = [accumulators[o][b] for b in keep]
                live = np.ones(state.num_lanes, dtype=bool)
                compactions += 1
        wall = perf_counter() - t0
        result = BatchRunResult(
            makespans=makespans,
            objective_values={
                obj.name: values[o] for o, obj in enumerate(objectives)
            },
            lanes=B,
            steps=steps,
            lane_steps=int(makespans.sum()),
            wall_seconds=wall,
            compactions=compactions,
        )
        if session is not None:
            self._record_telemetry(session, result, start=t0)
        return result

    def _run_compiled(
        self,
        policy_code: int,
        *,
        objectives,
        max_steps: int | None,
        stall_limit: int,
    ) -> BatchRunResult:
        """Serve the batch through the fused compiled driver, lane by lane.

        Each lane is one whole-run JIT region (no per-step Python at
        all), then its completion table is replayed through the
        objective recorders -- same numbers, same exceptions as the
        per-step batched loop.
        """
        from ..core.kernel import ObjectiveRecorder  # lazy: no cycle
        from ..telemetry import get_session

        instances = self.state.instances
        B = len(instances)
        makespans = np.zeros(B, dtype=np.int64)
        values: list[list] = [[None] * B for _ in objectives]
        t0 = perf_counter()
        for b, inst in enumerate(instances):
            recorders = [ObjectiveRecorder(obj, inst) for obj in objectives]
            makespan, completion = run_fused_instance(
                inst,
                policy_code,
                tol=self.tol,
                max_steps=max_steps,
                stall_limit=stall_limit,
                label=f"batched lane {b}",
            )
            replay_run(completion, makespan, recorders)
            makespans[b] = makespan
            for o, recorder in enumerate(recorders):
                values[o][b] = recorder.value
        wall = perf_counter() - t0
        result = BatchRunResult(
            makespans=makespans,
            objective_values={
                obj.name: values[o] for o, obj in enumerate(objectives)
            },
            lanes=B,
            steps=int(makespans.max()) if B else 0,
            lane_steps=int(makespans.sum()),
            wall_seconds=wall,
            compactions=0,
            compiled=True,
        )
        session = get_session()
        if session is not None:
            session.metrics.counter("compiled.runs").inc(B)
            session.metrics.counter("compiled.steps").inc(result.lane_steps)
            self._record_telemetry(session, result, start=t0)
        return result

    def _record_telemetry(
        self, session, result: BatchRunResult, *, start: float
    ) -> None:
        """Emit the batched-run span and metrics."""
        metrics = session.metrics
        metrics.gauge("batch.lanes").set(result.lanes)
        metrics.counter("batched.runs").inc()
        metrics.counter("batched.steps").inc(result.steps)
        metrics.counter("batched.lane_steps").inc(result.lane_steps)
        if result.compactions:
            metrics.counter("batch.compactions").inc(result.compactions)
        session.tracer.complete(
            "batched.run",
            start,
            result.wall_seconds,
            lanes=result.lanes,
            steps=result.steps,
            lane_steps=result.lane_steps,
            policy=str(getattr(self.policy, "name", "?")),
            m=self.state.num_processors,
            resources=self.state.num_resources,
            compiled=result.compiled,
        )


def run_batch(
    instances: Sequence[Instance],
    policy,
    *,
    objectives: Iterable = (),
    tol: float = 1e-9,
    max_steps: int | None = None,
    stall_limit: int = 3,
) -> BatchRunResult:
    """Run *policy* over a batch of instances in one shared array program.

    The convenience entry point over :class:`BatchVectorRuntime`: the
    batched counterpart of ``B`` separate
    ``get_backend("vector").run(...)`` calls, returning the same
    makespans and objective values as length-``B`` vectors.

    Example:
        >>> from repro.core import Instance
        >>> batch = [
        ...     Instance.from_percent([[50, 50], [50, 50]]),
        ...     Instance.from_percent([[100], [100], [100]]),
        ... ]
        >>> run_batch(batch, "greedy-balance").makespans.tolist()
        [2, 3]
    """
    runtime = BatchVectorRuntime(instances, policy, tol=tol)
    return runtime.run(
        objectives=objectives, max_steps=max_steps, stall_limit=stall_limit
    )
