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
  ``take_along_axis`` + ``cumsum`` + ``clip``;
* completion tests, release unmasking, and successor loading are
  batched boolean masks and fancy-indexed gathers;
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

Policies advertise a batched priority path via
:meth:`repro.algorithms.base.Policy.shares_batch` (the water-filling
family implements it); policies with only a single-lane
``shares_array`` are stepped lane by lane through a
:class:`_LaneView` adapter -- correct, just without the batched
speedup.  Multi-resource (``k > 1``) lanes likewise fall back to the
per-lane depletion-rounds fill inside the batched step.

Bit-consistency: padded processors carry zero jobs, zero remaining
work, and zero requirements, so they contribute exact ``0.0`` terms to
every cumsum and never perturb real grants; all apply arithmetic is
elementwise.  The crosscheck suite (``tests/backends``) pins batched
lanes against per-lane vector runs within ``1e-9`` and against the
exact backend's makespans.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..core.instance import Instance
from ..exceptions import (
    BackendError,
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
    "run_batch",
]

#: Live-lane fraction below which a ragged batch (of at least 4 lanes)
#: compacts to its surviving lanes; ``0`` disables compaction.
COMPACT_THRESHOLD = 0.5


class BatchVectorState:
    """Float64 view of ``B`` execution states for ``Policy.shares_batch``.

    The batch analogue of :class:`~repro.backends.vector.VectorState`:
    every per-processor array gains a leading lane axis, padded to the
    batch maxima (``m`` = max processors, ``k`` = max resources,
    ``n`` = max queue length).  Policies must treat every array as
    read-only (the runtime owns the mutation).

    Padding invariants: a padded processor has ``num_jobs == 0``,
    zero remaining work, zero requirements, weight 0, deadline
    ``inf``, and release time 0 -- it is never pending, never active,
    and contributes exact zeros to every reduction.  A padded resource
    row is all zeros.

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
        remaining: ``(B, m)`` remaining work of the active jobs.
        active_requirements: ``(B, m)`` bottleneck requirements.
        active_req_matrix: ``(B, k, m)`` per-resource requirements.
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
        nmax = max(inst.max_jobs for inst in instances)
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
        self._req = np.zeros((B, m, nmax), dtype=np.float64)
        self._work = np.zeros((B, m, nmax), dtype=np.float64)
        self._wgt = np.zeros((B, m, nmax), dtype=np.float64)
        self._dl = np.full((B, m, nmax), np.inf, dtype=np.float64)
        self._release = np.zeros((B, m), dtype=np.int64)
        self._reqk = (
            None if k == 1 else np.zeros((B, k, m, nmax), dtype=np.float64)
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
        """``(B, m)`` mask of processors with unfinished jobs."""
        return self.done < self.num_jobs

    @property
    def released_mask(self) -> np.ndarray:
        """``(B, m)`` mask of processors whose release time has arrived."""
        return self._released.copy()

    @property
    def jobs_remaining(self) -> np.ndarray:
        """``(B, m)`` remaining job counts."""
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
            bl, bi = np.nonzero(newly)
            d = self.done[bl, bi]
            self.remaining[bl, bi] = self._work[bl, bi, d]
            self.active_requirements[bl, bi] = self._req[bl, bi, d]
            self.active_weights[bl, bi] = self._wgt[bl, bi, d]
            self.active_deadlines[bl, bi] = self._dl[bl, bi, d]
            if self._reqk is not None:
                self.active_req_matrix[bl, :, bi] = self._reqk[bl, :, bi, d]
            self._released |= newly
            self._all_released = bool(self._released.all())

    def advance(self, lanes: np.ndarray, procs: np.ndarray) -> None:
        """Complete the active jobs at the ``(lane, processor)`` pairs.

        Loads the successor job (or zeros the slot) on each, exactly as
        :meth:`~repro.backends.vector.VectorState.advance` does per
        lane.
        """
        self.done[lanes, procs] += 1
        d = self.done[lanes, procs]
        has_next = d < self.num_jobs[lanes, procs]
        hl, hi, hd = lanes[has_next], procs[has_next], d[has_next]
        self.remaining[hl, hi] = self._work[hl, hi, hd]
        self.active_requirements[hl, hi] = self._req[hl, hi, hd]
        self.active_weights[hl, hi] = self._wgt[hl, hi, hd]
        self.active_deadlines[hl, hi] = self._dl[hl, hi, hd]
        el, ei = lanes[~has_next], procs[~has_next]
        self.remaining[el, ei] = 0.0
        self.active_requirements[el, ei] = 0.0
        self.active_weights[el, ei] = 0.0
        self.active_deadlines[el, ei] = np.inf
        if self._reqk is not None:
            self.active_req_matrix[hl, :, hi] = self._reqk[hl, :, hi, hd]
            self.active_req_matrix[el, :, ei] = 0.0

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


class _LaneView:
    """Single-lane, real-size view of a batch state.

    Presents one lane's slices under the
    :class:`~repro.backends.vector.VectorState` read API, so policies
    without a :meth:`~repro.algorithms.base.Policy.shares_batch` path
    run their ordinary ``shares_array`` per lane, bit-identical to a
    standalone vector run (the views expose exactly the real
    ``m_lane`` / ``k_lane`` prefix of each array).
    """

    __slots__ = ("_s", "_b", "_m", "_k")

    def __init__(self, state: BatchVectorState, b: int) -> None:
        self._s = state
        self._b = b
        self._m = int(state.lane_num_processors[b])
        self._k = int(state.lane_num_resources[b])

    @property
    def instance(self) -> Instance:
        """The lane's original :class:`~repro.core.instance.Instance`."""
        return self._s.instances[self._b]

    @property
    def t(self) -> int:
        """The shared step counter."""
        return self._s.t

    @property
    def num_processors(self) -> int:
        """The lane's real processor count ``m``."""
        return self._m

    @property
    def num_resources(self) -> int:
        """The lane's real resource count ``k``."""
        return self._k

    @property
    def num_jobs(self) -> np.ndarray:
        """``(m,)`` per-processor job counts."""
        return self._s.num_jobs[self._b, : self._m]

    @property
    def done(self) -> np.ndarray:
        """``(m,)`` per-processor completed-job counts."""
        return self._s.done[self._b, : self._m]

    @property
    def remaining(self) -> np.ndarray:
        """``(m,)`` remaining work of each active job."""
        return self._s.remaining[self._b, : self._m]

    @property
    def active_requirements(self) -> np.ndarray:
        """``(m,)`` bottleneck requirements of the active jobs."""
        return self._s.active_requirements[self._b, : self._m]

    @property
    def active_req_matrix(self) -> np.ndarray:
        """``(k, m)`` per-resource requirements of the active jobs."""
        if self._k == 1:
            return self.active_requirements.reshape(1, self._m)
        return self._s.active_req_matrix[self._b, : self._k, : self._m]

    @property
    def active_weights(self) -> np.ndarray:
        """``(m,)`` objective weights of the active jobs."""
        return self._s.active_weights[self._b, : self._m]

    @property
    def active_deadlines(self) -> np.ndarray:
        """``(m,)`` due steps of the active jobs (``inf`` if none)."""
        return self._s.active_deadlines[self._b, : self._m]

    @property
    def resource_spent(self) -> np.ndarray:
        """``(k,)`` cumulative resource-time consumed."""
        return self._s.resource_spent[self._b, : self._k]

    @property
    def active_mask(self) -> np.ndarray:
        """``(m,)`` mask of released processors with unfinished jobs."""
        return self._s.active_mask[self._b, : self._m]

    @property
    def pending_mask(self) -> np.ndarray:
        """``(m,)`` mask of processors with unfinished jobs."""
        return self._s.pending_mask[self._b, : self._m]

    @property
    def released_mask(self) -> np.ndarray:
        """``(m,)`` mask of released processors."""
        return self._s.released_mask[self._b, : self._m]

    @property
    def jobs_remaining(self) -> np.ndarray:
        """``(m,)`` remaining job counts."""
        return self._s.jobs_remaining[self._b, : self._m]


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
        batched_policy: True when the policy supplied a
            ``shares_batch`` path; False means lanes were stepped one
            by one through ``shares_array`` (the fallback).
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
    batched_policy: bool
    compactions: int = 0
    compiled: bool = False


class BatchVectorRuntime:
    """Step ``B`` instances through one policy with shared array programs.

    Args:
        instances: the batch, one lane per instance (ragged batches --
            mixed processor counts, queue lengths, resource counts,
            releases -- are padded; mixed makespans terminate lanes
            early).
        policy: the policy (registry name or object).  Must support
            the vector path; lanes fall back to per-lane
            ``shares_array`` stepping unless it also implements
            ``shares_batch``.
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
        if not (
            getattr(policy, "supports_batch", False)
            or getattr(policy, "supports_vector", False)
        ):
            raise VectorizationUnsupportedError(
                f"policy {getattr(policy, 'name', policy)!r} implements "
                "neither shares_batch nor shares_array; use backend='exact'"
            )
        self.policy = policy
        self.state = BatchVectorState(instances)
        self.tol = float(tol)
        self.batched_policy = bool(getattr(policy, "supports_batch", False))

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------
    def _query(self) -> np.ndarray:
        """One share row per lane, batched or via per-lane fallback."""
        state = self.state
        if self.batched_policy:
            return np.asarray(
                self.policy.shares_batch(state), dtype=np.float64
            )
        if state.num_resources == 1:
            shares = np.zeros(
                (state.num_lanes, state.num_processors), dtype=np.float64
            )
        else:
            shares = np.zeros(
                (
                    state.num_lanes,
                    state.num_resources,
                    state.num_processors,
                ),
                dtype=np.float64,
            )
        lane_done = state.lane_done
        for b in range(state.num_lanes):
            if lane_done[b]:
                continue
            view = _LaneView(state, b)
            row = np.asarray(
                self.policy.shares_array(view), dtype=np.float64
            )
            if state.num_resources == 1:
                shares[b, : view.num_processors] = row
            elif view.num_resources == 1:
                shares[b, 0, : view.num_processors] = row
            else:
                shares[b, : view.num_resources, : view.num_processors] = row
        return shares

    def _check(self, shares: np.ndarray) -> None:
        """Tolerance-aware feasibility check over every lane."""
        state = self.state
        tol = self.tol
        m = state.num_processors
        k = state.num_resources
        expected = (
            (state.num_lanes, m) if k == 1 else (state.num_lanes, k, m)
        )
        if shares.shape != expected:
            raise InfeasibleAssignmentError(
                f"policy returned shape {shares.shape} shares for a "
                f"batch of {state.num_lanes} lanes, {m} processors and "
                f"{k} resource(s) at step {state.t} (expected {expected})"
            )
        if (shares < -tol).any() or (shares > 1.0 + tol).any():
            raise InfeasibleAssignmentError(
                f"step {state.t}: share outside [0, 1] in batch "
                f"(min={shares.min()}, max={shares.max()})"
            )
        totals = shares.sum(axis=-1)
        worst = float(totals.max())
        if worst > 1.0 + tol:
            lane = int(np.argmax(totals.reshape(state.num_lanes, -1).max(axis=1)))
            raise InfeasibleAssignmentError(
                f"step {state.t}: resource overused in lane {lane} "
                f"(sum of shares = {worst} > 1)"
            )

    def _apply(
        self, shares: np.ndarray
    ) -> tuple[list[tuple[int, int, int]], np.ndarray]:
        """Advance every lane one step.

        Returns the completed ``(lane, processor, job)`` triples and
        the per-lane progress mask.
        """
        state = self.state
        tol = self.tol
        had_work = state.active_mask
        if state.num_resources == 1:
            speed = np.minimum(shares, state.active_requirements)
            work = np.minimum(speed, state.remaining)
            np.maximum(work, 0.0, out=work)
            state.remaining -= work
            state.resource_spent[:, 0] += work.sum(axis=1)
        else:
            work = self._multi_work(shares)
            state.remaining -= work
        finished = had_work & (state.remaining <= tol)
        completed: list[tuple[int, int, int]] = []
        bl, bi = np.nonzero(finished)
        if bl.size:
            completed = list(
                zip(bl.tolist(), bi.tolist(), state.done[bl, bi].tolist())
            )
            state.advance(bl, bi)
        progressed = finished.any(axis=1) | (work.sum(axis=1) > tol)
        state.t += 1
        return completed, progressed

    def _multi_work(self, shares: np.ndarray) -> np.ndarray:
        """Per-processor work under a ``(B, k, m)`` share tensor.

        The bottleneck rule, elementwise over lanes; single-resource
        lanes in a mixed batch are overridden with the scalar rule so
        every lane stays bit-identical to its standalone vector run.
        """
        state = self.state
        req = state.active_req_matrix  # (B, k, m)
        rstar = state.active_requirements  # (B, m)
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
        work[positive] = np.minimum(
            fraction[positive] * rstar[positive], state.remaining[positive]
        )
        np.maximum(work, 0.0, out=work)
        scalar = state.lane_num_resources == 1
        if scalar.any():
            row = np.minimum(shares[:, 0, :], rstar)
            scalar_work = np.minimum(row, state.remaining)
            np.maximum(scalar_work, 0.0, out=scalar_work)
            work[scalar] = scalar_work[scalar]
        progress = np.zeros_like(work)
        progress[positive] = work[positive] / rstar[positive]
        state.resource_spent += (req * progress[:, None, :]).sum(axis=2)
        return work

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
        while live.any():
            over = live & (state.t >= limits)
            if over.any():
                lane = int(np.argmax(over))
                raise SimulationLimitError(
                    f"batched run: lane {int(origin[lane])} did not finish "
                    f"within {int(limits[lane])} steps "
                    f"(done={state.done[lane].tolist()})"
                )
            ts = perf_counter() if trace_steps else 0.0
            t = state.t
            state.begin_step()
            shares = self._query()
            self._check(shares)
            completed, progressed = self._apply(shares)
            steps += 1
            if objectives:
                for b, i, j in completed:
                    for o in range(len(objectives)):
                        accumulators[o][b].complete((i, j), t)
            lane_done = state.lane_done
            newly_done = live & lane_done
            if newly_done.any():
                for b in np.flatnonzero(newly_done):
                    ob = int(origin[b])
                    makespans[ob] = t + 1
                    for o in range(len(objectives)):
                        values[o][ob] = accumulators[o][b].finish(t + 1)
                live &= ~lane_done
            waiting = state.lane_waiting
            stalled = np.where(
                ~live | progressed | waiting, 0, stalled + 1
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
            batched_policy=self.batched_policy,
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
            batched_policy=self.batched_policy,
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
            batched_policy=result.batched_policy,
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
