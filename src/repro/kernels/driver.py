"""Whole-run fused driver: one JIT region from step 0 to makespan.

:func:`run_fused` replays the unified stepping kernel
(:func:`repro.core.kernel.run_kernel` driving a
:class:`repro.backends.vector.VectorRuntime`) as a single compiled
loop over flat arrays: release unmasking, the policy's priority order,
the water-fill grant, the feasibility check, the bottleneck work
decrement, completion/stall/step-limit accounting -- everything the
per-step Python path does, minus Python dispatch.  The eight built-in
water-filling policies are encoded as integer codes
(:data:`POLICY_CODES` in :mod:`repro.kernels.dispatch` maps policy
classes to them); anything else falls back to the per-step path.

Semantics intentionally mirrored from the kernel loop:

* the step limit is checked *before* each step (``t >= step_limit``);
* a zero-progress step while unreleased processors remain pending is
  legitimate *waiting* and resets the stall counter (the interpreted
  kernel additionally logs a heartbeat -- a logging feature, not a
  semantic one, so the compiled loop omits it);
* ``stall_limit`` consecutive zero-progress non-waiting steps abort;
* a job completes in the step where its remaining work drops to
  ``<= tol`` while its processor was active at step begin.

The driver records each completion's 0-based step into an
``(m, nmax)`` table; the dispatch layer replays that table through the
observer stack (completion recorder, objective accumulators), so
results are indistinguishable from a per-step run.
"""

from __future__ import annotations

import numpy as np

from ._numba import njit
from .waterfill import fill_multi, fill_single, round_key, stable_order

__all__ = [
    "CODE_GREEDY_BALANCE",
    "CODE_ROUND_ROBIN",
    "CODE_GREEDY_FINISH_JOBS",
    "CODE_LARGEST_REQUIREMENT_FIRST",
    "CODE_FEWEST_REMAINING_JOBS_FIRST",
    "CODE_PROPORTIONAL_SHARE",
    "CODE_EDF_WATERFILL",
    "CODE_WEIGHTED_SRPT",
    "STATUS_OK",
    "STATUS_STEP_LIMIT",
    "STATUS_STALLED",
    "STATUS_INFEASIBLE",
    "run_fused",
]

#: Integer policy codes understood by :func:`run_fused`.
CODE_GREEDY_BALANCE = 0
CODE_ROUND_ROBIN = 1
CODE_GREEDY_FINISH_JOBS = 2
CODE_LARGEST_REQUIREMENT_FIRST = 3
CODE_FEWEST_REMAINING_JOBS_FIRST = 4
CODE_PROPORTIONAL_SHARE = 5
CODE_EDF_WATERFILL = 6
CODE_WEIGHTED_SRPT = 7

#: Run outcomes (the dispatch layer maps non-zero codes to the same
#: exceptions the interpreted kernel raises).
STATUS_OK = 0
STATUS_STEP_LIMIT = 1
STATUS_STALLED = 2
STATUS_INFEASIBLE = 3


@njit(cache=True)
def run_fused(
    num_jobs: np.ndarray,
    release: np.ndarray,
    work: np.ndarray,
    req: np.ndarray,
    reqk: np.ndarray,
    wgt: np.ndarray,
    dl: np.ndarray,
    policy_code: int,
    tol: float,
    step_limit: int,
    stall_limit: int,
) -> tuple:
    """Step one instance to completion inside a single compiled loop.

    Args:
        num_jobs: ``(m,)`` int64 job counts per processor.
        release: ``(m,)`` int64 release steps per processor.
        work: ``(m, nmax)`` float64 remaining-work table (bottleneck
            units), zero-padded past each queue's end.
        req: ``(m, nmax)`` float64 bottleneck requirements ``r*``.
        reqk: ``(k, m, nmax)`` float64 per-resource requirements (for
            ``k == 1`` simply ``req`` with a leading unit axis).
        wgt: ``(m, nmax)`` float64 objective weights.
        dl: ``(m, nmax)`` float64 due steps (``inf`` = no deadline).
        policy_code: one of the ``CODE_*`` constants.
        tol: completion / feasibility tolerance (the backend's).
        step_limit: abort (status 1) once ``t`` reaches this.
        stall_limit: abort (status 2) after this many consecutive
            zero-progress non-waiting steps.

    Returns:
        ``(status, steps, completion)`` -- a ``STATUS_*`` code, the
        number of executed steps (the makespan when status is 0), and
        the ``(m, nmax)`` int64 table of 0-based completion steps
        (-1 where a job never finished).
    """
    m = num_jobs.shape[0]
    k = reqk.shape[0]
    nmax = work.shape[1]

    completion = np.full((m, nmax), -1, dtype=np.int64)
    done = np.zeros(m, dtype=np.int64)
    released = np.zeros(m, dtype=np.bool_)
    remaining = np.zeros(m, dtype=np.float64)
    active_req = np.zeros(m, dtype=np.float64)
    active_reqk = np.zeros((k, m), dtype=np.float64)
    active_wgt = np.zeros(m, dtype=np.float64)
    active_dl = np.full(m, np.inf, dtype=np.float64)
    eligible = np.ones(m, dtype=np.bool_)
    shares = np.zeros((k, m), dtype=np.float64)
    primary = np.zeros(m, dtype=np.float64)
    secondary = np.zeros(m, dtype=np.float64)

    released_count = 0
    jobs_left = 0
    for i in range(m):
        jobs_left += num_jobs[i]

    t = 0
    stalled = 0
    while jobs_left > 0:
        if t >= step_limit:
            return STATUS_STEP_LIMIT, t, completion

        # begin_step: unmask processors whose release time has arrived
        # and load their current job into the active-lane views.
        if released_count < m:
            for i in range(m):
                if not released[i] and release[i] <= t:
                    released[i] = True
                    released_count += 1
                    j = done[i]
                    if j < num_jobs[i]:
                        remaining[i] = work[i, j]
                        active_req[i] = req[i, j]
                        active_wgt[i] = wgt[i, j]
                        active_dl[i] = dl[i, j]
                        for lane in range(k):
                            active_reqk[lane, i] = reqk[lane, i, j]

        # query: the policy's priority order (or closed formula), then
        # the shared water-fill grant rule.
        for lane in range(k):
            for i in range(m):
                shares[lane, i] = 0.0

        if policy_code == CODE_PROPORTIONAL_SHARE:
            if k == 1:
                total = 0.0
                for i in range(m):
                    total += remaining[i]
                if total > 1.0:
                    for i in range(m):
                        shares[0, i] = remaining[i] / total
                elif total > 0.0:
                    for i in range(m):
                        shares[0, i] = remaining[i]
            else:
                demand = np.zeros(k, dtype=np.float64)
                fraction = np.zeros(m, dtype=np.float64)
                for i in range(m):
                    if active_req[i] > 0.0:
                        f = remaining[i] / active_req[i]
                        if f > 1.0:
                            f = 1.0
                        fraction[i] = f
                        for lane in range(k):
                            demand[lane] += active_reqk[lane, i] * f
                theta = 1.0
                for lane in range(k):
                    if demand[lane] > 1.0:
                        scale = 1.0 / demand[lane]
                        if scale < theta:
                            theta = scale
                for i in range(m):
                    if fraction[i] > 0.0:
                        for lane in range(k):
                            shares[lane, i] = (
                                theta * fraction[i] * active_reqk[lane, i]
                            )
        else:
            if policy_code == CODE_ROUND_ROBIN:
                # Phase = 1 + min completed count over pending
                # processors; only processors still inside the phase
                # are eligible, visited in index order.
                min_done = np.int64(1) << 62
                for i in range(m):
                    if done[i] < num_jobs[i] and done[i] < min_done:
                        min_done = done[i]
                for i in range(m):
                    eligible[i] = (
                        done[i] < num_jobs[i] and done[i] == min_done
                    )
                order = np.arange(m)
            else:
                rkey = round_key(remaining)
                if policy_code == CODE_GREEDY_BALANCE:
                    for i in range(m):
                        primary[i] = -np.float64(num_jobs[i] - done[i])
                        secondary[i] = -rkey[i]
                    order = stable_order(primary, secondary)
                elif policy_code == CODE_GREEDY_FINISH_JOBS:
                    order = np.argsort(rkey, kind="mergesort")
                elif policy_code == CODE_LARGEST_REQUIREMENT_FIRST:
                    order = np.argsort(-rkey, kind="mergesort")
                elif policy_code == CODE_FEWEST_REMAINING_JOBS_FIRST:
                    for i in range(m):
                        primary[i] = np.float64(num_jobs[i] - done[i])
                        secondary[i] = -rkey[i]
                    order = stable_order(primary, secondary)
                elif policy_code == CODE_EDF_WATERFILL:
                    order = stable_order(active_dl, rkey)
                else:  # CODE_WEIGHTED_SRPT
                    for i in range(m):
                        if active_wgt[i] > 0.0:
                            primary[i] = remaining[i] / active_wgt[i]
                        else:
                            primary[i] = 0.0
                    order = stable_order(round_key(primary), rkey)
            if k == 1:
                row = fill_single(remaining, active_req, eligible, order)
                for i in range(m):
                    shares[0, i] = row[i]
            else:
                shares = fill_multi(
                    remaining, active_req, active_reqk, eligible, order
                )
            if policy_code == CODE_ROUND_ROBIN:
                for i in range(m):
                    eligible[i] = True

        # check: tolerance-aware bounds and per-resource capacity.
        for lane in range(k):
            total = 0.0
            for i in range(m):
                s = shares[lane, i]
                if s < -tol or s > 1.0 + tol:
                    return STATUS_INFEASIBLE, t, completion
                total += s
            if total > 1.0 + tol:
                return STATUS_INFEASIBLE, t, completion

        # apply: bottleneck work decrement, completions, successor
        # loads -- the fused BatchVectorState.apply + advance at B == 1.
        total_work = 0.0
        ncompleted = 0
        for i in range(m):
            if not released[i] or done[i] >= num_jobs[i]:
                continue
            if k == 1:
                w = shares[0, i]
                if active_req[i] < w:
                    w = active_req[i]
            else:
                f = np.inf
                for lane in range(k):
                    r = active_reqk[lane, i]
                    if r > 0.0:
                        s = shares[lane, i]
                        if r < s:
                            s = r
                    else:
                        continue
                    ratio = s / r
                    if ratio < f:
                        f = ratio
                if active_req[i] > 0.0 and f < np.inf:
                    w = f * active_req[i]
                else:
                    w = 0.0
            if remaining[i] < w:
                w = remaining[i]
            if w < 0.0:
                w = 0.0
            remaining[i] -= w
            total_work += w
            if remaining[i] <= tol:
                j = done[i]
                completion[i, j] = t
                done[i] = j + 1
                jobs_left -= 1
                ncompleted += 1
                nxt = j + 1
                if nxt < num_jobs[i]:
                    remaining[i] = work[i, nxt]
                    active_req[i] = req[i, nxt]
                    active_wgt[i] = wgt[i, nxt]
                    active_dl[i] = dl[i, nxt]
                    for lane in range(k):
                        active_reqk[lane, i] = reqk[lane, i, nxt]
                else:
                    remaining[i] = 0.0
                    active_req[i] = 0.0
                    active_wgt[i] = 0.0
                    active_dl[i] = np.inf
                    for lane in range(k):
                        active_reqk[lane, i] = 0.0

        progressed = ncompleted > 0 or total_work > tol
        if progressed:
            stalled = 0
        elif released_count < m:
            # Legitimate waiting on a future release.
            stalled = 0
        else:
            stalled += 1
            if stalled >= stall_limit:
                return STATUS_STALLED, t + 1, completion
        t += 1

    return STATUS_OK, t, completion
