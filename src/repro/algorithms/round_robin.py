"""The RoundRobin algorithm (Section 4.2, Theorem 3).

RoundRobin processes the workload in *phases*: during phase ``j`` it
works only on the ``j``-th job of every processor that has one,
assigning the resource arbitrarily among the processors whose ``j``-th
job is unfinished.  Phase ``j+1`` starts only when phase ``j`` is
completely done -- even if that wastes most of the resource at the end
of a phase, which is exactly how the lower-bound family of Figure 3
drives it to its worst-case ratio of 2.

Theorem 3: the worst-case approximation ratio of RoundRobin for unit
size jobs is exactly 2 (upper bound via
``makespan <= n + sum_j sum_{i in M_j} r_ij`` and Observation 1; lower
bound via :func:`repro.generators.worst_case.round_robin_adversarial`).

The phase index is recoverable from the execution state (the smallest
``j`` such that some processor with at least ``j`` jobs has not
finished its ``j``-th job), so the policy stays stateless.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..core.numerics import frac_ceil, frac_sum
from ..core.state import ExecState
from .base import (
    Policy,
    register_policy,
    water_fill,
    water_fill_array_batch,
)

__all__ = ["RoundRobin", "round_robin_phase", "round_robin_makespan_formula"]


def round_robin_phase(state: ExecState) -> int:
    """The current RoundRobin phase (1-based).

    The smallest ``j`` such that some processor with ``n_i >= j`` has
    completed fewer than ``j`` jobs.  All processors with completed
    count ``>= j`` wait (their ``j``-th job is done or they have none).
    """
    inst = state.instance
    for j in range(1, inst.max_jobs + 1):
        for i in range(inst.num_processors):
            if inst.num_jobs(i) >= j and state.done[i] < j:
                return j
    return inst.max_jobs  # pragma: no cover - only when everything is done


@register_policy
class RoundRobin(Policy):
    """Phase-synchronized round robin (Section 4.2).

    Within a phase the resource is assigned by water-filling in
    processor-index order ("in an arbitrary way", as the paper puts
    it); processors that already finished the phase's job idle, so the
    policy may waste resource between phases and is in general neither
    non-wasting nor progressive.

    Example:
        >>> from repro.generators import fig1_instance
        >>> RoundRobin().run(fig1_instance()).makespan
        8
    """

    name = "round-robin"

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        phase = round_robin_phase(state)
        eligible = [
            i
            for i in range(state.num_processors)
            if state.instance.num_jobs(i) >= phase and state.done[i] == phase - 1
        ]
        return water_fill(state, eligible)

    def shares_batch(self, state) -> np.ndarray:
        # The current phase is 1 + min completed count over *pending*
        # processors, per lane (a pending processor with minimal `done`
        # witnesses exactly the smallest j of `round_robin_phase`).
        # Pending -- not merely active -- so that, as in the exact
        # path, a phase held open by a not-yet-released processor
        # blocks later phases; unreleased eligibles have zero useful
        # share, so the water-fill skips them.  Finished lanes (no
        # pending processor) park their minimum at int64 max, so
        # nothing is eligible and the lane receives an all-zero row.
        # The fill order is processor index.
        pending = state.pending_mask  # (B, m)
        big = np.iinfo(np.int64).max
        min_done = np.where(pending, state.done, big).min(
            axis=1, keepdims=True
        )
        eligible = pending & (state.done == min_done)
        order = np.arange(state.num_processors)[None, :]
        return water_fill_array_batch(state, order, eligible=eligible)


def round_robin_makespan_formula(instance) -> int:
    """The closed-form RoundRobin makespan
    :math:`\\sum_{j=1}^{n} \\lceil \\sum_{i \\in M_j} r_{ij} \\rceil`
    (proof of Theorem 3).

    Valid for unit-size jobs in the static model; the simulated policy
    must match this exactly, which the test-suite asserts.
    """
    instance.require_single_resource("round_robin_makespan_formula")
    instance.require_unit_size("round_robin_makespan_formula")
    instance.require_static("round_robin_makespan_formula")
    total = 0
    for j in range(1, instance.max_jobs + 1):
        phase_work = frac_sum(
            instance.requirement(i, j - 1)
            for i in instance.processors_with_at_least(j)
        )
        total += max(1, frac_ceil(phase_work))
    return total
