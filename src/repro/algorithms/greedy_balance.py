"""The GreedyBalance algorithm (Section 8.3, Theorem 8).

GreedyBalance water-fills the resource over the active processors,
prioritizing

1. processors with **more remaining jobs** (this is what makes its
   schedules *balanced* in the sense of Definition 5), and
2. among ties, jobs with **larger remaining resource requirement**
   (finishing the most loaded job first),
3. among full ties, the smaller processor index (deterministic).

Because water-filling grants every visited processor its full
remaining requirement until the capacity runs out, the resulting
schedules are non-wasting and progressive by construction, and the
priority order makes them balanced: if some processor finishes its job
this step, every processor with strictly more remaining jobs was
served before it and finished too.

Theorems 7 and 8: balanced schedules -- hence GreedyBalance -- are
(2 - 1/m)-approximations, and this ratio is tight for GreedyBalance
(the block construction in
:func:`repro.generators.worst_case.greedy_balance_adversarial`).
The policy runs in linear time per step (sorting aside), matching the
paper's "simple linear-time algorithm" description.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..core.state import ExecState
from .base import (
    Policy,
    register_policy,
    sort_key,
    water_fill,
    water_fill_array_batch,
)

__all__ = ["GreedyBalance"]


@register_policy
class GreedyBalance(Policy):
    """Balanced greedy water-filling (Section 8.3).

    Example:
        >>> from repro.generators import fig1_instance
        >>> GreedyBalance().run(fig1_instance()).makespan
        6
    """

    name = "greedy-balance"

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        order = sorted(
            state.active_processors(),
            key=lambda i: (
                -state.jobs_remaining(i),
                -state.remaining_work(i),
                i,
            ),
        )
        return water_fill(state, order)

    def shares_batch(self, state) -> np.ndarray:
        # Same priority as `shares`: more remaining jobs first, then
        # larger remaining work, then index (lexsort's stability gives
        # the index tie-break).  One lexsort orders every lane along
        # the last axis; finished and padded processors carry zero
        # useful share, so their position never matters.
        order = np.lexsort(
            (-sort_key(state.remaining), -state.jobs_remaining), axis=-1
        )
        return water_fill_array_batch(state, order)
