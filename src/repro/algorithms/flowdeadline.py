"""Objective-aware policies: deadline (EDF) and weighted flow (SRPT).

The water-filling mechanism (:func:`repro.algorithms.base.water_fill`)
separates *what order* from *how to grant*: every policy here only
contributes a priority order, so both inherit non-wasting, progressive
grants, the multi-resource (``k > 1``) generalization, and the
vectorized float path for free.

:class:`EDFWaterfill`
    Earliest-deadline-first water-filling for the tardiness/lateness
    objectives (the slack-priority policy the deadline literature
    suggests): among active jobs, the one whose due step is nearest --
    equivalently the one with the least slack ``d - t``, since ``t``
    is common to all jobs within a step -- drinks first.  Jobs without
    a deadline queue behind all deadline-carrying jobs.

:class:`WeightedSRPT`
    Weighted shortest-remaining-processing-time water-filling for the
    weighted flow objective, generalizing
    :class:`~repro.algorithms.heuristics.GreedyFinishJobs`: priority by
    smallest ``remaining work / weight``, so with unit weights the
    order (and therefore the schedule) is exactly GreedyFinishJobs'.
    Classic flow-time scheduling (SRPT and its weighted variants, cf.
    the mean response time literature) motivates the rule.
"""

from __future__ import annotations

import math
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

__all__ = ["EDFWaterfill", "WeightedSRPT"]


@register_policy
class EDFWaterfill(Policy):
    """Earliest-deadline-first water-filling (tardiness-tuned).

    Priority: ascending due step of the active job (``inf`` for jobs
    without one), ties broken by smaller remaining work (finish the
    cheaper of two equally urgent jobs, maximizing completions), then
    processor index.  On instances without any deadlines every job
    ties at ``inf`` and the policy degenerates to remaining-work
    water-filling (= :class:`~repro.algorithms.heuristics.GreedyFinishJobs`).

    Example:
        >>> from repro.core import Instance
        >>> inst = Instance.from_percent([[60, 60], [60, 60]])
        >>> late_first = inst.with_deadlines([[4, 4], [1, 4]])
        >>> EDFWaterfill().run(late_first).completion_step(1, 0)
        0
    """

    name = "edf-waterfill"

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        inst = state.instance

        def priority(i: int):
            job = inst.job(i, state.active_job(i))
            due = math.inf if job.deadline is None else job.deadline
            return (due, state.remaining_work(i), i)

        order = sorted(state.active_processors(), key=priority)
        return water_fill(state, order)

    def shares_batch(self, state) -> np.ndarray:
        # lexsort: last key is primary.  Stable, so exact index
        # tie-breaking matches the exact path's (due, remaining, i).
        order = np.lexsort(
            (sort_key(state.remaining), state.active_deadlines), axis=-1
        )
        return water_fill_array_batch(state, order)


@register_policy
class WeightedSRPT(Policy):
    """Weighted shortest-remaining-work-first water-filling (flow-tuned).

    Priority: ascending ``remaining work / weight`` of the active job
    -- the highest-weight-density work drains first -- with ties broken
    by smaller remaining work, then processor index.  Unit weights
    reproduce :class:`~repro.algorithms.heuristics.GreedyFinishJobs`
    exactly (same order, same schedule).

    Example:
        >>> from repro.core import Instance
        >>> inst = Instance.from_percent([[60, 60], [60, 60]])
        >>> heavy_p1 = inst.with_weights([[1, 1], [9, 1]])
        >>> WeightedSRPT().run(heavy_p1).completion_step(1, 0)
        0
    """

    name = "weighted-srpt"

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        inst = state.instance

        def priority(i: int):
            job = inst.job(i, state.active_job(i))
            remaining = state.remaining_work(i)
            return (remaining / job.weight, remaining, i)

        order = sorted(state.active_processors(), key=priority)
        return water_fill(state, order)

    def shares_batch(self, state) -> np.ndarray:
        # Finished/unreleased processors have weight 0; park their
        # density at 0 (they sort first but receive no useful share).
        density = np.divide(
            state.remaining,
            state.active_weights,
            out=np.zeros_like(state.remaining),
            where=state.active_weights > 0.0,
        )
        order = np.lexsort(
            (sort_key(state.remaining), sort_key(density)), axis=-1
        )
        return water_fill_array_batch(state, order)
