"""Weighted flow time :math:`F_w = \\sum_{i,j} w_{ij} (C_{ij} - r_i)`.

Flow (response) time measures how long work lingers in the system:
job ``(i, j)`` arrives with its processor at release ``r_i`` and
completes at the 1-based step :math:`C_{ij}`; its flow is the
difference, scaled by the job's weight.  With unit weights and the
static model (:math:`r_i = 0`) the objective degenerates to the total
completion time already exposed by
:func:`repro.analysis.metrics.total_completion_time` -- the property
tests pin that equality.

Centering the objective follows *Towards Optimality in Parallel
Scheduling* (Berg et al.) and the mean response/flow time tradition;
the :class:`~repro.algorithms.flowdeadline.WeightedSRPT` policy is
tuned for it.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.instance import Instance
from ..core.job import JobId
from ..core.lower_bounds import weighted_flow_bound
from ..core.numerics import FracFold
from .base import Objective, ObjectiveAccumulator, register_objective

__all__ = ["WeightedFlowTime"]


class _FlowAccumulator(ObjectiveAccumulator):
    """Sum ``w * (C - release)`` over the completion stream."""

    __slots__ = ("_queues", "_releases", "_fold")

    def __init__(self, instance: Instance) -> None:
        self._queues = instance.queues
        self._releases = instance.releases
        self._fold = FracFold()

    def complete(self, job: JobId, t: int) -> None:
        """Add the job's weighted flow (1-based completion - release)."""
        i, j = job
        self._fold.add(self._queues[i][j].weight, t + 1 - self._releases[i])

    def finish(self, makespan: int) -> Fraction:
        """The accumulated weighted flow time."""
        return self._fold.value()


@register_objective
class WeightedFlowTime(Objective):
    """Weighted flow time (see the module docstring).

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> inst = Instance.from_percent([[100], [100]])
        >>> WeightedFlowTime().value(GreedyBalance().run(inst))
        Fraction(3, 1)
    """

    name = "weighted-flow"

    def start(self, instance: Instance) -> _FlowAccumulator:
        """A fresh flow accumulator bound to the instance's weights."""
        return _FlowAccumulator(instance)

    def lower_bound(self, instance: Instance) -> Fraction:
        """Per-job earliest-completion certificates, weight-summed."""
        return weighted_flow_bound(instance)
