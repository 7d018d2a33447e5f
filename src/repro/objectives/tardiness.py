"""Deadline objectives: total tardiness, maximum lateness, miss count.

A job with due step :math:`d_{ij}` (1-based, see
:attr:`repro.core.job.Job.deadline`) completing at :math:`C_{ij}` has
*lateness* :math:`L_{ij} = C_{ij} - d_{ij}` and *tardiness*
:math:`T_{ij} = \\max(0, L_{ij})`.  One class serves the three classic
aggregates as modes (each registered under its own name):

``total`` (``"tardiness"``)
    :math:`\\sum_{i,j} w_{ij} T_{ij}` -- weighted total tardiness; 0
    iff every deadline is met.

``max-lateness`` (``"max-lateness"``)
    :math:`L_{max} = \\max_{i,j} L_{ij}` -- may be negative when all
    deadlines are met with slack; the feasibility question "are all
    deadlines met?" is exactly :math:`L_{max} \\le 0`.

``misses`` (``"deadline-misses"``)
    :math:`|\\{(i,j) : C_{ij} > d_{ij}\\}|` -- the feasibility-count
    mode; 0 iff the schedule meets every deadline.

Jobs without a deadline contribute nothing in any mode; instances with
no deadlines at all evaluate to 0 everywhere.  The deadline variants
of the discrete--continuous scheduling line (Józefowska & Węglarz,
cited as [10] by the paper) motivate the axis; the
:class:`~repro.algorithms.flowdeadline.EDFWaterfill` policy is tuned
for it.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..core.job import JobId
from ..core.lower_bounds import max_lateness_bound, tardiness_bound
from ..core.numerics import FracFold
from .base import Objective, ObjectiveAccumulator, register_objective

__all__ = ["Tardiness", "TARDINESS_MODES"]

#: Recognized aggregation modes (see the module docstring).
TARDINESS_MODES = ("total", "max-lateness", "misses")

_MODE_NAMES = {
    "total": "tardiness",
    "max-lateness": "max-lateness",
    "misses": "deadline-misses",
}


class _TardinessAccumulator(ObjectiveAccumulator):
    """Accumulate lateness statistics over the completion stream."""

    __slots__ = ("_queues", "mode", "_fold", "max_lateness", "misses")

    def __init__(self, instance: Instance, mode: str) -> None:
        self._queues = instance.queues
        self.mode = mode
        self._fold = FracFold()
        self.max_lateness: int | None = None
        self.misses = 0

    def complete(self, job: JobId, t: int) -> None:
        """Fold one completion into tardiness/lateness/miss totals."""
        i, j = job
        spec = self._queues[i][j]
        if spec.deadline is None:
            return
        lateness = t + 1 - spec.deadline
        if self.max_lateness is None or lateness > self.max_lateness:
            self.max_lateness = lateness
        if lateness > 0:
            self._fold.add(spec.weight, lateness)
            self.misses += 1

    def finish(self, makespan: int):
        """The aggregate selected by the mode (0 without deadlines)."""
        if self.mode == "total":
            return self._fold.value()
        if self.mode == "max-lateness":
            return 0 if self.max_lateness is None else self.max_lateness
        return self.misses


class Tardiness(Objective):
    """Deadline objective with selectable aggregation mode.

    Args:
        mode: one of :data:`TARDINESS_MODES` (default ``"total"``).

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import GreedyBalance
        >>> inst = Instance.from_percent([[100], [100]]).with_deadlines(
        ...     [[1], [1]]
        ... )
        >>> schedule = GreedyBalance().run(inst)
        >>> Tardiness().value(schedule)          # one job finishes late
        Fraction(1, 1)
        >>> Tardiness("misses").value(schedule)
        1
    """

    def __init__(self, mode: str = "total") -> None:
        if mode not in TARDINESS_MODES:
            raise ValueError(
                f"unknown tardiness mode {mode!r}; "
                f"available: {list(TARDINESS_MODES)}"
            )
        self.mode = mode
        self.name = _MODE_NAMES[mode]

    def start(self, instance: Instance) -> _TardinessAccumulator:
        """A fresh accumulator bound to the instance's deadlines."""
        return _TardinessAccumulator(instance, self.mode)

    def lower_bound(self, instance: Instance):
        """Earliest-completion certificates, aggregated per mode.

        The miss-count mode reports 0 (a count certificate would need
        the per-job bounds to be tight, which contention breaks).
        """
        if self.mode == "total":
            return tardiness_bound(instance)
        if self.mode == "max-lateness":
            return max_lateness_bound(instance)
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tardiness({self.mode!r})"


register_objective(lambda: Tardiness("total"))
register_objective(lambda: Tardiness("max-lateness"))
register_objective(lambda: Tardiness("misses"))
