"""Lower bounds on the optimal makespan.

Four bounds from the paper:

* **Observation 1**: the shared resource processes at most one unit of
  total work per step, so ``OPT >= ceil(sum r_ij * p_ij)``.
* **Trivial parallelism bound**: a processor finishes at most one job
  per step, so ``OPT >= n`` (the longest job sequence).
* **Lemma 5** (needs a *non-wasting* schedule's hypergraph): every
  non-final edge of every component consumes the full resource, so
  ``OPT >= sum_k (#_k - 1)``.
* **Lemma 6** (needs a *balanced* schedule's hypergraph):
  ``OPT >= n >= sum_{k<N} |C_k| / q_k + |C_N| / m``.

The schedule-derived bounds are certificates: they are lower bounds on
*any* schedule's makespan, computed from the structure of one given
schedule.  Theorem 7's proof combines them; the test-suite checks them
against exact optima.
"""

from __future__ import annotations

from fractions import Fraction

from .hypergraph import SchedulingGraph
from .instance import Instance
from .numerics import FracFold, frac_ceil
from .schedule import Schedule

__all__ = [
    "work_bound",
    "length_bound",
    "lemma5_bound",
    "lemma6_bound",
    "theorem7_reference",
    "best_lower_bound",
    "weighted_flow_bound",
    "tardiness_bound",
    "max_lateness_bound",
]


def work_bound(instance: Instance) -> int:
    """Observation 1: ``ceil`` of the total work.

    :math:`\\sum_{i,j} r_{ij} p_{ij}` resource-time must fit into
    unit-capacity steps.
    """
    return instance.work_lower_bound()


def length_bound(instance: Instance) -> int:
    """``n`` -- each processor finishes at most one job per step.

    Stated for unit-size jobs; for general sizes each job ``(i,j)``
    still needs at least ``ceil(p_ij)`` steps, so we sum those per
    processor and take the maximum, which degenerates to ``n`` in the
    unit case.
    """
    best = 0
    for i in range(instance.num_processors):
        steps = sum(job.steps_at_full_speed() for job in instance.queues[i])
        best = max(best, steps)
    return best


def lemma5_bound(graph: SchedulingGraph) -> int:
    """Lemma 5's component bound for nice schedules.

    ``sum_k (#_k - 1)`` over the components of a
    *non-wasting* schedule's hypergraph.

    The caller is responsible for the non-wasting hypothesis (our
    policy implementations produce non-wasting schedules by
    construction; :func:`repro.core.properties.is_non_wasting` checks).
    """
    return sum(comp.num_edges - 1 for comp in graph.components)


def lemma6_bound(graph: SchedulingGraph) -> Fraction:
    """Lemma 6's class-size bound for balanced schedules.

    ``sum_{k<N} |C_k|/q_k + |C_N|/m`` for a *balanced*
    schedule's hypergraph.  Returns the exact rational; since OPT is an
    integer, ``ceil`` of the returned value is also a valid bound.
    """
    m = graph.schedule.instance.num_processors
    total = Fraction(0)
    comps = graph.components
    for comp in comps[:-1]:
        total += Fraction(comp.num_nodes, comp.klass)
    total += Fraction(comps[-1].num_nodes, m)
    return total


def theorem7_reference(graph: SchedulingGraph) -> Fraction:
    """The reference quantity the Theorem 7 proof bounds against.

    The proof splits on ``OPT >= n + 1`` vs ``OPT = n``:

    * case 1 establishes ``S <= (2 - 1/m) * max(LB_5, LB_6 + 1)``
      (its Eq. (12) divides by the Lemma 6 certificate *plus one*);
    * case 2 establishes ``S <= (2 - 1/m) * n`` directly.

    Hence ``S <= (2 - 1/m) * max(LB_5, LB_6 + 1, n)`` holds for every
    balanced, non-wasting, progressive schedule ``S`` -- that is the
    machine-checkable form used by the THM7 experiment and the
    property tests.  Note this reference is *not* itself a lower bound
    on OPT (the ``LB_6 + 1`` term is only valid in case 1); use
    :func:`best_lower_bound` for certificates.
    """
    instance = graph.schedule.instance
    return max(
        Fraction(lemma5_bound(graph)),
        lemma6_bound(graph) + 1,
        Fraction(length_bound(instance)),
    )


def weighted_flow_bound(instance: Instance) -> Fraction:
    """Lower bound on the weighted flow time :math:`F_w`.

    Job ``(i, j)`` cannot complete before its earliest completion time
    (:meth:`~repro.core.instance.Instance.earliest_completion_times`:
    release plus in-order full-speed processing), so its flow
    ``C - releases[i]`` is at least that time minus the release.  The
    weighted sum of these per-job certificates bounds :math:`F_w` for
    every feasible schedule; with unit weights and no releases it
    degenerates to ``sum_i n_i (n_i + 1) / 2`` for unit jobs.
    """
    earliest = instance.earliest_completion_times()
    return FracFold(
        (job.weight, earliest[jid] - instance.release(jid[0]))
        for jid, job in instance.jobs()
    ).value()


def tardiness_bound(instance: Instance) -> Fraction:
    """Lower bound on the weighted total tardiness :math:`\\sum w \\, max(0, C - d)`.

    Uses the same per-job earliest completion certificates: a job with
    deadline ``d`` is late by at least ``max(0, earliest - d)`` in any
    feasible schedule.  0 when every deadline is achievable per-processor
    (the usual case -- contention can still force lateness above it).
    """
    earliest = instance.earliest_completion_times()
    return FracFold(
        (job.weight, earliest[jid] - job.deadline)
        for jid, job in instance.jobs()
        if job.deadline is not None and earliest[jid] > job.deadline
    ).value()


def max_lateness_bound(instance: Instance) -> int:
    """Lower bound on the maximum lateness :math:`L_{max} = max (C - d)`.

    The per-job earliest completion certificates give
    ``L_max >= max_j (earliest_j - d_j)`` (possibly negative when all
    deadlines are loose).  Instances without deadlines report 0, the
    value the lateness objectives assign them.
    """
    best: int | None = None
    earliest = instance.earliest_completion_times()
    for jid, job in instance.jobs():
        if job.deadline is not None:
            late = earliest[jid] - job.deadline
            best = late if best is None else max(best, late)
    return 0 if best is None else best


def best_lower_bound(instance: Instance, schedule: Schedule | None = None) -> int:
    """The strongest available integer lower bound on OPT.

    Always includes Observation 1 and the length bound; when a
    *schedule* is supplied (expected: a balanced, non-wasting one such
    as GreedyBalance's output on a unit-size instance) the Lemma 5 and
    Lemma 6 certificates are added.
    """
    bound = max(
        work_bound(instance),
        length_bound(instance),
        instance.makespan_lower_bound(),
    )
    # Lemma 5/6 certify static schedules; their waste accounting does
    # not transfer to runs with waiting windows before arrivals.
    if schedule is not None and instance.is_unit_size and not instance.has_releases:
        graph = SchedulingGraph(schedule)
        bound = max(bound, lemma5_bound(graph), frac_ceil(lemma6_bound(graph)))
    return bound
