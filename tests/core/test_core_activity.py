"""Per-core busy/stall accounting of the many-core shared-bus view.

:class:`~repro.core.kernel.CoreActivityRecorder` turns the kernel's
step events into the Section 1 picture: per-core busy and stall steps,
the step each core finished, and how much of the bus was granted.
"""

from fractions import Fraction

import pytest

from repro.algorithms import GreedyBalance
from repro.core import ExactRuntime, ShareRecorder, simulate
from repro.core.kernel import CoreActivityRecorder, run_kernel
from repro.exceptions import InfeasibleAssignmentError
from repro.generators import Phase, TaskSpec, make_io_workload, tasks_to_instance


@pytest.fixture
def tasks() -> list[TaskSpec]:
    return [
        TaskSpec("stream", [Phase("1/2", 2)]),
        TaskSpec("burst", [Phase("1/10", 1), Phase("9/10", 1)]),
    ]


class TestRecorder:
    def test_run_matches_abstract_simulator(self, tasks):
        """The recorder rides along without changing a single share."""
        policy = GreedyBalance()
        instance = tasks_to_instance(tasks, unit_split=True)
        shares = ShareRecorder()
        makespan = run_kernel(
            ExactRuntime(instance),
            policy,
            [shares, CoreActivityRecorder(instance.num_processors)],
        )
        abstract = simulate(instance, policy)
        assert makespan == abstract.makespan
        for t, row in enumerate(shares.shares):
            assert tuple(row) == abstract.step(t).shares

    def test_core_summaries(self, tasks, run_tasks):
        makespan, rec = run_tasks(tasks, GreedyBalance())
        assert len(rec.busy_steps) == len(rec.stall_steps) == 2
        for core, task in enumerate(tasks):
            phases = len(task.phases)
            busy, stall = rec.busy_steps[core], rec.stall_steps[core]
            assert busy + stall >= phases or busy > 0
            assert 0 <= rec.last_completion[core] < makespan

    def test_every_active_step_is_busy_or_stalled(self, tasks, run_tasks):
        makespan, rec = run_tasks(tasks, GreedyBalance())
        for core in range(2):
            # Static instance: a core is active until its last job ends.
            active = rec.last_completion[core] + 1
            assert rec.busy_steps[core] + rec.stall_steps[core] == active

    def test_bus_utilization_in_range(self, tasks, run_tasks):
        _, rec = run_tasks(tasks, GreedyBalance())
        assert isinstance(rec.bus_utilization, Fraction)
        assert 0 < rec.bus_utilization <= 1

    def test_vector_runtime_reports_a_float(self, tasks, run_tasks):
        _, exact = run_tasks(tasks, GreedyBalance())
        _, vector = run_tasks(tasks, GreedyBalance(), backend="vector")
        assert type(vector.bus_utilization) is float
        assert vector.bus_utilization == pytest.approx(
            float(exact.bus_utilization), abs=1e-12
        )

    def test_no_steps_no_utilization(self):
        rec = CoreActivityRecorder(2)
        rec.on_finish(0)
        assert rec.bus_utilization == 0.0
        assert rec.last_completion == [None, None]

    def test_general_sizes_supported(self, tasks, run_tasks):
        makespan, _ = run_tasks(tasks, GreedyBalance(), unit_split=False)
        assert makespan >= 2

    def test_full_workload_end_to_end(self, run_tasks):
        tasks = make_io_workload(6, seed=0)
        makespan, _ = run_tasks(tasks, GreedyBalance())
        instance = tasks_to_instance(tasks, unit_split=True)
        # Nothing finishes before the work bound.
        assert makespan >= instance.work_lower_bound()

    def test_over_grant_raises(self, tasks, run_tasks):
        with pytest.raises(InfeasibleAssignmentError, match="overused"):
            run_tasks(tasks, lambda s: [Fraction(1), Fraction(1)])
