"""End-to-end integration: the full user journey through the library.

Simulates what a downstream user does: model a workload, convert it,
run every policy, verify and serialize the schedules, analyze structure
and bounds, solve exactly, and compare -- one test per pipeline stage,
sharing state through fixtures so failures localize."""

from fractions import Fraction

import pytest

from repro import (
    GreedyBalance,
    best_lower_bound,
    opt_res_assignment_general,
)
from repro.algorithms import available_policies, get_policy, greedy_balance_makespan
from repro.analysis import compute_metrics, mean_completion_time, verify_schedule
from repro.core import SchedulingGraph, make_nice
from repro.core.properties import is_nice
from repro.generators import make_io_workload, tasks_to_instance
from repro.io import load_schedule, save_schedule
from repro.viz import render_components, render_schedule, schedule_svg


@pytest.fixture(scope="module")
def tasks():
    return make_io_workload(4, seed=99)


@pytest.fixture(scope="module")
def instance(tasks):
    return tasks_to_instance(tasks, unit_split=True)


@pytest.fixture(scope="module")
def schedules(instance):
    return {
        name: get_policy(name).run(instance) for name in available_policies()
    }


class TestPipeline:
    def test_all_policies_verify(self, schedules):
        for name, sched in schedules.items():
            report = verify_schedule(sched)
            assert report.ok, (name, report.problems)

    def test_metrics_consistent(self, instance, schedules):
        lb = best_lower_bound(instance)
        for name, sched in schedules.items():
            metrics = compute_metrics(sched)
            assert metrics.makespan >= lb, name
            assert metrics.lower_bound >= lb
            assert mean_completion_time(sched) <= metrics.makespan

    def test_fastpath_agrees_with_simulation(self, instance, schedules):
        assert (
            greedy_balance_makespan(instance)
            == schedules["greedy-balance"].makespan
        )

    def test_activity_run_agrees_with_simulator(self, tasks, schedules, run_tasks):
        makespan, _ = run_tasks(tasks, GreedyBalance())
        assert makespan == schedules["greedy-balance"].makespan

    def test_serialization_survives(self, tmp_path, schedules):
        for name, sched in schedules.items():
            path = tmp_path / f"{name}.json"
            save_schedule(sched, path)
            assert load_schedule(path) == sched

    def test_structure_and_bounds(self, instance, schedules):
        gb = schedules["greedy-balance"]
        graph = SchedulingGraph(gb)
        assert graph.check_observation_2()
        assert graph.check_lemma_2()
        m = instance.num_processors
        cert = best_lower_bound(instance, gb)
        assert gb.makespan <= (2 - Fraction(1, m)) * max(cert, 1) + 1

    def test_lemma1_normalization_applies(self, schedules):
        rr = schedules["round-robin"]
        nice = make_nice(rr)
        assert is_nice(nice)
        assert nice.makespan <= rr.makespan

    def test_rendering_works_for_all(self, schedules):
        for sched in schedules.values():
            assert "makespan" in render_schedule(sched)
            assert schedule_svg(sched).startswith("<svg")
        graph = SchedulingGraph(schedules["greedy-balance"])
        assert "components" in render_components(graph)

    def test_exact_solver_confirms_ordering(self, instance, schedules):
        # The exact optimum lower-bounds every policy (instance is
        # small enough thanks to the 4-core workload).
        if instance.total_jobs <= 14 and instance.num_processors <= 4:
            opt = opt_res_assignment_general(instance).makespan
            for name, sched in schedules.items():
                assert sched.makespan >= opt, name
