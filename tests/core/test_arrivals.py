"""Online-arrival (release time) semantics across every layer."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    GreedyBalance,
    RoundRobin,
    available_policies,
    get_policy,
    greedy_balance_makespan,
    opt_res_assignment,
    round_robin_makespan_formula,
)
from repro.analysis import verify_schedule, verify_share_rows
from repro.backends import VectorBackend, make_campaign_instances
from repro.core import ExecState, Instance, simulate
from repro.core.simulator import default_step_limit
from repro.exceptions import InvalidInstanceError
from repro.generators import (
    Phase,
    TaskSpec,
    sample_arrivals,
    tasks_to_instance,
    uniform_instance,
    with_arrivals,
)
from repro.io import instance_from_dict, instance_to_dict

from .test_golden import share_digest


class TestInstanceReleases:
    def test_default_is_static(self, two_proc_instance):
        assert two_proc_instance.releases == (0, 0)
        assert not two_proc_instance.has_releases
        assert two_proc_instance.max_release == 0

    def test_with_releases(self, two_proc_instance):
        inst = two_proc_instance.with_releases([2, 0])
        assert inst.releases == (2, 0)
        assert inst.has_releases
        assert inst.max_release == 2
        assert inst.release(0) == 2
        # queues untouched, original untouched
        assert inst.queues == two_proc_instance.queues
        assert not two_proc_instance.has_releases

    def test_releases_affect_identity(self, two_proc_instance):
        released = two_proc_instance.with_releases([1, 0])
        assert released != two_proc_instance
        assert hash(released) != hash(two_proc_instance) or released != two_proc_instance
        assert released == two_proc_instance.with_releases((1, 0))

    def test_validation(self):
        with pytest.raises(InvalidInstanceError, match="non-negative"):
            Instance.from_requirements([["1/2"]], releases=[-1])
        with pytest.raises(InvalidInstanceError, match="entries"):
            Instance.from_requirements([["1/2"]], releases=[0, 1])

    def test_step_limit_covers_releases(self):
        inst = Instance.from_requirements([["1/2"], ["1/2"]], releases=[0, 1000])
        assert default_step_limit(inst) > 1000

    def test_lower_bound_static_equals_work_bound(self, two_proc_instance):
        assert (
            two_proc_instance.makespan_lower_bound()
            == two_proc_instance.work_lower_bound()
        )

    def test_lower_bound_accounts_for_arrivals(self):
        inst = Instance.from_requirements(
            [["1/10"], ["1/10", "1/10"]], releases=[0, 7]
        )
        # p1 arrives at 7 and still needs 2 unit jobs => >= 9 steps.
        assert inst.makespan_lower_bound() >= 9
        assert simulate(inst, GreedyBalance()).makespan >= 9

    def test_suffix_drops_releases(self):
        inst = Instance.from_requirements(
            [["1/2", "1/2"], ["1/4", "1/4"]], releases=[0, 3]
        )
        suffix = inst.restrict_to_suffix([1, 1])
        assert not suffix.has_releases

    def test_serialization_round_trip(self):
        inst = Instance.from_requirements(
            [["1/2", "1/3"], ["3/4"]], releases=[0, 5]
        )
        data = instance_to_dict(inst)
        assert data["releases"] == [0, 5]
        assert instance_from_dict(data) == inst

    def test_static_serialization_unchanged(self, two_proc_instance):
        data = instance_to_dict(two_proc_instance)
        assert "releases" not in data
        assert instance_from_dict(data) == two_proc_instance


class TestStaticOnlyGuards:
    def test_exact_algorithms_reject_arrivals(self):
        inst = Instance.from_requirements([["1/2"], ["1/2"]], releases=[0, 1])
        for fn in (
            opt_res_assignment,
            greedy_balance_makespan,
            round_robin_makespan_formula,
        ):
            with pytest.raises(InvalidInstanceError, match="static model"):
                fn(inst)


class TestExecStateReleases:
    def test_inactive_until_released(self):
        inst = Instance.from_requirements([["1/2"], ["1/2"]], releases=[0, 2])
        state = ExecState(inst)
        assert state.is_active(0) and not state.is_active(1)
        assert not state.is_released(1)
        assert state.waiting
        # granting the unreleased processor wastes the share
        outcome = state.apply([Fraction(0), Fraction(1, 2)])
        assert outcome.processed == (Fraction(0), Fraction(0))
        assert outcome.active[1] is None
        state.apply([Fraction(0), Fraction(0)])
        assert state.is_active(1)  # t == 2 now
        assert not state.waiting

    def test_all_done_waits_for_arrivals(self):
        inst = Instance.from_requirements([["1/2"], ["1/2"]], releases=[0, 4])
        state = ExecState(inst)
        state.apply([Fraction(1, 2), Fraction(0)])  # finishes p0's job
        assert not state.all_done


class TestSimulateWithArrivals:
    @pytest.mark.parametrize("policy_name", sorted(available_policies()))
    def test_no_job_starts_before_release(self, policy_name):
        inst = Instance.from_requirements(
            [["1/2", "1/4"], ["3/4"], ["1/5", "2/5"]], releases=[0, 2, 4]
        )
        schedule = simulate(inst, get_policy(policy_name))
        for (i, j), start in schedule.start_steps.items():
            assert start >= inst.release(i)
        assert verify_schedule(schedule).ok

    def test_vector_rows_verify_with_releases(self):
        inst = Instance.from_requirements(
            [["1/2", "1/4"], ["3/4"], ["1/5", "2/5"]], releases=[0, 2, 4]
        )
        result = VectorBackend().run(inst, GreedyBalance())
        report = verify_share_rows(inst, result.shares)
        assert report.ok, report.problems

    def test_round_robin_phase_blocks_on_unreleased(self):
        """A later-arriving processor holds its phase open: RoundRobin
        must not skip ahead, on either backend."""
        inst = Instance.from_requirements(
            [["1/2", "1/2", "1/2"], ["1/2", "1/2"]], releases=[0, 4]
        )
        exact = simulate(inst, RoundRobin())
        vector = VectorBackend().run(inst, RoundRobin(), record_shares=True)
        assert exact.makespan == vector.makespan
        # phase 1 cannot end before p1 arrives and finishes job 0
        assert exact.completion_step(0, 1) > exact.completion_step(1, 0) - 1
        rows = [[float(x) for x in step.shares] for step in exact.steps]
        for a, b in zip(rows, vector.shares):
            assert a == pytest.approx(list(b), abs=1e-9)


class TestArrivalGenerators:
    def test_sample_arrivals_deterministic(self):
        a = sample_arrivals(8, max_release=10, seed=3)
        assert a == sample_arrivals(8, max_release=10, seed=3)
        assert all(0 <= r <= 10 for r in a)
        assert min(a) == 0  # pin_first
        assert sample_arrivals(8, max_release=0, seed=3) == (0,) * 8

    def test_with_arrivals_zero_is_identity(self):
        inst = uniform_instance(4, 4, seed=0)
        assert with_arrivals(inst, max_release=0, seed=1) is inst

    def test_task_start_offsets(self):
        tasks = [
            TaskSpec("a", [Phase("1/2", 2)]),
            TaskSpec("b", [Phase("1/4", 1)], start=3),
        ]
        inst = tasks_to_instance(tasks)
        assert inst.releases == (0, 3)
        with pytest.raises(ValueError, match="negative start"):
            TaskSpec("bad", [Phase("1/2", 1)], start=-1)

    def test_campaign_arrivals_deterministic(self):
        a = make_campaign_instances(5, 4, 3, seed=0, max_release=6)
        b = make_campaign_instances(5, 4, 3, seed=0, max_release=6)
        assert a == b
        assert any(inst.has_releases for inst in a)
        static = make_campaign_instances(5, 4, 3, seed=0)
        assert [i.queues for i in a] == [i.queues for i in static]

    def test_campaign_arrival_seed_decorrelated(self):
        """Release times come from their own stream: an explicit
        arrival_seed changes the releases but never the requirements,
        and the default is not the raw requirement seed."""
        a = make_campaign_instances(6, 4, 3, seed=0, max_release=6)
        b = make_campaign_instances(
            6, 4, 3, seed=0, max_release=6, arrival_seed=99
        )
        assert [i.queues for i in a] == [i.queues for i in b]
        assert [i.releases for i in a] != [i.releases for i in b]
        coupled = [
            sample_arrivals(4, max_release=6, seed=0 + k) for k in range(6)
        ]
        assert [list(i.releases) for i in a] != [list(r) for r in coupled]

    @pytest.mark.parametrize("backend", ["exact", "vector"])
    def test_idle_before_start_is_not_a_stall(self, run_tasks, backend):
        tasks = [
            TaskSpec("early", [Phase("1/2", 1)]),
            TaskSpec("late", [Phase("1/2", 1)], start=6),
        ]
        _, rec = run_tasks(tasks, GreedyBalance(), backend=backend)
        # core 1 is inactive (not stalled) until its task starts
        assert rec.stall_steps[1] == 0
        assert rec.busy_steps[1] == 1
        assert rec.last_completion[1] == 6


class TestArrivalsExperiment:
    def test_registered_and_reproduces(self):
        from repro.experiments import get_experiment
        from repro.experiments.runner import run_experiment

        exp = get_experiment("ARR")
        result = run_experiment(
            exp, m=3, n=3, spreads=(0, 3), seeds=(0, 1), backend="vector"
        )
        assert result.verdict is True
        assert any(row["spread"] == 3 for row in result.rows)


# ----------------------------------------------------------------------
# Property-based: release-time-0 is the paper's static model, exactly
# ----------------------------------------------------------------------
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=40, **COMMON)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
)
def test_zero_releases_bit_identical_property(seed, m, n):
    """Explicit all-zero releases never change a single share."""
    inst = uniform_instance(m, n, grid=20, seed=seed)
    released = inst.with_releases((0,) * m)
    for policy in (GreedyBalance(), RoundRobin()):
        assert share_digest(policy.run(inst)) == share_digest(
            policy.run(released)
        )


@settings(max_examples=30, **COMMON)
@given(
    seed=st.integers(0, 10_000),
    spread=st.integers(0, 8),
)
def test_arrival_schedules_respect_model_property(seed, spread):
    """Feasibility, release discipline, and the lower bound hold for
    random arrival instances under GreedyBalance."""
    inst = with_arrivals(
        uniform_instance(3, 3, grid=20, seed=seed),
        max_release=spread,
        seed=seed + 1,
    )
    schedule = simulate(inst, GreedyBalance())
    assert verify_schedule(schedule).ok
    assert schedule.makespan >= inst.makespan_lower_bound()
    for (i, _j), start in schedule.start_steps.items():
        assert start >= inst.release(i)
