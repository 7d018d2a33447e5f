"""Unit tests for the objective-aware policies (EDF / weighted SRPT)."""

from fractions import Fraction

import pytest

from repro.algorithms import (
    EDFWaterfill,
    GreedyFinishJobs,
    WeightedSRPT,
    available_policies,
    get_policy,
)
from repro.backends import cross_validate
from repro.core import ExecState, Instance
from repro.core.properties import is_non_wasting, is_progressive
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_deadlines,
    with_weights,
)


class TestRegistration:
    def test_registered_with_vector_paths(self):
        for name in ("edf-waterfill", "weighted-srpt"):
            assert name in available_policies()
            assert get_policy(name).supports_batch


class TestEDFWaterfill:
    def test_earliest_deadline_drinks_first(self):
        inst = Instance.from_requirements(
            [["9/10"], ["9/10"]]
        ).with_deadlines([[9], [1]])
        shares = EDFWaterfill().shares(ExecState(inst))
        assert shares[1] == Fraction(9, 10)  # urgent job gets its fill
        assert shares[0] == Fraction(1, 10)  # leftover only

    def test_deadline_free_jobs_queue_last(self):
        inst = Instance.from_requirements(
            [["9/10"], ["9/10"]]
        ).with_deadlines([[None], [7]])
        shares = EDFWaterfill().shares(ExecState(inst))
        assert shares[1] == Fraction(9, 10)

    def test_ties_broken_by_remaining_work(self):
        inst = Instance.from_requirements(
            [["8/10"], ["3/10"]]
        ).with_deadlines([[5], [5]])
        shares = EDFWaterfill().shares(ExecState(inst))
        # Equal deadlines: the cheaper job completes first.
        assert shares[1] == Fraction(3, 10)
        assert shares[0] == Fraction(7, 10)

    def test_schedules_stay_nice(self):
        inst = with_deadlines(uniform_instance(3, 4, seed=2), profile="tight", seed=2)
        schedule = EDFWaterfill().run(inst)
        assert is_non_wasting(schedule)
        assert is_progressive(schedule)

    def test_reduces_tardiness_vs_reverse_priority(self):
        from repro.objectives import Tardiness

        inst = with_deadlines(uniform_instance(4, 4, seed=3), profile="mixed", seed=3)
        edf = Tardiness().value(EDFWaterfill().run(inst))
        rr = Tardiness().value(get_policy("round-robin").run(inst))
        assert edf <= rr

    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_resource_runs(self, k):
        inst = multi_resource_instance(3, 3, k, seed=1)
        result = EDFWaterfill().run_backend(inst, backend="exact")
        assert result.makespan >= inst.makespan_lower_bound()


class TestWeightedSRPT:
    def test_weight_density_order(self):
        inst = Instance.from_requirements(
            [["8/10"], ["8/10"]]
        ).with_weights([[1], [8]])
        shares = WeightedSRPT().shares(ExecState(inst))
        # Same remaining work, higher weight -> smaller density, first.
        assert shares[1] == Fraction(8, 10)
        assert shares[0] == Fraction(2, 10)

    def test_unit_weights_reproduce_greedy_finish_jobs(self):
        for seed in range(10):
            inst = uniform_instance(3, 4, seed=seed)
            a = WeightedSRPT().run(inst)
            b = GreedyFinishJobs().run(inst)
            assert [s.shares for s in a.steps] == [s.shares for s in b.steps]

    def test_schedules_stay_nice(self):
        inst = with_weights(uniform_instance(3, 4, seed=4), profile="skewed", seed=4)
        schedule = WeightedSRPT().run(inst)
        assert is_non_wasting(schedule)
        assert is_progressive(schedule)

    def test_improves_weighted_flow_vs_round_robin(self):
        from repro.objectives import WeightedFlowTime

        inst = with_weights(uniform_instance(4, 4, seed=5), profile="skewed", seed=5)
        srpt = WeightedFlowTime().value(WeightedSRPT().run(inst))
        rr = WeightedFlowTime().value(get_policy("round-robin").run(inst))
        assert srpt <= rr

    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_resource_runs(self, k):
        inst = multi_resource_instance(3, 3, k, seed=2)
        result = WeightedSRPT().run_backend(inst, backend="exact")
        assert result.makespan >= inst.makespan_lower_bound()


class TestVectorAgreement:
    """Exact and vector paths produce the same schedules (the shared
    policy contract, on annotated instances too)."""

    @pytest.mark.parametrize("policy", ["edf-waterfill", "weighted-srpt"])
    @pytest.mark.parametrize("seed", range(20))
    def test_annotated_agreement(self, policy, seed):
        inst = with_deadlines(
            with_weights(
                uniform_instance(2 + seed % 4, 2 + seed % 4, seed=seed),
                profile="uniform",
                seed=seed,
            ),
            profile="mixed",
            seed=seed,
        )
        check = cross_validate(inst, get_policy(policy))
        assert check.ok, (policy, seed, check)
        assert check.max_share_deviation <= 1e-9

    @pytest.mark.parametrize("policy", ["edf-waterfill", "weighted-srpt"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_resource_agreement(self, policy, k):
        for seed in range(5):
            inst = multi_resource_instance(3, 3, k, seed=seed)
            check = cross_validate(inst, get_policy(policy))
            assert check.ok, (policy, k, seed, check)
