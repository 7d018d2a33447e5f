"""Cross-validation of the vector backend against the exact one.

The acceptance bar for the float path: makespans agree within 1e-9
relative error on hundreds of random instances, and per-step shares
match within tolerance for the analyzed policies (RoundRobin,
GreedyBalance).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algorithms import (
    GreedyBalance,
    Policy,
    RoundRobin,
    available_policies,
    get_policy,
)
from repro.analysis import verify_share_rows
from repro.backends import (
    BackendResult,
    ExactBackend,
    VectorBackend,
    available_backends,
    cross_validate,
    get_backend,
)
from repro.core import run_policy
from repro.exceptions import BackendError, VectorizationUnsupportedError
from repro.generators import (
    general_size_instance,
    ragged_instance,
    uniform_instance,
)

from ..conftest import unit_instances

RTOL = 1e-9
SHARE_TOL = 1e-9


def assert_agreement(instance, policy):
    check = cross_validate(instance, policy, rtol=RTOL)
    assert check.ok, (
        f"{policy.name}: exact={check.exact_makespan} "
        f"vector={check.vector_makespan} on {instance!r}"
    )
    assert check.max_share_deviation <= SHARE_TOL


class TestCrossValidation:
    """200 seeded random instances, each checked for both analyzed
    policies (makespan within 1e-9 relative + per-step share match)."""

    @pytest.mark.parametrize("policy_cls", [RoundRobin, GreedyBalance])
    @pytest.mark.parametrize("seed", range(100))
    def test_uniform_unit_instances(self, policy_cls, seed):
        m = 2 + seed % 5
        n = 2 + seed % 7
        assert_agreement(uniform_instance(m, n, seed=seed), policy_cls())

    @pytest.mark.parametrize("policy_cls", [RoundRobin, GreedyBalance])
    @pytest.mark.parametrize("seed", range(50))
    def test_general_size_instances(self, policy_cls, seed):
        inst = general_size_instance(2 + seed % 4, 3, max_size=3, seed=seed)
        assert_agreement(inst, policy_cls())

    @pytest.mark.parametrize("policy_cls", [RoundRobin, GreedyBalance])
    @pytest.mark.parametrize("seed", range(50))
    def test_ragged_instances(self, policy_cls, seed):
        assert_agreement(ragged_instance(4, (1, 6), seed=seed), policy_cls())

    @pytest.mark.parametrize("name", sorted(available_policies()))
    @pytest.mark.parametrize("seed", range(5))
    def test_every_registered_policy_has_an_agreeing_vector_path(
        self, name, seed
    ):
        policy = get_policy(name)
        assert policy.supports_batch
        assert_agreement(uniform_instance(3, 5, seed=seed), policy)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(inst=unit_instances(max_m=4, max_n=5))
    def test_property_agreement(self, inst):
        assert_agreement(inst, GreedyBalance())
        assert_agreement(inst, RoundRobin())


class TestVectorBackend:
    def test_tolerant_verification_of_vector_rows(self):
        inst = uniform_instance(6, 8, seed=3)
        result = VectorBackend().run(inst, GreedyBalance())
        report = verify_share_rows(inst, result.shares)
        assert report.ok, report.problems
        # Completion accounting agrees with the backend's own record.
        assert report.completion_steps == result.completion_steps

    def test_completion_steps_match_exact(self):
        inst = uniform_instance(5, 6, seed=11)
        exact = ExactBackend().run(inst, GreedyBalance())
        vector = VectorBackend().run(inst, GreedyBalance())
        assert vector.completion_steps == exact.completion_steps

    def test_record_shares_off(self):
        inst = uniform_instance(4, 4, seed=0)
        result = VectorBackend().run(inst, GreedyBalance(), record_shares=False)
        assert result.shares is None
        assert result.makespan == GreedyBalance().run(inst).makespan
        with pytest.raises(ValueError):
            result.share_rows()

    def test_rejects_unvectorized_policy(self):
        class ExactOnly(Policy):
            name = "exact-only"

            def shares(self, state):
                return [0] * state.num_processors

        with pytest.raises(VectorizationUnsupportedError):
            VectorBackend().run(uniform_instance(2, 2, seed=0), ExactOnly())
        assert not ExactOnly().supports_batch

    def test_zero_requirement_jobs(self):
        from repro.core import Instance

        inst = Instance.from_requirements([[0, 0, "1/2"], ["3/4", "1/4"]])
        assert_agreement(inst, GreedyBalance())

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            VectorBackend(tol=0.0)


class TestBackendPlumbing:
    def test_registry(self):
        assert available_backends() == ["exact", "vector"]
        assert isinstance(get_backend("exact"), ExactBackend)
        assert isinstance(get_backend("vector"), VectorBackend)
        with pytest.raises(BackendError):
            get_backend("gpu")

    def test_exact_backend_carries_schedule(self):
        inst = uniform_instance(3, 4, seed=1)
        result = ExactBackend().run(inst, GreedyBalance())
        assert isinstance(result, BackendResult)
        assert result.schedule is not None
        assert result.schedule.makespan == result.makespan
        assert result.share_rows() == [
            tuple(row) for row in result.schedule.share_rows()
        ]

    def test_run_policy_dispatch(self):
        inst = uniform_instance(3, 4, seed=2)
        exact = run_policy(inst, GreedyBalance(), backend="exact")
        vector = run_policy(inst, GreedyBalance(), backend="vector")
        assert exact.makespan == vector.makespan

    def test_policy_run_backend(self):
        inst = uniform_instance(3, 4, seed=2)
        result = GreedyBalance().run_backend(inst, backend="vector")
        assert result.backend == "vector"
        assert result.makespan == GreedyBalance().run(inst).makespan


class TestEngineBackend:
    def test_vector_core_activity_matches_exact(self, run_tasks):
        from repro.generators import make_io_workload

        tasks = make_io_workload(6, seed=5)
        exact_makespan, exact = run_tasks(tasks, GreedyBalance())
        vector_makespan, vector = run_tasks(
            tasks, GreedyBalance(), backend="vector"
        )
        assert vector_makespan == exact_makespan
        assert vector.last_completion == exact.last_completion
        assert vector.busy_steps == exact.busy_steps
        assert vector.stall_steps == exact.stall_steps
        assert (
            abs(float(vector.bus_utilization) - float(exact.bus_utilization))
            < 1e-9
        )

    def test_sim_experiment_on_vector_backend(self):
        from repro.experiments import get_experiment
        from repro.experiments.runner import run_experiment

        exp = get_experiment("SIM")
        result = run_experiment(
            exp, backend="vector", num_cores=4, seeds=(0,)
        )
        assert result.params["backend"] == "vector"
        assert result.verdict is True

    def test_exact_only_experiment_rejects_vector(self):
        from repro.experiments import get_experiment
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError):
            run_experiment(get_experiment("FIG1"), backend="vector")
