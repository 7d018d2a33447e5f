"""Seeded crosscheck matrix for the fused compiled driver.

The acceptance bar for the compiled tier: a vector run served by the
fused driver must agree with the exact Fraction backend (integer
makespans, so equality) and with the per-step vector run within 1e-9
on every objective -- across every built-in policy,
``k in {1, 2, 3}``, the arrival axis, weighted and deadline-carrying
jobs, and ragged batched runs.  Well over 100 seeded cases run here;
each case audits one (policy, instance) pair through all three
engines.  The ``numba_available`` fixture (``tests/conftest.py``)
picks the path each run takes.
"""

import pytest

from repro.algorithms import available_policies, get_policy
from repro.backends import ExactBackend, VectorBackend, run_batch
from repro.telemetry import TelemetrySession, use_session
from repro.generators import (
    bag_instance,
    general_size_instance,
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_resources,
    with_weights,
)

RTOL = 1e-9

OBJECTIVES = ("makespan", "weighted-flow", "tardiness")


def fused_run(numba_available, run):
    """Call *run* on the fused path and check that it really took it."""
    numba_available(True)
    session = TelemetrySession(tracing=False)
    with use_session(session):
        result = run()
    assert session.metrics.counter("compiled.runs").value >= 1
    return result


def per_step_run(numba_available, run):
    """Call *run* on the per-step path."""
    numba_available(False)
    return run()


def assert_compiled_matches(
    numba_available, instance, policy, *, objectives=OBJECTIVES
):
    """One instance through exact, per-step vector, and fused driver."""
    exact = ExactBackend().run(
        instance, policy, record_shares=False, objectives=objectives
    )

    def vector():
        return VectorBackend().run(
            instance, policy, record_shares=False, objectives=objectives
        )

    off = per_step_run(numba_available, vector)
    on = fused_run(numba_available, vector)
    assert on.makespan == off.makespan == exact.makespan, policy.name
    assert on.completion_steps == off.completion_steps, policy.name
    for name in objectives:
        got = on.objective_values[name]
        assert got == pytest.approx(
            off.objective_values[name], rel=RTOL, abs=RTOL
        ), (policy.name, name)
        assert float(got) == pytest.approx(
            float(exact.objective_values[name]), rel=RTOL, abs=RTOL
        ), (policy.name, name)
    return on


class TestAllPoliciesSingleResource:
    """Every built-in policy over seeded k=1 instances."""

    @pytest.mark.parametrize("policy_name", sorted(available_policies()))
    @pytest.mark.parametrize("seed", range(6))
    def test_uniform(self, policy_name, seed, numba_available):
        inst = uniform_instance(2 + seed % 4, 2 + seed % 5, seed=31 * seed)
        assert_compiled_matches(numba_available, inst, get_policy(policy_name))

    @pytest.mark.parametrize("policy_name", sorted(available_policies()))
    @pytest.mark.parametrize("seed", range(3))
    def test_general_sizes(self, policy_name, seed, numba_available):
        inst = general_size_instance(3, 4, seed=47 * seed + 1)
        assert_compiled_matches(numba_available, inst, get_policy(policy_name))


class TestAxes:
    """Arrival, weight, and deadline axes through the fused driver."""

    @pytest.mark.parametrize(
        "policy_name", ["greedy-balance", "round-robin", "proportional-share"]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_arrivals(self, policy_name, seed, numba_available):
        inst = with_arrivals(
            uniform_instance(3, 4, seed=seed), max_release=6, seed=900 + seed
        )
        assert_compiled_matches(numba_available, inst, get_policy(policy_name))

    @pytest.mark.parametrize("policy_name", ["weighted-srpt", "greedy-balance"])
    @pytest.mark.parametrize("seed", range(5))
    def test_weights(self, policy_name, seed, numba_available):
        inst = with_weights(bag_instance(3, 4, seed=seed), seed=40 + seed)
        assert_compiled_matches(numba_available, inst, get_policy(policy_name))

    @pytest.mark.parametrize("profile", ["loose", "tight"])
    @pytest.mark.parametrize("seed", range(4))
    def test_deadlines(self, profile, seed, numba_available):
        inst = with_deadlines(
            uniform_instance(3, 4, seed=seed), profile=profile, seed=70 + seed
        )
        assert_compiled_matches(
            numba_available,
            inst,
            get_policy("edf-waterfill"),
            objectives=("makespan", "tardiness", "deadline-misses"),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_arrivals_and_weights(self, seed, numba_available):
        inst = with_weights(
            with_arrivals(
                uniform_instance(4, 3, seed=seed), max_release=5, seed=seed
            ),
            seed=seed,
        )
        assert_compiled_matches(numba_available, inst, get_policy("weighted-srpt"))


class TestMultiResource:
    """k in {2, 3} instances through the multi-resource fill kernel."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "profile", ["independent", "correlated", "anti-correlated"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_multires(self, k, profile, seed, numba_available):
        inst = multi_resource_instance(3, 4, k, profile=profile, seed=seed)
        assert_compiled_matches(numba_available, inst, get_policy("greedy-balance"))

    @pytest.mark.parametrize(
        "policy_name",
        ["proportional-share", "greedy-finish-jobs", "round-robin"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_multires_policies(self, policy_name, seed, numba_available):
        inst = with_resources(
            uniform_instance(3, 4, seed=seed), 2, seed=seed + 5
        )
        assert_compiled_matches(numba_available, inst, get_policy(policy_name))

    @pytest.mark.parametrize("seed", range(3))
    def test_multires_arrivals(self, seed, numba_available):
        inst = with_resources(
            with_arrivals(
                uniform_instance(3, 4, seed=seed), max_release=6, seed=seed
            ),
            2,
            profile="correlated",
            seed=seed,
        )
        assert_compiled_matches(numba_available, inst, get_policy("greedy-balance"))


class TestBatchedCompiled:
    """Batched compiled runs, including ragged batches and B=1."""

    @pytest.mark.parametrize("policy_name", ["greedy-balance", "edf-waterfill"])
    @pytest.mark.parametrize("seed", range(3))
    def test_ragged_batch(self, policy_name, seed, numba_available):
        insts = [
            uniform_instance(3, 4, seed=seed),
            uniform_instance(2, 6, seed=seed + 1),
            multi_resource_instance(4, 3, 2, seed=seed),
            with_arrivals(
                uniform_instance(3, 3, seed=seed + 2), max_release=5, seed=seed
            ),
        ]
        def batch():
            return run_batch(insts, policy_name, objectives=OBJECTIVES)

        off = per_step_run(numba_available, batch)
        on = fused_run(numba_available, batch)
        assert on.compiled and not off.compiled
        assert (on.makespans == off.makespans).all()
        for name in OBJECTIVES:
            assert on.objective_values[name] == pytest.approx(
                off.objective_values[name], rel=RTOL, abs=RTOL
            )
        assert on.steps == int(on.makespans.max())
        assert on.lane_steps == int(on.makespans.sum())

    def test_single_lane_batch(self, numba_available):
        inst = uniform_instance(3, 4, seed=123)
        on = fused_run(
            numba_available, lambda: run_batch([inst], "greedy-balance")
        )
        ref = VectorBackend().run(inst, "greedy-balance")  # share rows: per-step
        assert on.lanes == 1 and int(on.makespans[0]) == ref.makespan


class TestRunPolicyEntry:
    """The run_policy entry point picks the fused path on its own."""

    @pytest.mark.parametrize("seed", range(3))
    def test_run_policy_paths_agree(self, seed, numba_available):
        from repro.core.simulator import run_policy

        inst = uniform_instance(3, 4, seed=seed)
        on = fused_run(
            numba_available,
            lambda: run_policy(
                inst, "greedy-balance", backend="vector", record_shares=False
            ),
        )
        off = run_policy(inst, "greedy-balance", backend="vector")
        assert on.makespan == off.makespan
        assert on.shares is None  # the fused driver records completions
        assert off.shares is not None  # share rows force the per-step path

    def test_exact_backend_never_fuses(self, numba_available):
        from repro.core.simulator import run_policy

        numba_available(True)
        inst = uniform_instance(2, 2, seed=0)
        session = TelemetrySession(tracing=False)
        with use_session(session):
            run_policy(inst, "greedy-balance", backend="exact")
        assert session.metrics.counter("compiled.runs").value == 0

    def test_cross_validate_without_shares(self, numba_available):
        from repro.backends import cross_validate

        inst = uniform_instance(3, 4, seed=5)
        check = fused_run(
            numba_available,
            lambda: cross_validate(
                inst, "greedy-balance", compare_shares=False
            ),
        )
        assert check.ok
        assert check.max_share_deviation is None  # shares not compared


class TestDriverLimits:
    """The fused driver mirrors the interpreted kernel's aborts."""

    def test_step_limit(self, numba_available):
        from repro.exceptions import SimulationLimitError

        numba_available(True)
        inst = uniform_instance(3, 6, seed=0)
        with pytest.raises(SimulationLimitError, match="compiled"):
            VectorBackend().run(
                inst,
                "greedy-balance",
                record_shares=False,
                max_steps=1,
            )

    def test_limit_matches_interpreted(self, numba_available):
        """Both engines abort (or not) at exactly the same budget."""
        from repro.exceptions import SimulationLimitError

        inst = uniform_instance(3, 4, seed=9)
        backend = VectorBackend()
        need = backend.run(inst, "greedy-balance").makespan
        for budget in (need - 1, need):
            outcomes = []
            for fused in (False, True):
                numba_available(fused)
                try:
                    backend.run(
                        inst,
                        "greedy-balance",
                        record_shares=False,
                        max_steps=budget,
                    )
                    outcomes.append("ok")
                except SimulationLimitError as exc:
                    assert ("compiled" in str(exc)) == fused
                    outcomes.append("limit")
            assert outcomes[0] == outcomes[1], budget


def test_case_count_floor():
    """The matrix above keeps its >= 100 seeded-case floor."""
    policies = len(available_policies())
    count = (
        policies * 6  # TestAllPoliciesSingleResource.test_uniform
        + policies * 3  # test_general_sizes
        + 3 * 5  # arrivals
        + 2 * 5  # weights
        + 2 * 4  # deadlines
        + 3  # arrivals+weights
        + 2 * 3 * 3  # multires
        + 3 * 3  # multires policies
        + 3  # multires arrivals
        + 2 * 3  # ragged batches
    )
    assert count >= 100, count
