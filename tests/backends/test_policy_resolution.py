"""Regression tests: policy names resolve at every public entry point.

``run_policy(inst, "round-robin")`` used to crash with a raw
``TypeError: 'str' object is not callable`` from the kernel's policy
query; the vector backend reported the even more misleading
``VectorizationUnsupportedError: ... does not implement shares_array``.
These tests pin the fix: every entry point resolves registry names,
unknown names raise :class:`UnknownPolicyError` listing
``available_policies()``, and the vector backend's capability check
only fires for genuine policy objects.
"""

import pytest

from repro.algorithms import (
    GreedyBalance,
    available_policies,
    get_policy,
    resolve_policy,
)
from repro.backends import BatchRunner, cross_validate, get_backend
from repro.core import Instance, run_policy, simulate
from repro.exceptions import (
    ReproError,
    UnknownPolicyError,
    VectorizationUnsupportedError,
)
from repro.generators import uniform_instance


@pytest.fixture
def inst() -> Instance:
    return Instance.from_percent([[60, 40, 30], [80, 20, 50]])


class TestResolvePolicy:
    def test_string_resolves_to_registered_policy(self):
        assert resolve_policy("round-robin").name == "round-robin"

    def test_object_passes_through_unchanged(self):
        policy = GreedyBalance()
        assert resolve_policy(policy) is policy

    def test_unknown_name_raises_listing_available(self):
        with pytest.raises(UnknownPolicyError) as err:
            resolve_policy("no-such-policy")
        message = str(err.value)
        assert "no-such-policy" in message
        for name in available_policies():
            assert name in message

    def test_unknown_policy_error_is_keyerror_and_repro_error(self):
        # Callers historically caught the registry's KeyError; the new
        # type must satisfy both idioms.
        with pytest.raises(KeyError):
            get_policy("nope")
        with pytest.raises(ReproError):
            get_policy("nope")


class TestEntryPoints:
    def test_run_policy_exact_accepts_name(self, inst):
        by_name = run_policy(inst, "round-robin")
        by_object = run_policy(inst, get_policy("round-robin"))
        assert by_name.makespan == by_object.makespan

    def test_run_policy_vector_accepts_name(self, inst):
        by_name = run_policy(inst, "round-robin", backend="vector")
        by_object = run_policy(
            inst, get_policy("round-robin"), backend="vector"
        )
        assert by_name.makespan == by_object.makespan

    def test_simulate_accepts_name(self, inst):
        assert (
            simulate(inst, "greedy-balance").makespan
            == simulate(inst, GreedyBalance()).makespan
        )

    def test_backend_run_accepts_name(self, inst):
        for backend in ("exact", "vector"):
            result = get_backend(backend).run(inst, "greedy-balance")
            assert result.makespan == GreedyBalance().run(inst).makespan

    def test_cross_validate_accepts_name(self, inst):
        assert cross_validate(inst, "greedy-balance").ok

    def test_batch_runner_resolves_names_in_workers(self):
        instances = [uniform_instance(3, 4, seed=s) for s in range(4)]
        result = BatchRunner(
            policy="round-robin", backend="vector", workers=1
        ).run(instances)
        expected = [
            run_policy(i, "round-robin", backend="vector").makespan
            for i in instances
        ]
        assert result.makespans == expected

    def test_unknown_name_raises_at_each_entry_point(self, inst):
        with pytest.raises(UnknownPolicyError):
            run_policy(inst, "bogus")
        with pytest.raises(UnknownPolicyError):
            simulate(inst, "bogus")
        with pytest.raises(UnknownPolicyError):
            cross_validate(inst, "bogus")
        with pytest.raises(UnknownPolicyError):
            get_backend("vector").run(inst, "bogus")
        with pytest.raises(UnknownPolicyError):
            BatchRunner(policy="bogus")


class TestVectorCapabilityCheck:
    def test_string_policy_is_resolved_not_misreported(self, inst):
        # Before the fix this raised VectorizationUnsupportedError
        # claiming 'round-robin' lacks its array path -- it does not.
        result = get_backend("vector").run(inst, "round-robin")
        assert result.makespan == run_policy(inst, "round-robin").makespan

    def test_capability_check_still_fires_for_exact_only_objects(self, inst):
        class ExactOnly:
            name = "exact-only"

            def __call__(self, state):  # pragma: no cover - never queried
                return [0] * state.num_processors

        with pytest.raises(VectorizationUnsupportedError) as err:
            get_backend("vector").run(inst, ExactOnly())
        assert "shares_batch" in str(err.value)

    def test_unknown_string_raises_unknown_policy_not_capability(self, inst):
        with pytest.raises(UnknownPolicyError):
            get_backend("vector").make_runtime(inst, "bogus")
