"""Structure of the float path: one array state, one array policy method.

The vector backend is the one-lane case of the batched array program:
both run :class:`~repro.backends.batched.BatchVectorState` through
``Policy.shares_batch``, and the one-dimensional copies of the state
and of the water-fill are gone.
"""

import dataclasses

import pytest

import repro.algorithms.base as policy_base
import repro.backends as backends
import repro.backends.batched as batched
from repro.algorithms import GreedyBalance, Policy, RoundRobin
from repro.backends import BatchRunResult, VectorBackend, VectorRuntime, run_batch
from repro.generators import uniform_instance, with_arrivals


class TestNoOneDimensionalCopy:
    @pytest.mark.parametrize("name", ["shares_array", "supports_vector"])
    def test_policy_has_one_array_method(self, name):
        assert not hasattr(Policy, name)
        assert not hasattr(GreedyBalance(), name)

    def test_backends_export_no_vector_state(self):
        assert not hasattr(backends, "VectorState")
        assert "VectorState" not in backends.__all__

    @pytest.mark.parametrize(
        "name", ["water_fill_array", "water_fill_array_multi", "_fill_arrays_multi"]
    )
    def test_no_one_dimensional_fill(self, name):
        assert not hasattr(policy_base, name)

    def test_no_lane_adapter_or_fallback_flag(self):
        assert not hasattr(batched, "_LaneView")
        fields = {f.name for f in dataclasses.fields(BatchRunResult)}
        assert "batched_policy" not in fields
        assert not hasattr(VectorRuntime, "_multi_work")

    def test_vector_runtime_holds_a_one_lane_batch_state(self):
        runtime = VectorRuntime(uniform_instance(3, 2, seed=0))
        assert isinstance(runtime.state, batched.BatchVectorState)
        assert runtime.state.num_lanes == 1


def _counting(base):
    class Counting(base):
        calls = 0

        def shares_batch(self, state):
            type(self).calls += 1
            return super().shares_batch(state)

    return Counting()


class TestOneQueryPerStep:
    """Each step asks the policy for its shares exactly once."""

    @pytest.mark.parametrize("base", [GreedyBalance, RoundRobin])
    def test_vector_backend(self, base):
        inst = with_arrivals(uniform_instance(4, 5, seed=1), max_release=3, seed=1)
        policy = _counting(base)
        result = VectorBackend().run(inst, policy)
        assert type(policy).calls == result.makespan

    @pytest.mark.parametrize("base", [GreedyBalance, RoundRobin])
    def test_run_batch(self, base):
        insts = [uniform_instance(3, n, seed=n) for n in (2, 4, 6)]
        policy = _counting(base)
        result = run_batch(insts, policy)
        assert type(policy).calls == result.steps
