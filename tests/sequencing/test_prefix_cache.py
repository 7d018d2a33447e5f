"""Partial-evaluation prefix cache of the local-search sequencer.

The cache resumes candidate evaluations from
:class:`~repro.core.checkpoint.KernelCheckpoint` snapshots taken along
the incumbent's run, so it must be a pure optimization.  The two
evaluation paths are compared directly: every resumed evaluation the
search makes is checked against a fresh run of the same candidate, and
a search whose candidate evaluations all run fresh is pinned
bit-identical (every order visited, every acceptance) to the resuming
one.  Fresh evaluations stay on the per-step path
(``numba_available(False)``), like the resumed ones.
"""

import pytest

from repro.generators import (
    bag_instance,
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_weights,
)
from repro.sequencing import LocalSearchSequencer
from repro.telemetry import TelemetrySession, use_session


def _annotated(seed=3):
    inst = uniform_instance(4, 6, seed=seed)
    inst = with_arrivals(inst, max_release=3, seed=seed + 1)
    inst = with_weights(inst, profile="skewed", seed=seed + 2)
    return with_deadlines(inst, profile="mixed", seed=seed + 3)


class _Checked(LocalSearchSequencer):
    """Checks every resumed evaluation against a fresh one."""

    checked = 0

    def _evaluate_prefix(self, candidate):
        resumed = super()._evaluate_prefix(candidate)
        assert resumed == self.evaluate(candidate)
        self.checked += 1
        return resumed


class _Fresh(LocalSearchSequencer):
    """Evaluates every uncached candidate from ``t=0``."""

    def _evaluate_prefix(self, candidate):
        return self.evaluate(candidate)


def _pair(**kwargs):
    return _Checked(**kwargs), _Fresh(**kwargs)


@pytest.fixture(autouse=True)
def _per_step(numba_available):
    numba_available(False)


class TestTrajectoryIdentity:
    """Resumed vs fresh: same orders, same values, same decisions."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_result_and_decisions(self, seed):
        inst = bag_instance(4, 4, seed=seed)
        resumed, fresh = _pair(budget=60, restarts=2, seed=seed)
        assert resumed.sequence(inst) == fresh.sequence(inst)
        for key in ("initial", "best", "evaluations", "accepted",
                    "rejected", "cache_hits", "kernel_runs"):
            assert resumed.last_stats[key] == fresh.last_stats[key], key
        assert resumed.last_stats["prefix_hits"] > 0
        assert resumed.checked == resumed.last_stats["kernel_runs"]

    def test_same_result_with_annotations(self):
        # Arrivals, weights and deadlines all ride in the checkpoint
        # state; a mismatch would push the trajectories apart.
        inst = _annotated()
        resumed, fresh = _pair(
            budget=80, restarts=3, seed=1, objective="weighted-flow"
        )
        assert resumed.sequence(inst) == fresh.sequence(inst)
        assert resumed.last_stats["best"] == fresh.last_stats["best"]
        assert resumed.last_stats["prefix_hits"] > 0
        assert resumed.checked > 0

    def test_multi_resource_instances(self):
        inst = multi_resource_instance(3, 5, 2, seed=11)
        resumed, fresh = _pair(budget=40, restarts=2, seed=4)
        assert resumed.sequence(inst) == fresh.sequence(inst)
        assert resumed.last_stats["best"] == fresh.last_stats["best"]
        assert resumed.checked > 0

    def test_accounting_identity_still_holds(self):
        # Promotion re-runs are bookkeeping, not evaluations: the
        # pinned identity cache_hits + kernel_runs == evaluations
        # survives with the cache active.
        inst = bag_instance(2, 2, seed=0)
        seq = LocalSearchSequencer(budget=60, seed=0)
        seq.sequence(inst)
        stats = seq.last_stats
        assert (
            stats["cache_hits"] + stats["kernel_runs"]
            == stats["evaluations"]
        )


class TestActivation:
    """Resume is chosen by the search's own configuration."""

    def test_auto_enables_on_the_sequential_vector_path(self):
        seq = LocalSearchSequencer(budget=40, seed=0)
        seq.sequence(bag_instance(3, 3, seed=5))
        assert seq.last_stats["prefix_hits"] > 0

    def test_auto_disables_on_the_exact_backend(self):
        seq = LocalSearchSequencer(budget=12, seed=0, backend="exact")
        seq.sequence(bag_instance(2, 2, seed=5))
        assert seq.last_stats["prefix_hits"] == 0

    def test_auto_disables_on_the_batched_climb(self):
        seq = LocalSearchSequencer(budget=24, seed=0, batch_lanes=4)
        seq.sequence(bag_instance(3, 3, seed=5))
        assert seq.last_stats["prefix_hits"] == 0


class TestResumeBounds:
    def test_length_mismatch_disables_resume(self):
        bounds = LocalSearchSequencer._prefix_bounds(
            ((1, 2, 3), (4,)), ((1, 2), (3, 4))
        )
        assert bounds is None

    def test_identical_queues_are_unconstrained(self):
        bounds = LocalSearchSequencer._prefix_bounds(
            ((1, 2), (3, 4)), ((1, 2), (4, 3))
        )
        assert bounds == [None, 0]

    def test_divergence_index_is_the_common_prefix_length(self):
        bounds = LocalSearchSequencer._prefix_bounds(
            ((1, 2, 3, 4),), ((1, 2, 4, 3),)
        )
        assert bounds == [2]


class TestTelemetry:
    def test_prefix_hits_counter_is_recorded(self):
        session = TelemetrySession(tracing=False)
        with use_session(session):
            seq = LocalSearchSequencer(budget=40, seed=0)
            seq.sequence(bag_instance(3, 3, seed=5))
        value = session.metrics.counter("sequencer.prefix_hits").value
        assert value == seq.last_stats["prefix_hits"] > 0
