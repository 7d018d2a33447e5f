"""Lane compaction and execution-path choice of the batched engine.

Compaction is a pure bookkeeping optimization: once the live fraction
of a ragged batch drops below ``COMPACT_THRESHOLD`` the state shrinks
to the surviving lanes, and every result (makespans, objective values,
error attribution) must be reported against *original* lane indices
exactly as an uncompacted run reports them.  These tests pin that
equivalence (compaction is switched off by patching the constant to
0), the ``compactions``/``batch.compactions`` accounting, and that the
fused and per-step paths give the same rows through ``run_batch``,
``BatchRunner`` and the local-search sequencer.
"""

import numpy as np
import pytest

import repro.backends.batched
from repro.algorithms.base import _fill_arrays_batch_multi
from repro.backends import BatchRunner, run_batch
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
)

OBJECTIVES = ("makespan", "weighted-flow")


def _ragged_batch(seed, lanes=12):
    """A batch with widely mixed makespans, so most lanes finish early."""
    insts = [uniform_instance(2, 1, seed=seed + j) for j in range(lanes - 2)]
    insts.append(uniform_instance(4, 8, seed=seed + 100))
    insts.append(
        with_arrivals(
            uniform_instance(3, 6, seed=seed + 200), max_release=8, seed=seed
        )
    )
    return insts


@pytest.fixture
def compact_threshold(monkeypatch, numba_available):
    """A setter for the batched engine's compaction threshold.

    Compaction only happens on the per-step array program, so the
    fixture also keeps runs off the fused driver.
    """
    numba_available(False)

    def use(value: float) -> None:
        monkeypatch.setattr(repro.backends.batched, "COMPACT_THRESHOLD", value)

    return use


class TestCompactionEquivalence:
    def test_default_threshold(self):
        assert repro.backends.batched.COMPACT_THRESHOLD == 0.5

    @pytest.mark.parametrize("policy_name", ["greedy-balance", "round-robin"])
    @pytest.mark.parametrize("seed", range(5))
    def test_ragged_batch_results_unchanged(
        self, policy_name, seed, compact_threshold
    ):
        insts = _ragged_batch(seed)
        compact_threshold(0)
        base = run_batch(insts, policy_name, objectives=OBJECTIVES)
        compact_threshold(0.5)
        compacted = run_batch(insts, policy_name, objectives=OBJECTIVES)
        assert base.compactions == 0
        assert compacted.compactions > 0  # the ragged shape triggers it
        assert np.array_equal(base.makespans, compacted.makespans)
        for name in OBJECTIVES:
            # Bit-identity: dead lanes contribute nothing to survivors.
            assert base.objective_values[name] == compacted.objective_values[name]
        assert base.steps == compacted.steps

    @pytest.mark.parametrize("seed", range(3))
    def test_multires_ragged_batch(self, seed, compact_threshold):
        insts = [
            multi_resource_instance(3, 1, 2, seed=seed + j) for j in range(6)
        ] + [multi_resource_instance(3, 7, 3, seed=seed + 50)]
        compact_threshold(0)
        base = run_batch(insts, "greedy-balance")
        compact_threshold(0.5)
        compacted = run_batch(insts, "greedy-balance")
        assert compacted.compactions > 0
        assert np.array_equal(base.makespans, compacted.makespans)

    def test_uniform_batch_never_compacts(self, numba_available):
        """Lanes finishing together leave nothing to compact."""
        numba_available(False)
        insts = [uniform_instance(3, 3, seed=7)] * 6
        result = run_batch(insts, "greedy-balance")
        assert result.compactions == 0

    def test_small_batches_never_compact(self, compact_threshold):
        """Below 4 lanes the bookkeeping outweighs the saving."""
        compact_threshold(0.9)
        insts = _ragged_batch(0)[:3]
        result = run_batch(insts, "greedy-balance")
        assert result.compactions == 0

    def test_compaction_telemetry_counter(self, numba_available):
        from repro.telemetry import TelemetrySession, use_session

        numba_available(False)
        session = TelemetrySession()
        with use_session(session):
            result = run_batch(_ragged_batch(3), "greedy-balance")
        counters = {
            name: metric.value
            for name, labels, metric in session.metrics.items()
            if name == "batch.compactions"
        }
        assert result.compactions > 0
        assert counters.get("batch.compactions") == result.compactions


class TestBatchedMultiFillBitIdentity:
    """The (B, k, m) fill == the same fill run one lane at a time, bitwise."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_lane_fill(self, seed):
        rng = np.random.default_rng(seed)
        B, k, m = 6, int(rng.integers(2, 4)), int(rng.integers(2, 8))
        remaining = rng.uniform(0, 1.5, (B, m))
        req_matrix = rng.uniform(0, 0.8, (B, k, m)) * (
            rng.random((B, k, m)) < 0.8
        )
        rstar = req_matrix.max(axis=1)
        eligible = (rng.random((B, m)) < 0.85) & (rstar > 0)
        order = np.argsort(rng.random((B, m)), axis=1).astype(np.int64)
        got = _fill_arrays_batch_multi(
            remaining, rstar, req_matrix, order, eligible, 1.0
        )
        for b in range(B):
            # Alone, with the eligibility mask folded into the remaining
            # work (zero remaining work retires a processor the same way).
            masked = np.where(eligible[b], remaining[b], 0.0)
            want = _fill_arrays_batch_multi(
                masked[None], rstar[b][None], req_matrix[b][None],
                order[b][None], None, 1.0,
            )
            assert np.array_equal(got[b], want[0]), b


def _both_paths(numba_available, run):
    """``(fused, per_step)`` results of *run*."""
    numba_available(True)
    fused = run()
    numba_available(False)
    return fused, run()


class TestBatchRunnerPaths:
    def test_batched_execution_paths_agree(self, numba_available):
        insts = [uniform_instance(2, 2, seed=s) for s in range(4)]
        runner = BatchRunner(backend="vector", workers=1, execution="batched")
        fused, per_step = _both_paths(numba_available, lambda: runner.run(insts))
        assert fused.makespans == per_step.makespans

    def test_process_execution_paths_agree(self, numba_available):
        insts = [uniform_instance(2, 2, seed=s) for s in range(3)]
        runner = BatchRunner(backend="vector", workers=1)
        fused, per_step = _both_paths(numba_available, lambda: runner.run(insts))
        assert fused.makespans == per_step.makespans

    def test_exact_backend_with_numba_available(self, numba_available):
        numba_available(True)
        insts = [uniform_instance(2, 2, seed=1)]
        result = BatchRunner(backend="exact", workers=1).run(insts)
        assert len(result.rows) == 1


class TestLocalSearchPaths:
    @pytest.mark.parametrize("batch_lanes", [1, 8])
    def test_sequencer_paths_agree(self, numba_available, batch_lanes):
        from repro.sequencing import get_sequencer

        inst = uniform_instance(3, 4, seed=3)

        def search():
            seq = get_sequencer(
                "local-search", budget=30, seed=0, batch_lanes=batch_lanes
            )
            result = seq.sequence(inst)
            assert seq.last_stats["evaluations"] > 0
            return result

        fused, per_step = _both_paths(numba_available, search)
        assert fused == per_step  # same search trajectory
        assert inst.same_bag(fused)
