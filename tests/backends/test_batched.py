"""Mechanics of the batched engine: results, capability, errors, telemetry.

The fine-grained behavior contract of
:class:`~repro.backends.batched.BatchVectorRuntime` and the
``execution="batched"`` mode of
:class:`~repro.backends.batch.BatchRunner` -- the numerical agreement
bar lives in ``test_batched_crosscheck.py``.
"""

import numpy as np
import pytest

from repro.algorithms import GreedyBalance, Policy, get_policy
from repro.backends import (
    BatchRunner,
    BatchVectorRuntime,
    run_batch,
)
from repro.core import Instance
from repro.exceptions import (
    BackendError,
    InfeasibleAssignmentError,
    SimulationLimitError,
    VectorizationUnsupportedError,
)
from repro.generators import bag_instance
from repro.telemetry import TelemetrySession, use_session


class _ExactOnly(Policy):
    """A policy with no array path at all."""

    name = "exact-only"

    def shares(self, state):  # pragma: no cover - never stepped
        raise NotImplementedError


class _Overcommit(Policy):
    """Claims the batch path, then oversubscribes the resource."""

    name = "overcommit"

    def shares_batch(self, state):
        return np.full(
            (state.num_lanes, state.num_processors), 1.0, dtype=np.float64
        )


class _WrongShape(Policy):
    """Claims the batch path, then returns a single-lane row."""

    name = "wrong-shape"

    def shares_batch(self, state):
        return np.zeros(state.num_processors, dtype=np.float64)


def _batch(n=3, *, seed=0):
    return [bag_instance(3, 4, seed=seed + j) for j in range(n)]


class TestRunResult:
    def test_result_accounting(self):
        insts = _batch(4)
        result = run_batch(insts, "greedy-balance")
        assert result.lanes == 4
        assert result.makespans.shape == (4,)
        assert result.makespans.dtype == np.int64
        assert result.steps == int(result.makespans.max())
        assert result.lane_steps == int(result.makespans.sum())
        assert result.wall_seconds > 0

    def test_objective_vectors_in_lane_order(self):
        insts = _batch(3)
        result = run_batch(insts, "greedy-balance", objectives=("makespan",))
        values = result.objective_values["makespan"]
        assert len(values) == 3
        assert values == [float(ms) for ms in result.makespans]

    def test_policy_resolved_by_name(self):
        by_name = run_batch(_batch(), "greedy-balance")
        by_object = run_batch(_batch(), GreedyBalance())
        assert by_name.makespans.tolist() == by_object.makespans.tolist()


class TestFallback:
    def test_exact_only_policy_is_rejected(self):
        with pytest.raises(VectorizationUnsupportedError, match="exact-only"):
            BatchVectorRuntime(_batch(), _ExactOnly())


class TestErrorPaths:
    def test_empty_batch(self):
        with pytest.raises(BackendError, match="at least one instance"):
            run_batch([], "greedy-balance")

    def test_nonpositive_tolerance(self):
        with pytest.raises(ValueError, match="tol"):
            BatchVectorRuntime(_batch(), "greedy-balance", tol=0.0)

    def test_step_limit_names_offending_lane(self):
        insts = [
            Instance.from_percent([[100]]),  # finishes in 1 step
            Instance.from_percent([[100], [100], [100]]),  # needs 3
        ]
        with pytest.raises(SimulationLimitError, match="lane 1"):
            run_batch(insts, "greedy-balance", max_steps=2)

    def test_overcommitted_shares_rejected(self):
        with pytest.raises(InfeasibleAssignmentError, match="overused"):
            run_batch(_batch(), _Overcommit())

    def test_wrong_share_shape_rejected(self):
        with pytest.raises(InfeasibleAssignmentError, match="shape"):
            run_batch(_batch(), _WrongShape())


class TestTelemetry:
    def test_batched_run_span_and_metrics(self):
        insts = _batch(5)
        with use_session(TelemetrySession()) as session:
            result = run_batch(insts, "greedy-balance")
        (span,) = [
            r for r in session.tracer.records if r.name == "batched.run"
        ]
        assert span.attrs["lanes"] == 5
        assert span.attrs["steps"] == result.steps
        assert span.attrs["lane_steps"] == result.lane_steps
        assert span.attrs["policy"] == "greedy-balance"
        metrics = session.metrics
        assert metrics.gauge("batch.lanes").value == 5
        assert metrics.counter("batched.runs").value == 1
        assert metrics.counter("batched.steps").value == result.steps
        assert (
            metrics.counter("batched.lane_steps").value == result.lane_steps
        )

    def test_no_session_no_overhead(self):
        result = run_batch(_batch(), "greedy-balance")
        assert result.lanes == 3  # ran fine without telemetry


class TestBatchedExecutionMode:
    """``BatchRunner(execution="batched")`` vs the multiprocessing path."""

    def test_rows_match_process_execution(self):
        insts = [bag_instance(3, 4, seed=s) for s in range(7)]
        batched = BatchRunner(
            execution="batched", batch_lanes=3, objectives=("makespan",)
        ).run(insts)
        processes = BatchRunner(workers=2, objectives=("makespan",)).run(
            insts
        )
        assert batched.makespans == processes.makespans
        assert batched.ratios == processes.ratios
        assert batched.objective_values("makespan") == (
            processes.objective_values("makespan")
        )

    def test_rows_match_with_sequencer(self):
        insts = [bag_instance(3, 3, seed=s) for s in range(4)]
        kwargs = dict(
            sequencer="local-search",
            sequencer_options={"budget": 12, "seed": 0},
        )
        batched = BatchRunner(execution="batched", **kwargs).run(insts)
        serial = BatchRunner(workers=1, **kwargs).run(insts)
        assert batched.makespans == serial.makespans

    def test_summary_records_execution_mode(self):
        insts = _batch(2)
        batched = BatchRunner(execution="batched").run(insts)
        assert batched.summary()["execution"] == "batched"
        # Legacy multiprocessing stores keep their exact shape.
        assert "execution" not in BatchRunner(workers=1).run(insts).summary()

    def test_unknown_execution_mode(self):
        with pytest.raises(BackendError, match="unknown execution mode"):
            BatchRunner(execution="threads")

    def test_bad_batch_lanes(self):
        with pytest.raises(BackendError, match="batch_lanes"):
            BatchRunner(execution="batched", batch_lanes=0)

    def test_batched_requires_vector_backend(self):
        with pytest.raises(BackendError, match="vector"):
            BatchRunner(backend="exact", execution="batched")
