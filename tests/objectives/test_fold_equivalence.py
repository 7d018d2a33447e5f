"""The integer objective fold equals a naive ``Fraction`` fold.

Every generator profile draws integer weights, so these tests build
jobs by hand with fractional weights (``2/3``, ``5/7``, ``3/10``, ...)
plus deadlines and release times.  On every execution path -- exact,
vector (per-step and fused), batched (including a batch that compacts),
:meth:`Objective.value_from_completions` and an
:class:`ObjectiveRecorder` checkpointed mid-run -- each deadline and
flow objective must equal, in value *and* type, a reference computed
with one ``Fraction`` operation per completion.  The two objective
lower bounds are checked against their ``Fraction``-loop formulas.
"""

from fractions import Fraction
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels.dispatch
from repro.algorithms import get_policy
from repro.backends.batched import run_batch
from repro.backends.vector import VectorRuntime
from repro.core import (
    CompletionRecorder,
    ExactRuntime,
    Instance,
    Job,
    KernelCheckpoint,
    ObjectiveRecorder,
    checkpoint_run,
    max_lateness_bound,
    restore_runtime,
    run_kernel,
    run_policy,
    tardiness_bound,
    weighted_flow_bound,
)
from repro.objectives import get_objective

OBJECTIVES = ("weighted-flow", "tardiness", "max-lateness", "deadline-misses")
WEIGHTS = [Fraction(2, 3), Fraction(5, 7), Fraction(3, 10), Fraction(1), Fraction(4), Fraction(7, 2)]
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw, max_m=3, max_n=4):
    """Hand-built jobs with fractional weights, deadlines and releases."""
    queues = []
    for _ in range(draw(st.integers(1, max_m))):
        queue = []
        for _ in range(draw(st.integers(1, max_n))):
            queue.append(
                Job(
                    Fraction(draw(st.integers(1, 10)), 10),
                    draw(st.sampled_from([1, 1, 2, Fraction(3, 2)])),
                    weight=draw(st.sampled_from(WEIGHTS)),
                    deadline=draw(st.one_of(st.none(), st.integers(1, 8))),
                )
            )
        queues.append(queue)
    releases = draw(st.lists(st.integers(0, 3), min_size=len(queues), max_size=len(queues)))
    return Instance(queues, releases=releases)


def reference(instance: Instance, completion_steps) -> dict:
    """Each objective folded naively: one ``Fraction`` op per completion."""
    flow = Fraction(0)
    tardiness = Fraction(0)
    lateness = None
    misses = 0
    for (i, j), t in completion_steps.items():
        job = instance.job(i, j)
        flow += job.weight * (t + 1 - instance.release(i))
        if job.deadline is None:
            continue
        late = t + 1 - job.deadline
        lateness = late if lateness is None else max(lateness, late)
        if late > 0:
            tardiness += job.weight * late
            misses += 1
    return {
        "weighted-flow": flow,
        "tardiness": tardiness,
        "max-lateness": 0 if lateness is None else lateness,
        "deadline-misses": misses,
    }


def assert_identical(got: dict, expected: dict) -> None:
    for name in OBJECTIVES:
        assert got[name] == expected[name], name
        assert type(got[name]) is type(expected[name]), name


@settings(max_examples=60, **COMMON)
@given(inst=instances())
def test_exact_and_vector_runs(inst):
    for backend in ("exact", "vector"):
        result = run_policy(inst, "greedy-balance", backend=backend, objectives=OBJECTIVES)
        assert_identical(result.objective_values, reference(inst, result.completion_steps))


@settings(max_examples=30, **COMMON)
@given(inst=instances())
def test_fused_vector_run(inst):
    with patch.object(repro.kernels.dispatch, "NUMBA_AVAILABLE", True):
        result = run_policy(inst, "round-robin", backend="vector", objectives=OBJECTIVES)
    assert_identical(result.objective_values, reference(inst, result.completion_steps))


@settings(max_examples=60, **COMMON)
@given(inst=instances())
def test_value_from_completions(inst):
    completions = run_policy(inst, "greedy-balance").completion_steps
    expected = reference(inst, completions)
    got = {
        name: get_objective(name).value_from_completions(inst, completions)
        for name in OBJECTIVES
    }
    assert_identical(got, expected)


@settings(max_examples=30, **COMMON)
@given(batch=st.lists(instances(), min_size=1, max_size=6))
def test_batched_runs(batch):
    result = run_batch(batch, "greedy-balance", objectives=OBJECTIVES)
    for b, inst in enumerate(batch):
        completions = run_policy(inst, "greedy-balance", backend="vector").completion_steps
        got = {name: result.objective_values[name][b] for name in OBJECTIVES}
        assert_identical(got, reference(inst, completions))


@settings(max_examples=20, **COMMON)
@given(short=st.lists(instances(max_m=2, max_n=1), min_size=5, max_size=7), long=instances())
def test_batched_run_that_compacts(short, long):
    """One long lane outlives the short ones, so the batch shrinks mid-run."""
    tail = Instance(
        [list(q) + [Job("1/10", 3, weight="5/7", deadline=2)] * 4 for q in long.queues],
        releases=long.releases,
    )
    batch = short + [tail]
    result = run_batch(batch, "greedy-balance", objectives=OBJECTIVES)
    assert result.compactions > 0
    for b, inst in enumerate(batch):
        completions = run_policy(inst, "greedy-balance", backend="vector").completion_steps
        got = {name: result.objective_values[name][b] for name in OBJECTIVES}
        assert_identical(got, reference(inst, completions))


@settings(max_examples=40, **COMMON)
@given(inst=instances(), cut=st.integers(1, 6), kind=st.sampled_from(["exact", "vector"]))
def test_recorder_checkpoint_mid_run(inst, cut, kind):
    def observers():
        return [CompletionRecorder()] + [
            ObjectiveRecorder(get_objective(name), inst) for name in OBJECTIVES
        ]

    policy = get_policy("greedy-balance")
    runtime = ExactRuntime(inst) if kind == "exact" else VectorRuntime(inst)
    first = observers()
    run_kernel(runtime, policy, first, stop=lambda r: r.t >= cut)
    checkpoint = KernelCheckpoint.from_json(checkpoint_run(runtime, first).to_json())
    resumed = observers()
    run_kernel(restore_runtime(checkpoint, observers=resumed), policy, resumed)
    got = {name: rec.value for name, rec in zip(OBJECTIVES, resumed[1:])}
    assert_identical(got, reference(inst, resumed[0].completion_steps))


@settings(max_examples=80, **COMMON)
@given(inst=instances())
def test_lower_bounds_match_fraction_formulas(inst):
    earliest = inst.earliest_completion_times()
    flow = Fraction(0)
    tardiness = Fraction(0)
    lateness = None
    for jid, job in inst.jobs():
        flow += job.weight * (earliest[jid] - inst.release(jid[0]))
        if job.deadline is not None:
            late = earliest[jid] - job.deadline
            lateness = late if lateness is None else max(lateness, late)
            if late > 0:
                tardiness += job.weight * late
    for got, expected in (
        (weighted_flow_bound(inst), flow),
        (tardiness_bound(inst), tardiness),
        (max_lateness_bound(inst), 0 if lateness is None else lateness),
    ):
        assert got == expected
        assert type(got) is type(expected)
