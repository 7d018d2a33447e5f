"""Unit tests for the kernel primitives and the dispatch helpers.

The water-fill kernels are checked against brute-force sequential
references; ``stable_order``/``round_key`` against ``np.lexsort`` and
the interpreted policies' ``sort_key``; the dispatch helpers against
their documented contracts (instance flattening, completion replay
ordering).
"""

import numpy as np
import pytest

from repro.generators import uniform_instance, with_arrivals, with_deadlines
from repro.kernels import (
    fill_multi,
    fill_single,
    instance_tables,
    replay_run,
    round_key,
    run_fused_instance,
    stable_order,
)


class TestOrderingPrimitives:
    def test_round_key_matches_sort_key(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 3, size=256)
        assert np.array_equal(round_key(values), np.round(values, 9))

    @pytest.mark.parametrize("seed", range(10))
    def test_stable_order_matches_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        primary = rng.integers(0, 5, size=32).astype(np.float64)
        secondary = rng.integers(0, 5, size=32).astype(np.float64)
        got = stable_order(primary, secondary)
        want = np.lexsort((secondary, primary))
        assert np.array_equal(got, want)


class TestFillKernels:
    @pytest.mark.parametrize("seed", range(20))
    def test_fill_single_reference(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        remaining = rng.uniform(0, 1.5, m)
        req = rng.uniform(0, 1.0, m)
        eligible = rng.random(m) < 0.8
        order = np.argsort(rng.random(m)).astype(np.int64)
        shares = fill_single(remaining, req, eligible, order)
        # Reference: sequential unit-capacity grants in order.
        want = np.zeros(m)
        left = 1.0
        for i in order:
            if not eligible[i] or left <= 0.0:
                continue
            grant = min(left, req[i], remaining[i])
            if grant > 0.0:
                want[i] = grant
                left -= grant
        assert np.allclose(shares, want, atol=0, rtol=0)
        assert shares.sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_fill_multi_reference(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        m = int(rng.integers(1, 7))
        remaining = rng.uniform(0, 1.5, m)
        reqk = rng.uniform(0, 0.8, (k, m)) * (rng.random((k, m)) < 0.8)
        rstar = reqk.max(axis=0)
        eligible = (rng.random(m) < 0.85) & (rstar > 0)
        order = np.argsort(rng.random(m)).astype(np.int64)
        shares = fill_multi(remaining, rstar, reqk, eligible, order)
        want = np.zeros((k, m))
        left = np.ones(k)
        for i in order:
            if not eligible[i] or rstar[i] <= 0.0:
                continue
            fraction = min(1.0, remaining[i] / rstar[i])
            for lane in range(k):
                if reqk[lane, i] > 0.0:
                    fraction = min(fraction, left[lane] / reqk[lane, i])
            if fraction <= 0.0:
                continue
            grant = fraction * reqk[:, i]
            want[:, i] = grant
            left -= grant
            np.maximum(left, 0.0, out=left)
        assert np.allclose(shares, want, atol=0, rtol=0)
        assert (shares.sum(axis=1) <= 1.0 + 1e-12).all()


class TestInstanceTables:
    def test_shapes_and_values(self):
        inst = with_deadlines(
            with_arrivals(uniform_instance(3, 4, seed=1), max_release=5, seed=2),
            seed=3,
        )
        num_jobs, release, work, req, reqk, wgt, dl = instance_tables(inst)
        m, nmax = inst.num_processors, inst.max_jobs
        assert num_jobs.shape == (m,) and release.shape == (m,)
        assert work.shape == req.shape == wgt.shape == dl.shape == (m, nmax)
        assert reqk.shape == (inst.num_resources, m, nmax)
        for i, queue in enumerate(inst.queues):
            assert num_jobs[i] == len(queue)
            for j, job in enumerate(queue):
                assert work[i, j] == float(job.work)
                assert req[i, j] == float(job.requirement)

    def test_k1_reqk_is_a_view(self):
        _, _, _, req, reqk, _, _ = instance_tables(uniform_instance(2, 3, seed=0))
        assert reqk.base is req  # no copy for the single-resource model


class TestReplayRun:
    def test_event_order_and_map(self):
        completion = np.array([[2, 5, -1], [0, 2, -1]], dtype=np.int64)
        events = []

        class Observer:
            def on_complete(self, job, t):
                events.append(("complete", job, t))

            def on_finish(self, makespan):
                events.append(("finish", makespan))

        steps = replay_run(completion, 6, [Observer()])
        assert steps == {(0, 0): 2, (0, 1): 5, (1, 0): 0, (1, 1): 2}
        # Ascending step, then ascending processor; finish last.
        assert events == [
            ("complete", (1, 0), 0),
            ("complete", (0, 0), 2),
            ("complete", (1, 1), 2),
            ("complete", (0, 1), 5),
            ("finish", 6),
        ]


class TestRunFusedInstance:
    def test_matches_vector_makespan(self):
        from repro.backends import VectorBackend
        from repro.kernels import compiled_policy_code
        from repro.algorithms import get_policy

        inst = uniform_instance(3, 4, seed=11)
        policy = get_policy("greedy-balance")
        code = compiled_policy_code(policy)
        makespan, completion = run_fused_instance(inst, code, tol=1e-9)
        ref = VectorBackend().run(inst, policy)  # share rows: per-step path
        assert makespan == ref.makespan
        assert (completion >= 0).sum() == inst.total_jobs

    def test_step_limit_raises(self):
        from repro.exceptions import SimulationLimitError
        from repro.kernels import compiled_policy_code
        from repro.algorithms import get_policy

        inst = uniform_instance(3, 4, seed=11)
        code = compiled_policy_code(get_policy("greedy-balance"))
        with pytest.raises(SimulationLimitError):
            run_fused_instance(inst, code, tol=1e-9, max_steps=1)
