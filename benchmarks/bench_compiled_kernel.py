"""Compiled hot-kernel gate: the JIT-fused driver must pay for itself.

Two claims are gated here:

1. **Throughput** -- with numba installed, the fused driver
   (water-fill + step loop in one nopython region) must beat the
   uncompiled per-step vector engine by at least
   ``MIN_COMPILED_SPEEDUP`` in steps/s at both m=8 and m=32.
   The timing interleaves the two engines best-of-``REPEATS`` and a
   discarded warm-up pass triggers (and so excludes) JIT compilation.
2. **Agreement** -- at gate scale, the fused driver's makespans must
   equal the per-step engine's exactly (the fine-grained 1e-9
   crosscheck matrix lives in ``tests/kernels``; this bench
   re-asserts the headline invariant on the timed workload).

A vector run picks its own path (:func:`repro.kernels.decide`), so the
bench steers each side by patching the one flag that rule reads:
``repro.kernels.dispatch.NUMBA_AVAILABLE`` true sends the runs through
the fused driver, false keeps them on the per-step engine.  Without
numba the speedup gate skips -- the fused driver then runs
interpreted, which exists for coverage, not speed -- but the
``BENCH_compiled_kernel.json`` store is still written so the cross-PR
trajectory (``crsharing bench-report``) records the configuration.
"""

import time

import pytest

import repro.kernels.dispatch
from repro.algorithms import resolve_policy
from repro.backends import VectorBackend
from repro.generators import bag_instance
from repro.kernels import NUMBA_AVAILABLE, numba_version

#: The fused compiled driver must beat the uncompiled per-step vector
#: engine by at least this factor in steps/s (gated only when numba is
#: installed; measured headroom is far larger once the JIT is warm).
MIN_COMPILED_SPEEDUP = 5.0

#: Instances per timed batch (enough steps to swamp timer noise).
LANES = 24

#: Timing repeats per engine (interleaved best-of; the gate is a ratio
#: on a shared machine, so back-to-back passes would let a load spike
#: hit one side only).
REPEATS = 5


@pytest.fixture
def fused(monkeypatch):
    """A setter choosing the fused (True) or per-step (False) path."""

    def use(enabled: bool) -> None:
        monkeypatch.setattr(repro.kernels.dispatch, "NUMBA_AVAILABLE", enabled)

    return use


def _run(backend, inst, policy):
    return backend.run(inst, policy, record_shares=False)


def _steps_per_second(insts, policy) -> float:
    """Best-of-``REPEATS`` steps/s of the current path over the workload."""
    backend = VectorBackend()
    best = 0.0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        steps = 0
        for inst in insts:
            steps += _run(backend, inst, policy).makespan
        elapsed = time.perf_counter() - t0
        best = max(best, steps / elapsed)
    return best


def test_compiled_matches_vector_at_gate_scale(fused):
    """The timed workload itself: fused makespans == per-step makespans."""
    policy = resolve_policy("greedy-balance")
    backend = VectorBackend()
    for m in (8, 32):
        for s in range(4):
            inst = bag_instance(m, 8, seed=s)
            fused(True)
            on = _run(backend, inst, policy)
            fused(False)
            off = _run(backend, inst, policy)
            assert on.makespan == off.makespan, (m, s)


def test_compiled_kernel_speedup(results_dir, fused):
    """The >=MIN_COMPILED_SPEEDUP steps/s gate at m in {8, 32}."""
    from conftest import write_bench_store

    policy = resolve_policy("greedy-balance")
    rows = []
    for m in (8, 32):
        insts = [bag_instance(m, 8, seed=200 + s) for s in range(LANES)]
        # Warm-up pass: triggers (and excludes) JIT compilation, and
        # primes caches identically for the uncompiled side.
        backend = VectorBackend()
        for inst in insts[:2]:
            for enabled in (True, False):
                fused(enabled)
                _run(backend, inst, policy)
        fused(True)
        compiled_rate = _steps_per_second(insts, policy)
        fused(False)
        vector_rate = _steps_per_second(insts, policy)
        rows.append(
            {
                "m": m,
                "lanes": LANES,
                "numba": numba_version(),
                "compiled_steps_per_s": round(compiled_rate, 1),
                "vector_steps_per_s": round(vector_rate, 1),
                "speedup": round(compiled_rate / vector_rate, 2),
            }
        )

    write_bench_store(
        results_dir,
        "compiled_kernel",
        rows,
        numba_available=NUMBA_AVAILABLE,
        gate=MIN_COMPILED_SPEEDUP,
    )
    if not NUMBA_AVAILABLE:
        pytest.skip(
            "numba not installed: the fused driver ran interpreted, so "
            "the speedup gate does not apply (store written)"
        )
    for row in rows:
        assert row["speedup"] >= MIN_COMPILED_SPEEDUP, row
