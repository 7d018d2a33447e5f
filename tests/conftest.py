"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from repro.core import Instance


@pytest.fixture
def numba_available(monkeypatch):
    """A setter for the one flag :func:`repro.kernels.decide` reads.

    A vector run takes the fused driver exactly when ``decide`` sees
    numba as importable (and the policy and share-recording rules allow
    it).  ``numba_available(True)`` sends eligible runs through the
    fused driver (interpreted when numba is not installed);
    ``numba_available(False)`` keeps every run on the per-step path even
    when numba is installed.
    """
    import repro.kernels.dispatch

    def use(enabled: bool) -> None:
        monkeypatch.setattr(repro.kernels.dispatch, "NUMBA_AVAILABLE", enabled)

    return use


@pytest.fixture
def run_tasks():
    """Run a many-core task workload (one task per core) through the kernel.

    Returns a function ``run(tasks, policy, *, unit_split=True,
    backend="exact") -> (makespan, recorder)`` where *recorder* is the
    run's :class:`~repro.core.kernel.CoreActivityRecorder`.
    """
    from repro.backends import get_backend
    from repro.core.kernel import CoreActivityRecorder, run_kernel
    from repro.generators import tasks_to_instance

    def run(tasks, policy, *, unit_split=True, backend="exact"):
        instance = tasks_to_instance(tasks, unit_split=unit_split)
        recorder = CoreActivityRecorder(instance.num_processors)
        runtime = get_backend(backend).make_runtime(instance, policy)
        return run_kernel(runtime, policy, [recorder]), recorder

    return run


@pytest.fixture
def two_proc_instance() -> Instance:
    """A small fixed m=2 instance used across suites."""
    return Instance.from_requirements(
        [["0.9", "0.1", "0.8", "0.2"], ["0.5", "0.5", "0.5", "0.5"]]
    )


@pytest.fixture
def three_proc_instance() -> Instance:
    """A small fixed m=3 instance."""
    return Instance.from_percent([[60, 40], [30, 90], [80, 10]])


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def requirements(grid: int = 20, min_value: int = 1) -> st.SearchStrategy[Fraction]:
    """Exact rational requirements on a small grid (fast Fractions)."""
    return st.integers(min_value=min_value, max_value=grid).map(
        lambda k: Fraction(k, grid)
    )


def unit_instances(
    max_m: int = 3, max_n: int = 4, grid: int = 20
) -> st.SearchStrategy[Instance]:
    """Random small unit-size instances (possibly ragged queues)."""
    return st.integers(1, max_m).flatmap(
        lambda m: st.lists(
            st.lists(requirements(grid), min_size=1, max_size=max_n),
            min_size=m,
            max_size=m,
        ).map(Instance.from_requirements)
    )


def tiny_instances_for_exact(grid: int = 10) -> st.SearchStrategy[Instance]:
    """Instances small enough for the brute-force oracle."""
    return unit_instances(max_m=3, max_n=3, grid=grid)
