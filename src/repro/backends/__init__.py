"""Pluggable simulation backends.

A *backend* executes an online policy on an instance under the step
semantics of Section 3.1 and reports a
:class:`~repro.backends.base.BackendResult`.  Two implementations ship:

:class:`ExactBackend` (``"exact"``)
    The reference engine: exact ``Fraction`` arithmetic via
    :func:`repro.core.simulator.simulate`, result carries the fully
    validated :class:`~repro.core.schedule.Schedule`.  Slow, never
    wrong -- the source of truth every other backend is validated
    against.

:class:`VectorBackend` (``"vector"``)
    NumPy float64 arrays with vectorized water-filling and
    tolerance-aware completion tests.  Orders of magnitude faster for
    large ``m`` (the ``bench_backend_speedup`` benchmark tracks the
    factor); cross-validated against the exact backend by
    :func:`~repro.backends.crosscheck.cross_validate` and the
    ``tests/backends`` suite.

The Backend protocol
====================

Implementations subclass :class:`~repro.backends.base.Backend` and
provide::

    class MyBackend(Backend):
        name = "my-backend"          # registry / CLI identifier

        def run(self, instance, policy, *, max_steps=None,
                record_shares=True) -> BackendResult: ...

``run`` must (a) terminate with
:class:`~repro.exceptions.SimulationLimitError` if the policy exceeds
the step limit, (b) reject infeasible share vectors with
:class:`~repro.exceptions.InfeasibleAssignmentError`, and (c) report
the same makespan the exact simulator would, within the backend's
documented tolerance.  Register a new backend by adding its factory to
``_REGISTRY`` here; everything downstream (``Policy.run_backend``, the
CLI ``--backend`` flag, :class:`BatchRunner`) picks it up by name.

Scaling campaigns
=================

:class:`~repro.backends.batch.BatchRunner` shards instance lists
across ``multiprocessing`` workers and aggregates makespans/ratios
into a :class:`~repro.backends.batch.BatchResult` store -- the
scaffolding sharding/caching/async PRs plug into.
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import BackendError
from .base import Backend, BackendResult
from .batch import BatchResult, BatchRunner, make_campaign_instances
from .batched import (
    BatchRunResult,
    BatchVectorRuntime,
    BatchVectorState,
    run_batch,
)
from .crosscheck import CrossCheckResult, cross_validate
from .exact import ExactBackend
from .vector import VectorBackend, VectorRuntime

__all__ = [
    "Backend",
    "BackendResult",
    "BatchResult",
    "BatchRunResult",
    "BatchRunner",
    "BatchVectorRuntime",
    "BatchVectorState",
    "CrossCheckResult",
    "ExactBackend",
    "VectorBackend",
    "VectorRuntime",
    "available_backends",
    "cross_validate",
    "get_backend",
    "make_campaign_instances",
    "run_batch",
]

_REGISTRY: dict[str, Callable[[], Backend]] = {
    ExactBackend.name: ExactBackend,
    VectorBackend.name: VectorBackend,
}


def get_backend(name: str) -> Backend:
    """Instantiate a backend by registry name.

    Raises:
        BackendError: for unknown names (message lists the options).
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> list[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)
