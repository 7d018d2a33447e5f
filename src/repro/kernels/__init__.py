"""Compiled execution tier: JIT-fused water-fill + step loop.

An optional acceleration layer under the backends
(:mod:`repro.backends`): numba-``@njit`` (nopython, cached)
implementations of the hot loop -- the water-fill grant rules
(:mod:`repro.kernels.waterfill`), and a whole-run driver that steps an
instance from release to makespan inside one JIT region
(:mod:`repro.kernels.driver`).  The dispatch layer
(:mod:`repro.kernels.dispatch`) decides per run whether the fused
driver may serve it and translates results back into the observer
world.

Numba is optional (``pip install .[compiled]``) and import-guarded in
exactly one place (:mod:`repro.kernels._numba`).  There is no switch:
a vector run takes the fused driver when numba is importable, the
policy is a built-in water-filling class and no share rows are
requested (:func:`decide`); otherwise it runs the NumPy per-step path.

Example:
    >>> from repro.algorithms import GreedyBalance
    >>> from repro.kernels import NUMBA_AVAILABLE, decide
    >>> decide(GreedyBalance(), record_shares=True).reason
    'record-shares'
    >>> isinstance(NUMBA_AVAILABLE, bool)
    True
"""

from __future__ import annotations

from ._numba import NUMBA_AVAILABLE, njit, numba_version
from .dispatch import (
    CompiledDecision,
    compiled_policy_code,
    decide,
    instance_tables,
    note_fallback,
    replay_run,
    run_fused_instance,
)
from .driver import (
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_STALLED,
    STATUS_STEP_LIMIT,
    run_fused,
)
from .waterfill import fill_multi, fill_single, round_key, stable_order

__all__ = [
    "NUMBA_AVAILABLE",
    "njit",
    "numba_version",
    "CompiledDecision",
    "compiled_policy_code",
    "decide",
    "instance_tables",
    "note_fallback",
    "replay_run",
    "run_fused_instance",
    "run_fused",
    "STATUS_OK",
    "STATUS_STEP_LIMIT",
    "STATUS_STALLED",
    "STATUS_INFEASIBLE",
    "fill_single",
    "fill_multi",
    "round_key",
    "stable_order",
]
