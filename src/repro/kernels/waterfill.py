"""Compiled water-filling kernels (single- and multi-resource).

Plain-loop implementations of the grant rules behind
:func:`repro.algorithms.base.water_fill_array_batch` (one lane at a
time, single- and multi-resource), written in
numba-``@njit``-compatible style: scalar loops, no fancy NumPy
dispatch, one allocation per call.  With numba installed they compile
to nopython machine code (cached across processes); without numba they
run interpreted and exist mainly so the fused driver
(:mod:`repro.kernels.driver`) stays importable and testable
everywhere.

Numerical contract: the sequential grant rule here is the *exact*
path's rule (visit processors in priority order, grant
``min(remaining, requirement, capacity_left)`` -- or the bottleneck
speed fraction for ``k > 1``).  The vectorized prefix-sum /
depletion-rounds fills realize the same rule with different float
operation order, so compiled and vector runs agree within the backend
tolerance (1e-9) rather than bit-for-bit; the crosscheck suite in
``tests/kernels`` pins that agreement (and the integer completion
steps, which coincide exactly on requirement grids coarser than the
tolerance).
"""

from __future__ import annotations

import numpy as np

from ._numba import njit

__all__ = ["round_key", "stable_order", "fill_single", "fill_multi"]


@njit(cache=True)
def round_key(values: np.ndarray) -> np.ndarray:
    """Quantize a float sort key to 9 decimals (compiled ``sort_key``).

    ``np.rint(x * 1e9) / 1e9`` is exactly what ``np.round(x, 9)``
    computes elementwise, so compiled priority orders break near-ties
    identically to :func:`repro.algorithms.base.sort_key`.
    """
    return np.rint(values * 1e9) / 1e9


@njit(cache=True)
def stable_order(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Indices sorting by (*primary*, *secondary*, index), all ascending.

    The compiled equivalent of ``np.lexsort((secondary, primary))``
    (numba has no lexsort): a stable mergesort by the secondary key
    followed by a stable mergesort by the primary key yields the same
    unique order -- primary first, secondary within primary ties, and
    original index within full ties.
    """
    by_secondary = np.argsort(secondary, kind="mergesort")
    return by_secondary[np.argsort(primary[by_secondary], kind="mergesort")]


@njit(cache=True)
def fill_single(
    remaining: np.ndarray,
    requirements: np.ndarray,
    eligible: np.ndarray,
    order: np.ndarray,
) -> np.ndarray:
    """Sequential single-resource water-fill at unit capacity.

    Visits processors in *order* and grants each eligible one
    ``min(remaining, requirement, capacity_left)`` -- the exact path's
    rule.  Ineligible or zero-useful processors neither receive nor
    consume capacity.  Returns the ``(m,)`` share vector.
    """
    m = order.shape[0]
    shares = np.zeros(m, dtype=np.float64)
    left = 1.0
    for pos in range(m):
        i = order[pos]
        if not eligible[i]:
            continue
        useful = remaining[i]
        if requirements[i] < useful:
            useful = requirements[i]
        if useful <= 0.0:
            continue
        if useful > left:
            useful = left
        shares[i] = useful
        left -= useful
        if left <= 0.0:
            break
    return shares


@njit(cache=True)
def fill_multi(
    remaining: np.ndarray,
    rstar: np.ndarray,
    reqk: np.ndarray,
    eligible: np.ndarray,
    order: np.ndarray,
) -> np.ndarray:
    """Sequential bottleneck water-fill over ``k`` resources.

    The exact path's multi-resource rule
    (:func:`repro.algorithms.base.water_fill_multi`): each processor in
    *order* gets speed fraction
    ``min(1, remaining / r*, min_l left_l / r_l)`` over the resources
    its active job needs, charging ``fraction * r_l`` against every
    resource.  *reqk* is the ``(k, m)`` active-requirement matrix;
    returns the ``(k, m)`` share matrix.
    """
    k = reqk.shape[0]
    m = order.shape[0]
    shares = np.zeros((k, m), dtype=np.float64)
    left = np.full(k, 1.0, dtype=np.float64)
    for pos in range(m):
        i = order[pos]
        if not eligible[i]:
            continue
        r = rstar[i]
        if r <= 0.0:
            continue
        fraction = remaining[i] / r
        if fraction > 1.0:
            fraction = 1.0
        for lane in range(k):
            req = reqk[lane, i]
            if req > 0.0:
                afford = left[lane] / req
                if afford < fraction:
                    fraction = afford
        if fraction <= 0.0:
            continue
        for lane in range(k):
            req = reqk[lane, i]
            if req > 0.0:
                grant = fraction * req
                shares[lane, i] = grant
                left[lane] -= grant
    return shares
