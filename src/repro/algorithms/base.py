"""Policy interface and shared helpers for CRSharing schedulers.

Two kinds of algorithms live in this subpackage:

* **online policies** -- state-feedback rules invoked once per time
  step by :func:`repro.core.simulator.simulate` (RoundRobin,
  GreedyBalance, the baseline heuristics).  They subclass
  :class:`Policy` and implement :meth:`Policy.shares`.
* **offline exact algorithms** -- functions that take an
  :class:`~repro.core.instance.Instance` and return an optimal
  :class:`~repro.core.schedule.Schedule` directly
  (:mod:`~repro.algorithms.opt_two`, :mod:`~repro.algorithms.opt_general`,
  the oracles).

The dominant building block for policies is *water-filling*
(:func:`water_fill`): visit processors in priority order and grant each
its maximum useful share until the resource is exhausted.  Greedy
water-filling is exactly what the paper's GreedyBalance does and what
RoundRobin does within a phase; it guarantees the resulting schedules
are non-wasting and progressive by construction (at most one processor
receives a partial grant).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.numerics import ONE, ZERO
from ..core.schedule import Schedule
from ..core.simulator import simulate
from ..core.state import ExecState
from ..exceptions import UnknownPolicyError, VectorizationUnsupportedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..backends.base import BackendResult
    from ..backends.batched import BatchVectorState
    from ..backends.vector import VectorState

__all__ = [
    "Policy",
    "water_fill",
    "water_fill_multi",
    "water_fill_array",
    "water_fill_array_multi",
    "water_fill_array_batch",
    "sort_key",
    "register_policy",
    "get_policy",
    "resolve_policy",
    "available_policies",
]


class Policy:
    """Base class for online resource-assignment policies.

    Subclasses implement :meth:`shares`; the base class makes instances
    directly usable as simulator callables and provides :meth:`run`.

    Policies must be stateless with respect to the run (the full
    execution state arrives each step), so one policy object can be
    reused across instances and runs.

    Example:
        >>> from repro.core import Instance
        >>> from repro.algorithms import get_policy
        >>> policy = get_policy("greedy-balance")
        >>> policy.run(Instance.from_percent([[60, 40], [80, 20]])).makespan
        3
    """

    #: Short identifier used by the registry/CLI.
    name: str = "policy"

    def shares(self, state: ExecState) -> Sequence[Fraction]:
        """Return the per-processor share vector for the current step."""
        raise NotImplementedError

    def shares_array(self, state: "VectorState") -> np.ndarray:
        """Vectorized variant of :meth:`shares` for the float backend.

        Receives a :class:`repro.backends.vector.VectorState` (NumPy
        float64 view of the execution state) and returns one float64
        share per processor.  Must implement the *same* rule as
        :meth:`shares` so the backends agree; the cross-validation
        suite enforces agreement within tolerance.  The returned array
        must be freshly allocated (never a view of the state's arrays):
        the kernel records it as the step's share row.

        The default raises -- policies without a vectorized path can
        only run on the exact backend.
        """
        raise VectorizationUnsupportedError(
            f"policy {self.name!r} has no vectorized shares_array path; "
            "run it on the exact backend"
        )

    @property
    def supports_vector(self) -> bool:
        """True iff this policy overrides :meth:`shares_array`."""
        return type(self).shares_array is not Policy.shares_array

    def shares_batch(self, state: "BatchVectorState") -> np.ndarray:
        """Batched variant of :meth:`shares_array` for the batch engine.

        Receives a :class:`repro.backends.batched.BatchVectorState`
        (``B`` padded instance lanes as ``(B, m)`` / ``(B, k, m)``
        float64 arrays) and returns one share row per lane -- ``(B, m)``
        for single-resource batches, ``(B, k, m)`` otherwise.  Must
        implement the *same* rule as :meth:`shares_array` applied lane
        by lane; the crosscheck suite enforces agreement within the
        backend tolerance.  Lanes that have finished (all remaining
        work zero) must receive all-zero rows.

        The default raises -- the batch engine then falls back to
        stepping such policies lane by lane through their
        :meth:`shares_array` path (correct, but without the batched
        speedup).
        """
        raise VectorizationUnsupportedError(
            f"policy {self.name!r} has no batched shares_batch path"
        )

    @property
    def supports_batch(self) -> bool:
        """True iff this policy overrides :meth:`shares_batch`."""
        return type(self).shares_batch is not Policy.shares_batch

    def __call__(self, state: ExecState) -> Sequence[Fraction]:
        return self.shares(state)

    def run(self, instance: Instance, **kwargs) -> Schedule:
        """Simulate this policy on *instance* and return the schedule
        (always exact arithmetic; see :meth:`run_backend` for the
        pluggable-backend entry point)."""
        return simulate(instance, self, **kwargs)

    def run_backend(
        self, instance: Instance, backend: str = "vector", **kwargs
    ) -> "BackendResult":
        """Run this policy through a named simulation backend.

        ``backend="exact"`` reproduces :meth:`run` semantics (the
        result carries the validated :class:`Schedule`);
        ``backend="vector"`` runs the NumPy float64 engine.
        """
        from ..backends import get_backend  # local: avoid import cycle

        return get_backend(backend).run(instance, self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def water_fill(
    state: ExecState,
    order: Iterable[int],
    *,
    capacity: Fraction = ONE,
) -> list[Fraction]:
    """Grant processors their maximum useful share in the given order.

    Each processor in *order* receives
    ``min(remaining_work, requirement, capacity_left)`` -- the most it
    can convert into work this step.  Processors not listed (or listed
    after capacity runs out) receive zero.

    For unit-size jobs, remaining work never exceeds the requirement,
    so every fully-served processor finishes its job; at most one
    processor receives a partial grant.  This is the mechanism behind
    the *progressive* property of all our greedy policies.

    Multi-resource instances dispatch to :func:`water_fill_multi` (the
    bottleneck-resource generalization of the same rule), so every
    water-filling policy supports ``k > 1`` through its usual order.
    """
    if state.instance.num_resources != 1:
        return water_fill_multi(state, order, capacity=capacity)
    shares = [ZERO] * state.num_processors
    left = capacity
    if left < ZERO:
        raise ValueError("capacity must be non-negative")
    for i in order:
        if left <= ZERO:
            break
        if not state.is_active(i):
            continue
        j = state.active_job(i)
        requirement = state.instance.job(i, j).requirement
        useful = min(state.remaining_work(i), requirement, left)
        if useful > ZERO:
            shares[i] = useful
            left -= useful
    return shares


def water_fill_multi(
    state: ExecState,
    order: Iterable[int],
    *,
    capacity: Fraction = ONE,
) -> list[list[Fraction]]:
    """Bottleneck water-filling over ``k`` shared resources.

    The multi-resource generalization of :func:`water_fill`: visit
    processors in priority order and grant each the largest *speed
    fraction* ``f`` its active job can still use --
    ``f = min(1, remaining / r*, min_l capacity_left_l / r_l)`` over
    the resources it needs -- then charge ``f * r_l`` against every
    resource ``l``.  For ``k == 1`` this reduces exactly to the
    scalar rule (``min(remaining, r, capacity_left)``).

    Returns ``k`` share rows (one per resource), each of length ``m``.
    """
    if capacity < ZERO:
        raise ValueError("capacity must be non-negative")
    inst = state.instance
    k = inst.num_resources
    m = state.num_processors
    rows: list[list[Fraction]] = [[ZERO] * m for _ in range(k)]
    left: list[Fraction] = [capacity] * k
    for i in order:
        if not state.is_active(i):
            continue
        job = inst.job(i, state.active_job(i))
        rstar = job.requirement
        if rstar == ZERO:
            continue  # zero-requirement job: completes without resource
        fraction = min(ONE, state.remaining_work(i) / rstar)
        for lane, req in enumerate(job.requirements):
            if req > ZERO:
                afford = left[lane] / req
                if afford < fraction:
                    fraction = afford
        if fraction <= ZERO:
            continue
        for lane, req in enumerate(job.requirements):
            if req > ZERO:
                grant = fraction * req
                rows[lane][i] = grant
                left[lane] -= grant
    return rows


def sort_key(values: np.ndarray, *, decimals: int = 9) -> np.ndarray:
    """Quantize a float key for priority sorting.

    Partial water-fill grants leave ~1e-16 residue on remaining-work
    values, which would break exact ties (values equal as rationals)
    inconsistently with the exact path's value-then-index order.
    Rounding to the backend tolerance restores those ties; instances on
    a requirement grid coarser than ``10**-decimals`` sort identically
    to exact arithmetic.
    """
    return np.round(values, decimals)


def water_fill_array(
    state: "VectorState",
    order: np.ndarray,
    *,
    capacity: float = 1.0,
) -> np.ndarray:
    """Vectorized :func:`water_fill` over a float64 state.

    *order* is an array of processor indices in priority order (it may
    include inactive processors -- their useful share is zero, so they
    neither receive nor consume capacity).  The grant rule is identical
    to the exact path: each processor gets
    ``min(remaining_work, requirement, capacity_left)``, realized as a
    prefix-sum followed by a clip, so the whole fill is O(m) NumPy work
    with no Python loop.

    Multi-resource states dispatch to :func:`water_fill_array_multi`
    and return a ``(k, m)`` share matrix instead of a flat vector.
    """
    if state.num_resources != 1:
        return water_fill_array_multi(state, order, capacity=capacity)
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    useful = np.minimum(state.remaining, state.active_requirements)
    u = useful[order]
    taken_before = np.cumsum(u) - u
    grants = np.clip(capacity - taken_before, 0.0, u)
    shares = np.zeros(state.num_processors, dtype=np.float64)
    shares[order] = grants
    return shares


#: Slack absorbing float rounding when deciding whether a prefix of
#: grants over-commits a resource; far below the backend tolerance, so
#: boundary cases (a row summing to exactly 1) grant fully, as the
#: exact path does.
_FILL_EPS = 1e-15


def water_fill_array_multi(
    state: "VectorState",
    order: np.ndarray,
    *,
    capacity: float = 1.0,
) -> np.ndarray:
    """Vectorized :func:`water_fill_multi` over a ``(k, m)`` state.

    Implements the same sequential grant rule as the exact path --
    each processor in *order* gets speed fraction
    ``min(1, remaining / r*, min_l left_l / r_l)`` -- in depletion
    *rounds*: optimistically cumsum full grants along the order, find
    the first processor whose grant would over-commit some resource,
    grant everything before it in one shot plus a partial grant there,
    then continue with the survivors.  Each round retires at least one
    processor, and in the common case one round grants everyone, so
    the fill stays NumPy-vectorized.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    return _fill_arrays_multi(
        state.remaining,
        state.active_requirements,
        state.active_req_matrix,
        np.asarray(order, dtype=np.int64),
        float(capacity),
    )


def _fill_arrays_multi(
    remaining: np.ndarray,
    rstar: np.ndarray,
    req_matrix: np.ndarray,
    order: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """Array-level core of :func:`water_fill_array_multi`.

    Shared by the single-lane fill and the batch engine's per-lane
    ``k > 1`` path, so both produce bit-identical grants.
    """
    k, m = req_matrix.shape
    shares = np.zeros((k, m), dtype=np.float64)
    fraction_cap = np.zeros(m, dtype=np.float64)
    positive = rstar > 0.0
    fraction_cap[positive] = np.minimum(
        1.0, remaining[positive] / rstar[positive]
    )
    left = np.full(k, capacity, dtype=np.float64)
    pending = order[fraction_cap[order] > 0.0]
    while pending.size:
        fc = fraction_cap[pending]
        consume = fc[None, :] * req_matrix[:, pending]  # (k, p) full grants
        over = (
            np.cumsum(consume, axis=1) > left[:, None] + _FILL_EPS
        ).any(axis=0)
        if not over.any():
            shares[:, pending] = consume
            break
        first = int(np.argmax(over))
        fully = pending[:first]
        if fully.size:
            grants = consume[:, :first]
            shares[:, fully] = grants
            left -= grants.sum(axis=1)
        # Partial grant at the first over-committing processor: the
        # binding resource caps its speed fraction.
        i = int(pending[first])
        needs = req_matrix[:, i]
        needed = needs > 0.0
        fraction = min(
            float(fraction_cap[i]), float((left[needed] / needs[needed]).min())
        )
        if fraction > 0.0:
            grant = fraction * needs
            shares[:, i] = grant
            left -= grant
        np.maximum(left, 0.0, out=left)
        pending = pending[first + 1 :]
        if pending.size:
            # Retire processors whose needed resources are exhausted.
            blocked = (
                (req_matrix[:, pending] > 0.0) & (left[:, None] <= _FILL_EPS)
            ).any(axis=0)
            pending = pending[~blocked]
    return shares


def water_fill_array_batch(
    state: "BatchVectorState",
    order: np.ndarray,
    *,
    eligible: np.ndarray | None = None,
    capacity: float = 1.0,
) -> np.ndarray:
    """Water-fill all ``B`` lanes of a batch state in one array program.

    *order* is a ``(B, m)`` array of processor indices, one priority
    permutation per lane; *eligible* optionally masks processors out of
    the fill (a ``(B, m)`` boolean indexed by processor, **not** by
    order position -- RoundRobin's phase restriction).  Padded and
    inactive processors have zero useful share, so they neither
    receive nor consume capacity; partial sums are bit-identical to
    the per-lane :func:`water_fill_array` because interleaved exact
    zeros never perturb a float cumsum.

    Single-resource batches (``state.num_resources == 1``) run the
    fully vectorized prefix-sum fill.  Multi-resource batches fall
    back to the per-lane depletion-rounds core
    (:func:`water_fill_array_multi`'s array kernel) -- still one
    shared grant rule, but looped over lanes -- and return a
    ``(B, k, m)`` share tensor.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if state.num_resources != 1:
        return _water_fill_batch_multi(
            state, order, eligible=eligible, capacity=capacity
        )
    useful = np.minimum(state.remaining, state.active_requirements)
    if eligible is not None:
        useful = np.where(eligible, useful, 0.0)
    u = np.take_along_axis(useful, order, axis=1)
    taken_before = np.cumsum(u, axis=1) - u
    grants = np.clip(capacity - taken_before, 0.0, u)
    shares = np.zeros_like(useful)
    np.put_along_axis(shares, order, grants, axis=1)
    return shares


def _water_fill_batch_multi(
    state: "BatchVectorState",
    order: np.ndarray,
    *,
    eligible: np.ndarray | None,
    capacity: float,
) -> np.ndarray:
    """``k > 1`` path of :func:`water_fill_array_batch`: one
    ``(B, k, m)`` array program over all lanes.

    Dispatches to :func:`_fill_arrays_batch_multi` for the
    multi-resource depletion rounds and overwrites single-resource
    lanes of a mixed batch with the scalar prefix-sum rule (exactly as
    their standalone vector run applies it), so each lane follows its
    native grant rule.
    """
    shares = _fill_arrays_batch_multi(
        state.remaining,
        state.active_requirements,
        state.active_req_matrix,
        np.asarray(order, dtype=np.int64),
        eligible,
        capacity,
    )
    scalar = state.lane_num_resources == 1
    if scalar.any():
        # Single-resource lanes: the scalar prefix-sum rule (interleaved
        # exact zeros keep the cumsum bit-identical to a per-lane fill).
        useful = np.minimum(state.remaining, state.active_requirements)
        if eligible is not None:
            useful = np.where(eligible, useful, 0.0)
        u = np.take_along_axis(useful, order, axis=1)
        taken_before = np.cumsum(u, axis=1) - u
        grants = np.clip(capacity - taken_before, 0.0, u)
        rows = np.zeros_like(useful)
        np.put_along_axis(rows, order, grants, axis=1)
        shares[scalar] = 0.0
        shares[scalar, 0, :] = rows[scalar]
    return shares


def _fill_arrays_batch_multi(
    remaining: np.ndarray,
    rstar: np.ndarray,
    req_matrix: np.ndarray,
    order: np.ndarray,
    eligible: np.ndarray | None,
    capacity: float,
) -> np.ndarray:
    """Batched depletion-rounds core: ``B`` lanes per round, no lane loop.

    The batch lift of :func:`_fill_arrays_multi`, working in *order
    position* space: per round, every live lane optimistically cumsums
    its full grants along its priority order, the first over-committing
    position gets a partial grant (its binding resource caps the speed
    fraction), everything before it is granted in one shot, and
    positions whose needed resources are exhausted retire.  Inactive
    positions contribute exact ``0.0`` terms, so the cumsums match the
    per-lane compacted fill bit for bit; the only per-lane work left is
    the capacity update of over-committing lanes, which sums each such
    lane's compacted prefix exactly as the single-lane kernel does.
    Lanes that never over-commit (the common case) finish in one fully
    vectorized round.
    """
    B, k, m = req_matrix.shape
    fraction_cap = np.zeros((B, m), dtype=np.float64)
    positive = rstar > 0.0
    np.divide(remaining, rstar, out=fraction_cap, where=positive)
    np.minimum(fraction_cap, 1.0, out=fraction_cap)
    if eligible is not None:
        fraction_cap = np.where(eligible, fraction_cap, 0.0)
    # Everything below runs in order-position space; one scatter at the
    # end maps grants back to processor indices.
    fc_ord = np.take_along_axis(fraction_cap, order, axis=1)  # (B, m)
    req_ord = np.take_along_axis(req_matrix, order[:, None, :], axis=2)
    granted_ord = np.zeros((B, k, m), dtype=np.float64)
    left = np.full((B, k), capacity, dtype=np.float64)
    active = fc_ord > 0.0  # (B, m) positions still pending
    pos = np.arange(m)
    while True:
        live = active.any(axis=1)
        if not live.any():
            break
        consume = np.where(
            active[:, None, :], fc_ord[:, None, :] * req_ord, 0.0
        )
        over_ord = (
            np.cumsum(consume, axis=2) > left[:, :, None] + _FILL_EPS
        ).any(axis=1)
        over_lane = over_ord.any(axis=1)
        fits = live & ~over_lane
        if fits.any():
            # No over-commit: the whole pending set is granted.
            granted_ord[fits] = np.where(
                active[fits, None, :], consume[fits], granted_ord[fits]
            )
            active[fits] = False
        sel = np.flatnonzero(live & over_lane)
        if not sel.size:
            break
        first = np.argmax(over_ord[sel], axis=1)  # over is monotone
        prefix = active[sel] & (pos[None, :] < first[:, None])
        granted_ord[sel] = np.where(
            prefix[:, None, :], consume[sel], granted_ord[sel]
        )
        for row, b in enumerate(sel):
            # Compacted prefix sum, exactly as the single-lane kernel
            # charges its capacity (bit-identical reduction order).
            taken = consume[b][:, prefix[row]]
            if taken.shape[1]:
                left[b] -= taken.sum(axis=1)
        # Partial grant at each lane's first over-committing position.
        needs = req_ord[sel, :, first]  # (|sel|, k)
        needed = needs > 0.0
        afford = np.divide(
            left[sel], needs, out=np.full_like(needs, np.inf), where=needed
        )
        fraction = np.minimum(fc_ord[sel, first], afford.min(axis=1))
        partial = fraction[:, None] * np.where(needed, needs, 0.0)
        granted_ord[sel, :, first] = np.where(
            fraction[:, None] > 0.0, partial, 0.0
        )
        left[sel] -= np.where(fraction[:, None] > 0.0, partial, 0.0)
        np.maximum(left, 0.0, out=left)
        # Retire the served prefix and positions whose needed resources
        # are exhausted.
        active[sel] &= pos[None, :] > first[:, None]
        blocked = (
            (req_ord[sel] > 0.0) & (left[sel, :, None] <= _FILL_EPS)
        ).any(axis=1)
        active[sel] &= ~blocked
    shares = np.zeros((B, k, m), dtype=np.float64)
    np.put_along_axis(
        shares, np.broadcast_to(order[:, None, :], (B, k, m)), granted_ord,
        axis=2,
    )
    return shares


# ----------------------------------------------------------------------
# Registry (CLI / experiment harness lookup)
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], Policy]] = {}


def register_policy(factory: Callable[[], Policy]) -> Callable[[], Policy]:
    """Register a policy factory under its ``name`` (decorator-friendly)."""
    probe = factory()
    _REGISTRY[probe.name] = factory
    return factory


def get_policy(name: str) -> Policy:
    """Instantiate a registered policy by name.

    Raises:
        UnknownPolicyError: (a ``KeyError`` subclass) with the list of
            known names.
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def resolve_policy(policy: "Policy | Callable | str") -> Policy:
    """Resolve a policy given by registry name, passing objects through.

    The shared name-resolution step behind every public entry point
    (``run_policy``, ``simulate``, ``cross_validate``, the backends), so
    ``run_policy(inst, "round-robin")`` works anywhere a policy object
    does instead of crashing with ``TypeError: 'str' object is not
    callable`` deep inside the kernel.

    Raises:
        UnknownPolicyError: for names missing from the registry.
    """
    if isinstance(policy, str):
        return get_policy(policy)
    return policy


def available_policies() -> list[str]:
    """Names of all registered policies."""
    return sorted(_REGISTRY)
