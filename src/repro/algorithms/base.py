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

__all__ = [
    "Policy",
    "water_fill",
    "water_fill_multi",
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

    def shares_batch(self, state: "BatchVectorState") -> np.ndarray:
        """Array variant of :meth:`shares` for the float64 runtimes.

        Receives a :class:`repro.backends.batched.BatchVectorState`
        (``B`` padded instance lanes as ``(B, m)`` / ``(B, k, m)``
        float64 arrays; the vector backend passes a one-lane state)
        and returns one share row per lane -- ``(B, m)`` for
        single-resource states, ``(B, k, m)`` otherwise.  Must
        implement the *same* rule as :meth:`shares` lane by lane; the
        crosscheck suites enforce agreement within the backend
        tolerance.  Lanes that have finished (all remaining work zero)
        must receive all-zero rows.  The returned array must be
        freshly allocated (never a view of the state's arrays): the
        kernel records it as the step's share row.

        The default raises -- policies without an array path can only
        run on the exact backend.
        """
        raise VectorizationUnsupportedError(
            f"policy {self.name!r} has no array shares_batch path; "
            "run it on the exact backend"
        )

    @property
    def supports_batch(self) -> bool:
        """True iff this policy overrides :meth:`shares_batch`.

        The one array capability flag: the vector backend, the batch
        engine and batched local search all require it.
        """
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
    return values.round(decimals)


#: Slack absorbing float rounding when deciding whether a prefix of
#: grants over-commits a resource; far below the backend tolerance, so
#: boundary cases (a row summing to exactly 1) grant fully, as the
#: exact path does.
_FILL_EPS = 1e-15


def water_fill_array_batch(
    state: "BatchVectorState",
    order: np.ndarray,
    *,
    eligible: np.ndarray | None = None,
    capacity: float = 1.0,
) -> np.ndarray:
    """Vectorized :func:`water_fill` over all ``B`` lanes of a float state.

    *order* is a ``(B, m)`` array of processor indices, one priority
    permutation per lane (a ``(1, m)`` order is shared by every lane);
    *eligible* optionally masks processors out of the fill (a
    ``(B, m)`` boolean indexed by processor, **not** by order position
    -- RoundRobin's phase restriction).  The grant rule
    is the exact path's: each processor gets
    ``min(remaining_work, requirement, capacity_left)``, realized as a
    prefix sum followed by a clip, so the fill is ``O(B m)`` NumPy work
    with no Python loop.  Padded, inactive and ineligible processors
    have zero useful share, so they neither receive nor consume
    capacity (interleaved exact zeros never perturb a float cumsum).

    Multi-resource states (``state.num_resources > 1``) run the
    bottleneck depletion rounds of :func:`water_fill_multi` and return
    a ``(B, k, m)`` share tensor.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if state.num_resources != 1:
        return _water_fill_batch_multi(
            state, order, eligible=eligible, capacity=capacity
        )
    return _scalar_fill(state, order, eligible, capacity)


def _lane_flat(order: np.ndarray, lanes: int, width: int) -> np.ndarray:
    """*order* as ``(lanes, m)`` flat indices ``lane * width + order``.

    A ``(1, m)`` *order* is shared by every lane.
    """
    if lanes == 1:
        return order
    return order + (np.arange(lanes) * width)[:, None]


def _scalar_fill(
    state: "BatchVectorState",
    order: np.ndarray,
    eligible: np.ndarray | None,
    capacity: float,
) -> np.ndarray:
    """The ``(B, m)`` prefix-sum fill of :func:`water_fill_array_batch`.

    Gathers and scatters go through flat indices on the raveled rows:
    at ``B == 1`` that costs what a one-dimensional fill does, where
    ``take_along_axis`` / ``put_along_axis`` would cost several times
    more.
    """
    useful = np.minimum(state.remaining, state.active_requirements)
    if eligible is not None:
        useful = np.where(eligible, useful, 0.0)
    flat = _lane_flat(order, *useful.shape)
    u = useful.ravel()[flat]
    left = u.cumsum(axis=1)
    left -= u
    np.subtract(capacity, left, out=left)
    np.maximum(left, 0.0, out=left)
    np.minimum(left, u, out=left)
    shares = np.zeros(useful.size)
    shares[flat] = left
    return shares.reshape(useful.shape)


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
    a one-lane state of that instance applies it), so each lane
    follows its native grant rule.
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
        rows = _scalar_fill(state, order, eligible, capacity)
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
    """Depletion-rounds core of the ``k > 1`` fill: ``B`` lanes per round.

    The sequential rule of :func:`water_fill_multi` -- each processor
    in order gets speed fraction ``min(1, remaining / r*, min_l
    left_l / r_l)`` -- realized in *order position* space: per round,
    every live lane optimistically cumsums its full grants along its
    priority order, the first over-committing position gets a partial
    grant (its binding resource caps the speed fraction), everything
    before it is granted in one shot, and positions whose needed
    resources are exhausted retire.  Each round retires at least one
    position per live lane, and lanes that never over-commit (the
    common case) finish in one fully vectorized round.  Inactive
    positions contribute exact ``0.0`` terms to the cumsums; the only
    per-lane work left is the capacity update of over-committing
    lanes, which sums just the granted prefix, so a lane's grants do
    not depend on its padding or on the other lanes of the batch.
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
    fc_ord = fraction_cap.ravel()[_lane_flat(order, B, m)]  # (B, m)
    flat_k = order[:, None, :] + (np.arange(B * k) * m).reshape(B, k, 1)
    req_ord = req_matrix.ravel()[flat_k]  # (B, k, m)
    granted_ord = np.zeros((B, k, m), dtype=np.float64)
    left = np.full((B, k), capacity, dtype=np.float64)
    active = fc_ord > 0.0  # (B, m) positions still pending
    pos = np.arange(m)
    lanes = np.arange(B)
    while active.any():
        # Inactive positions request exact zeros, and a position is
        # granted only once it leaves the active set, so adding a
        # round's requests to the grants never perturbs earlier ones.
        consume = np.where(active, fc_ord, 0.0)[:, None, :] * req_ord
        over_ord = (
            consume.cumsum(axis=2) > left[:, :, None] + _FILL_EPS
        ).any(axis=1)
        over = over_ord.any(axis=1)  # (B,) lanes that over-commit
        if not over.any():
            # Every pending set fits: grant it whole.
            granted_ord += consume
            break
        # Lanes that fit are granted whole and retire; an over-committing
        # lane grants the prefix before its first over-committing
        # position (over_ord is monotone along the order).
        first = over_ord.argmax(axis=1)
        prefix = active & (pos < first[:, None]) & over[:, None]
        granted_ord += consume * (prefix | ~over[:, None])[:, None, :]
        for b in np.flatnonzero(over):
            # Charge the granted prefix as a compacted sum, so the
            # capacity left does not depend on padding or batch company.
            taken = consume[b][:, prefix[b]]
            if taken.shape[1]:
                left[b] -= taken.sum(axis=1)
        # Partial grant at each over-committing lane's first position:
        # its binding resource caps the speed fraction.
        needs = req_ord[lanes, :, first]  # (B, k)
        afford = np.divide(
            left, needs, out=np.full_like(needs, np.inf), where=needs > 0.0
        )
        fraction = np.minimum(fc_ord[lanes, first] * over, afford.min(axis=1))
        grant = np.where(fraction[:, None] > 0.0, fraction[:, None] * needs, 0.0)
        granted_ord[lanes, :, first] += grant
        left -= grant
        np.maximum(left, 0.0, out=left)
        # Retire the served positions and those whose needed resources
        # are exhausted.
        active &= (pos > first[:, None]) & over[:, None]
        active &= ~((req_ord > 0.0) & (left[:, :, None] <= _FILL_EPS)).any(axis=1)
    shares = np.zeros(B * k * m, dtype=np.float64)
    shares[flat_k] = granted_ord
    return shares.reshape(B, k, m)


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
