"""Exact-vs-vector cross-validation on a single instance.

The float backend earns its place by agreeing with the exact one;
:func:`cross_validate` runs both on the same instance and policy and
reports makespan agreement (relative error) plus the largest per-step
share deviation.  The test-suite runs this over hundreds of random
instances; the CLI exposes it as ``crsharing crosscheck`` so any
suspicious campaign result can be audited in one command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import Instance
from .exact import ExactBackend
from .vector import VectorBackend

__all__ = ["CrossCheckResult", "cross_validate"]


@dataclass(slots=True)
class CrossCheckResult:
    """Agreement report between the exact and vector backends.

    Attributes:
        exact_makespan: makespan from the exact backend.
        vector_makespan: makespan from the vector backend.
        makespan_rel_error: ``|vector - exact| / exact``.
        max_share_deviation: largest absolute per-step, per-processor
            share difference over the steps both runs executed
            (``None`` when shares were not compared).
        objective_values: objective name -> ``(exact, vector)`` value
            pair for every objective requested via ``objectives=``.
        max_objective_error: largest relative error over the compared
            objective values (``None`` when none were requested).
        ok: True iff the makespans -- and all requested objective
            values -- agree within the requested relative tolerance.
        certificate: the optimality
            :class:`~repro.analysis.certify.Certificate` of the
            sequenced instance when ``certify=True`` (``None``
            otherwise).
        opt_gap: ``(exact_makespan - OPT) / OPT`` against a *proved*
            certificate (``None`` without one).
    """

    exact_makespan: int
    vector_makespan: int
    makespan_rel_error: float
    max_share_deviation: float | None
    ok: bool
    objective_values: dict[str, tuple[object, object]] = None
    max_objective_error: float | None = None
    certificate: object | None = None
    opt_gap: float | None = None


def cross_validate(
    instance: Instance,
    policy,
    *,
    rtol: float = 1e-9,
    tol: float = 1e-9,
    compare_shares: bool = True,
    objectives=(),
    sequencer=None,
    certify: bool = False,
    certify_max_nodes: int = 100_000,
) -> CrossCheckResult:
    """Run *policy* on *instance* through both backends and compare.

    Args:
        instance: the instance to audit.
        policy: a policy with a vectorized path, or a registry name
            (resolved via :func:`repro.algorithms.resolve_policy`).
        rtol: allowed relative makespan error (makespans are integers,
            so any ``rtol < 1/makespan`` demands exact equality).
        tol: completion tolerance for the vector backend.
        compare_shares: also compute the max per-step share deviation
            (needs both runs recorded; skip for bulk audits).
        objectives: objectives (registry names or instances) whose
            online values must also agree between the backends.  Flow
            and tardiness values are derived from integer completion
            steps on both sides, so agreement within *rtol* on grid
            instances means exact agreement.
        sequencer: optional :class:`~repro.sequencing.Sequencer` (or
            registry name) applied *once* before both runs, so the
            audit compares the backends on the same re-sequenced
            queues.  Unpinned local-search options are bound to the
            audited policy (and the single requested objective, if
            exactly one).
        certify: also certify the optimal queue order of the (already
            sequenced) instance via
            :func:`repro.analysis.certify.certify_opt` and **assert**
            that both backends' makespans are >= the certified value
            -- a violation means a backend undercut a proven lower
            bound (a kernel bug) and raises
            :class:`~repro.exceptions.BackendError`.  Instances
            outside the exact oracles' model are certified in the
            epsilon mode against the audited policy (still a valid
            lower bound for *this policy's* runs).  Unproved
            certificates (node budget) skip the assertion.
        certify_max_nodes: branch-and-bound node budget for *certify*.
            With ``compare_shares=False`` the vector run may take the
            fused driver (see :func:`repro.kernels.decide`).

    Raises:
        BackendError: when ``certify=True`` produced a proved
            certificate and either backend finished below it.
    """
    from ..algorithms import resolve_policy  # local: avoid import cycle

    policy = resolve_policy(policy)
    objectives = tuple(objectives)  # both backend runs consume it
    if sequencer is not None:
        from ..sequencing import resolve_sequencer  # local: builds on core

        instance = (
            resolve_sequencer(sequencer)
            .bind(
                policy=policy,
                objective=objectives[0] if len(objectives) == 1 else None,
            )
            .sequence(instance)
        )
    exact = ExactBackend().run(
        instance, policy, record_shares=compare_shares, objectives=objectives
    )
    vector = VectorBackend(tol=tol).run(
        instance,
        policy,
        record_shares=compare_shares,
        objectives=objectives,
    )
    rel = (
        abs(vector.makespan - exact.makespan) / exact.makespan
        if exact.makespan
        else 0.0
    )
    deviation: float | None = None
    if compare_shares:
        steps = min(exact.makespan, vector.makespan)
        # Rows are flat (m,) vectors for k=1 and (k, m) matrices for
        # multi-resource instances; numpy converts the exact Fractions
        # elementwise either way.
        exact_rows = np.array(exact.shares[:steps], dtype=np.float64)
        vector_rows = np.asarray(vector.shares)[:steps]
        deviation = (
            float(np.abs(exact_rows - vector_rows).max()) if steps else 0.0
        )
    pairs: dict[str, tuple[object, object]] = {}
    worst_obj: float | None = None
    for name, exact_value in exact.objective_values.items():
        vector_value = vector.objective_values[name]
        pairs[name] = (exact_value, vector_value)
        scale = max(1.0, abs(float(exact_value)))
        err = abs(float(exact_value) - float(vector_value)) / scale
        worst_obj = err if worst_obj is None else max(worst_obj, err)
    ok = rel <= rtol and (worst_obj is None or worst_obj <= rtol)
    certificate = None
    opt_gap: float | None = None
    if certify:
        from ..analysis.certify import certify_opt  # local: builds on this
        from ..exceptions import BackendError

        oracle_model = (
            instance.is_single_resource
            and instance.is_unit_size
            and not instance.has_releases
        )
        if oracle_model:
            certificate = certify_opt(instance, max_nodes=certify_max_nodes)
        else:
            certificate = certify_opt(
                instance, policy=policy, max_nodes=certify_max_nodes
            )
        if certificate.proved:
            floor = certificate.value - (
                0.0 if certificate.mode == "exact" else rtol * certificate.value
            )
            if exact.makespan < floor or vector.makespan < floor:
                raise BackendError(
                    f"backend undercut a proved optimality certificate: "
                    f"certified OPT={certificate.value} "
                    f"({certificate.mode}) but exact ran "
                    f"{exact.makespan}, vector {vector.makespan}"
                )
            opt_gap = certificate.gap(exact.makespan)
    return CrossCheckResult(
        exact_makespan=exact.makespan,
        vector_makespan=vector.makespan,
        makespan_rel_error=rel,
        max_share_deviation=deviation,
        ok=ok,
        objective_values=pairs or None,
        max_objective_error=worst_obj,
        certificate=certificate,
        opt_gap=opt_gap,
    )
