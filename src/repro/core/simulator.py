"""Discrete-time simulator driving online policies (Section 3.1).

The simulator is the bridge between *policies* (state-feedback rules
such as RoundRobin and GreedyBalance, Sections 4.2 / 8.3) and the
offline :class:`~repro.core.schedule.Schedule` artifact all analysis
operates on.  Since the kernel refactor, :func:`simulate` is a thin
configuration of :func:`repro.core.kernel.run_kernel`: an
:class:`~repro.core.kernel.ExactRuntime` supplies the Fraction
arithmetic, a :class:`~repro.core.kernel.ShareRecorder` observer
collects the rows, and the recorded rows are wrapped in a validated
:class:`Schedule`.

Policies are plain callables ``policy(state) -> shares`` where *state*
is the live :class:`ExecState` (treated as read-only by convention;
:class:`~repro.algorithms.base.Policy` documents the contract).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .instance import Instance
from .kernel import (
    ExactRuntime,
    ShareRecorder,
    StepObserver,
    check_share_vector,
    run_kernel,
)
from .numerics import Num
from .schedule import Schedule
from .state import ExecState

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..backends.base import BackendResult
    from ..sequencing.base import Sequencer

__all__ = [
    "simulate",
    "run_policy",
    "check_share_vector",
    "default_step_limit",
    "PolicyFn",
]

#: A policy maps the execution state to a per-processor share vector.
PolicyFn = Callable[[ExecState], Sequence[Num]]


def default_step_limit(instance: Instance) -> int:
    """A generous upper bound on the steps any sane policy needs.

    Any schedule that each step either finishes a job or uses the full
    resource takes at most ``total_jobs + ceil(total_work)`` steps; we
    double that and pad, so only genuinely stuck policies hit the
    limit.  Release times shift every deadline by at most the latest
    arrival, so that is added on top.
    """
    return 2 * (instance.total_jobs + instance.work_lower_bound()) + 16 + (
        instance.max_release
    )


def run_policy(
    instance: Instance,
    policy: PolicyFn | str,
    *,
    backend: str = "exact",
    sequencer: "Sequencer | str | None" = None,
    **kwargs,
) -> "BackendResult":
    """Run *policy* through a named simulation backend.

    The backend-agnostic entry point behind the CLI's ``--backend``
    flag: ``backend="exact"`` wraps :func:`simulate` (the result
    carries the validated :class:`Schedule`), ``backend="vector"``
    runs the NumPy float64 engine.  See :mod:`repro.backends`.

    *policy* may be a policy object or a registry name
    (``run_policy(inst, "round-robin")``); names resolve through
    :func:`repro.algorithms.resolve_policy` and unknown names raise
    :class:`~repro.exceptions.UnknownPolicyError` listing the options.

    *sequencer* (a :class:`~repro.sequencing.Sequencer` or registry
    name) re-derives the per-processor queue orders before the run --
    the job-order decision axis (:mod:`repro.sequencing`); ``None``
    keeps the instance's fixed order bit-identical.  Strategies with
    unpinned evaluation options (a bare ``"local-search"``) are bound
    to the policy -- and, when exactly one objective is requested, to
    that objective -- that this run actually executes.  The returned
    result's ``instance`` attribute carries the order that actually
    executed.
    """
    from ..algorithms import resolve_policy  # local: algorithms build on core
    from ..backends import get_backend  # local: backends build on this module

    policy = resolve_policy(policy)
    if sequencer is not None:
        from ..sequencing import resolve_sequencer  # local: builds on core

        objectives = tuple(kwargs.get("objectives") or ())
        if "objectives" in kwargs:
            # Materialize before the backend sees it: a one-shot
            # iterable would otherwise arrive exhausted.
            kwargs["objectives"] = objectives
        instance = (
            resolve_sequencer(sequencer)
            .bind(
                policy=policy,
                objective=objectives[0] if len(objectives) == 1 else None,
            )
            .sequence(instance)
        )
    return get_backend(backend).run(instance, policy, **kwargs)


def simulate(
    instance: Instance,
    policy: PolicyFn | str,
    *,
    max_steps: int | None = None,
    stall_limit: int = 3,
    observers: Iterable[StepObserver] = (),
) -> Schedule:
    """Run *policy* on *instance* until every job is finished.

    Args:
        instance: the CRSharing instance (unit or general job sizes,
            with or without release times).
        policy: callable producing one share vector per step, or a
            registry name (resolved via
            :func:`repro.algorithms.resolve_policy`; unknown names
            raise :class:`~repro.exceptions.UnknownPolicyError`).
        max_steps: hard safety limit (default
            :func:`default_step_limit`).
        stall_limit: abort after this many *consecutive* steps in which
            nothing changed (no work processed, no job completed) while
            no processor was waiting on a release -- the signature of a
            policy that will never terminate.
        observers: extra kernel step observers (e.g. the
            :class:`~repro.core.kernel.ObjectiveRecorder` hooks the
            exact backend attaches for online objective values),
            notified after the simulator's own share recorder.

    Returns:
        A validated :class:`Schedule`.

    Raises:
        InvalidInstanceError: for multi-resource instances -- the
            :class:`Schedule` artifact models the paper's
            single-resource analysis; run ``k > 1`` instances through
            :func:`run_policy` / the backends instead.
        InfeasibleAssignmentError: if the policy overuses the resource
            or emits an invalid share.
        SimulationLimitError: if the limits are exceeded.
    """
    from ..algorithms import resolve_policy  # local: algorithms build on core

    policy = resolve_policy(policy)
    instance.require_single_resource("simulate (Schedule artifact)")
    recorder = ShareRecorder()
    run_kernel(
        ExactRuntime(instance),
        policy,
        (recorder, *observers),
        max_steps=max_steps,
        stall_limit=stall_limit,
    )
    # The rows were produced against live state; Schedule re-executes
    # them through the same ExecState semantics, guaranteeing the
    # returned artifact is internally consistent.
    rows: list[tuple[Fraction, ...]] = list(recorder.shares)
    return Schedule(instance, rows, validate=True, trim=True)
