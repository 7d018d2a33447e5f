"""Objective-driven local search over queue orders and placements.

Theorem 4 proves that choosing the best queue order is NP-hard, so the
sequencing layer's strongest strategy is a heuristic *improver*: start
from the instance's current order, repeatedly propose small
neighborhood moves -- pairwise swaps of two job positions and
insertion moves that relocate one job to another position (both may
cross queues) -- and keep a move iff it strictly improves the
evaluation objective.

Evaluation runs the full policy simulation through any registered
backend and objective: by default the vectorized float64 backend with
the makespan objective, because the evaluation loop is the hot path
(``benchmarks/bench_sequencing.py`` gates that the vector evaluation
loop stays well ahead of exact ``Fraction`` re-evaluation; the final
accepted order can always be re-audited exactly).

Determinism: the search is seeded, and *restarts* draw from
decorrelated seed streams (``seed + r * offset``), mirroring the
campaign generators' stream discipline -- each restart perturbs the
incumbent with a burst of random swaps and climbs again, so one
unlucky neighborhood does not pin the search.
"""

from __future__ import annotations

import copy
import random
from time import perf_counter

from ..core.checkpoint import KernelCheckpoint, checkpoint_run
from ..core.instance import Instance
from ..core.job import Job
from ..core.kernel import ObjectiveRecorder, StepObserver, run_kernel
from ..exceptions import SequencingError
from .base import Sequencer, register_sequencer

__all__ = ["LocalSearchSequencer"]

#: Reference checkpoints kept for prefix resume (older ones are the
#: least likely to be the deepest valid restore point).
_MAX_PREFIX_POINTS = 128


class _PrefixCapture(StepObserver):
    """Checkpoints the run at every completion boundary.

    A checkpoint is only consistent once *all* of a step's completions
    have been dispatched to the peer observers, so the capture waits
    for the last ``on_complete`` of the step (it must be ordered after
    the peers in the observer tuple).
    """

    def __init__(self, runtime, peers: tuple) -> None:
        self._runtime = runtime
        self._peers = peers
        self._pending = 0
        self.points: list[KernelCheckpoint] = []

    def on_step(self, event) -> None:
        """Arm the countdown with the step's completion count."""
        self._pending = len(event.completed)

    def on_complete(self, job, t) -> None:
        """Capture a checkpoint after the step's last completion."""
        self._pending -= 1
        if self._pending == 0:
            self.points.append(checkpoint_run(self._runtime, self._peers))


#: Decorrelates the per-restart seed streams (same constant family as
#: the campaign generators' arrival/resource/weight offsets).
_RESTART_SEED_OFFSET = 0x51ED2700

#: Cache-miss sentinel (objective values may legitimately be 0).
_MISSING = object()


@register_sequencer
class LocalSearchSequencer(Sequencer):
    """Budgeted hill-climbing over swap + insertion moves.

    Args:
        policy: policy evaluated on every candidate order (registry
            name or object; the name is resolved once, up front).
            ``None`` (the default) leaves the choice *unpinned*: entry
            points that thread the sequencer through a concrete run
            (``run_policy(..., sequencer=...)``, ``cross_validate``,
            the batch workers) align it with the policy that actually
            executes via :meth:`bind`; standalone use falls back to
            ``"greedy-balance"``.
        backend: backend running the evaluations (registry name;
            ``"vector"`` keeps the hot loop in float64).
        objective: objective being minimized (registry name or object;
            ``None`` is unpinned like *policy*, falling back to
            ``"makespan"``, the paper's objective).
        budget: candidate evaluations per restart (a restart's
            perturbation evaluation counts against its own budget; the
            initial order's single evaluation is charged to none).
            Budget left over when a restart exhausts its neighborhood
            early is *not* carried into later restarts.
        restarts: independent climbing passes; restart ``r`` draws its
            moves from the decorrelated stream ``seed + r * offset``
            and starts from a perturbed copy of the incumbent.
        seed: base seed of the move streams.
        max_steps: per-evaluation safety limit forwarded to the
            backend (``None`` = the backend's default).
        batch_lanes: candidate orders evaluated per batched kernel
            call.  The default ``1`` keeps the classic sequential
            hill-climb (evaluate one neighbor, accept if strictly
            better) bit-identical to earlier releases.  With
            ``batch_lanes > 1`` each iteration draws up to that many
            neighbors of the incumbent and evaluates the whole batch
            through one
            :class:`~repro.backends.batched.BatchVectorRuntime` array
            program (when the backend is ``"vector"``; other backends
            evaluate the batch lane by lane), accepting the best
            strictly-improving candidate -- a different (but equally
            deterministic) search trajectory that trades per-candidate
            acceptance sharpness for an order-of-magnitude higher
            evals/s (``benchmarks/bench_batched_evals.py`` gates the
            factor).

    On the sequential vector path (``batch_lanes == 1``, vector
    backend, vector-capable policy) candidate evaluations resume from
    :class:`~repro.core.checkpoint.KernelCheckpoint` snapshots taken
    along the incumbent's run, at the deepest completion boundary
    whose per-queue progress stays strictly inside the candidate's
    common order prefix -- neighbors differ from the incumbent by one
    move, so most of their prefix simulation is shared work.  Resumed
    evaluations are bit-identical to fresh ones (the checkpoint
    layer's contract), so the search trajectory does not change --
    only its cost.

    Attributes:
        last_stats: after each :meth:`sequence` call, a dict with the
            number of ``evaluations``, the ``initial`` and ``best``
            objective values, ``improved`` (their strict comparison),
            the move outcome counts (``accepted`` / ``rejected``
            neighborhood candidates, plus ``perturbations`` --
            restart-kickoff evaluations, charged to neither), the
            memoization figures (``cache_hits`` -- evaluations served
            from the per-call canonical-order cache -- ``prefix_hits``
            -- kernel runs resumed from a checkpoint at the longest
            common order prefix instead of simulated from ``t=0`` --
            and ``kernel_runs``, the candidate evaluations actually
            simulated, which with the prefix cache active excludes the
            per-promotion snapshot re-runs), the
            configured ``batch_lanes``, and the search throughput
            (``seconds`` wall time, ``evals_per_second``) -- the ORDER
            experiment and the benchmarks read these instead of
            re-deriving them.

    Example:
        >>> from repro.core import Instance
        >>> from repro.sequencing import get_sequencer
        >>> seq = get_sequencer("local-search", budget=40, seed=0)
        >>> inst = Instance.from_percent([[80, 20, 60], [40, 90, 10]])
        >>> better = seq.sequence(inst)
        >>> inst.same_bag(better)
        True
        >>> seq.last_stats["best"] <= seq.last_stats["initial"]
        True
    """

    name = "local-search"

    def __init__(
        self,
        *,
        policy=None,
        backend: str = "vector",
        objective=None,
        budget: int = 200,
        restarts: int = 2,
        seed: int = 0,
        max_steps: int | None = None,
        batch_lanes: int = 1,
    ) -> None:
        from ..algorithms import resolve_policy  # local: avoid import cycle
        from ..backends import get_backend
        from ..objectives import get_objective

        if budget < 1:
            raise SequencingError(f"budget must be >= 1, got {budget}")
        if restarts < 1:
            raise SequencingError(f"restarts must be >= 1, got {restarts}")
        if batch_lanes < 1:
            raise SequencingError(
                f"batch_lanes must be >= 1, got {batch_lanes}"
            )
        # None = unpinned (bind may align it with the run); remember
        # which options were explicit so bind never overrides those.
        self._policy_pinned = policy is not None
        self._objective_pinned = objective is not None
        self.policy = resolve_policy(
            policy if policy is not None else "greedy-balance"
        )
        self.backend = get_backend(backend)
        if objective is None:
            objective = "makespan"
        self.objective = (
            get_objective(objective) if isinstance(objective, str) else objective
        )
        self.budget = int(budget)
        self.restarts = int(restarts)
        self.seed = int(seed)
        self.max_steps = max_steps
        self.batch_lanes = int(batch_lanes)
        self.last_stats: dict[str, object] = {}
        # Per-sequence() evaluation cache and counters (reset each call).
        self._cache: dict[Instance, object] = {}
        self._counts: dict[str, int] = {}
        self._step_limit: int | None = None
        # Prefix-resume state: (incumbent queues, its checkpoints) and
        # the capture handoff slot of the latest promotion re-run.
        self._prefix_active = False
        self._ref: tuple[tuple, list[KernelCheckpoint]] | None = None
        self._promoted: tuple[tuple, list[KernelCheckpoint]] | None = None

    def bind(self, *, policy=None, objective=None) -> "LocalSearchSequencer":
        """Adopt the run's policy/objective for any unpinned option.

        Options given explicitly at construction always win; a bare
        ``get_sequencer("local-search")`` threaded through
        ``run_policy(inst, "round-robin", sequencer=...)`` evaluates
        its candidates under round-robin, not under the standalone
        fallback.  Returns a *bound copy* when anything is adopted
        (``self`` otherwise), so the caller's object keeps its
        unpinned standalone behavior.
        """
        from ..algorithms import resolve_policy  # local: avoid import cycle
        from ..objectives import get_objective

        adopt_policy = policy is not None and not self._policy_pinned
        adopt_objective = objective is not None and not self._objective_pinned
        if not (adopt_policy or adopt_objective):
            return self
        bound = copy.copy(self)
        bound.last_stats = {}
        if adopt_policy:
            bound.policy = resolve_policy(policy)
            bound._policy_pinned = True
        if adopt_objective:
            bound.objective = (
                get_objective(objective)
                if isinstance(objective, str)
                else objective
            )
            bound._objective_pinned = True
        return bound

    # ------------------------------------------------------------------
    # Evaluation (the hot path)
    # ------------------------------------------------------------------
    def evaluate(self, instance: Instance):
        """Objective value of running the policy on one candidate order."""
        result = self.backend.run(
            instance,
            self.policy,
            record_shares=False,
            max_steps=self.max_steps,
            objectives=(self.objective,),
        )
        return result.objective_values[self.objective.name]

    def _evaluate_cached(self, instance: Instance):
        """Memoized :meth:`evaluate` (key = the canonical order).

        :class:`~repro.core.instance.Instance` hashes and compares by
        its queue contents and release times, so an instance *is* its
        canonical order key: restarts and revisited neighbors hit the
        cache instead of re-running the kernel.  The cache lives for
        one :meth:`sequence` call.  With the prefix cache active,
        misses run through :meth:`_evaluate_prefix` (same values,
        resumed mid-run when a checkpoint of the incumbent applies).
        """
        value = self._cache.get(instance, _MISSING)
        if value is not _MISSING:
            self._counts["cache_hits"] += 1
            return value
        if self._prefix_active:
            value = self._evaluate_prefix(instance)
        else:
            value = self.evaluate(instance)
        self._counts["kernel_runs"] += 1
        self._cache[instance] = value
        return value

    # ------------------------------------------------------------------
    # Prefix-resume evaluation (checkpoints along the incumbent's run)
    # ------------------------------------------------------------------
    def _resolve_prefix_active(self) -> bool:
        """Whether this :meth:`sequence` call resumes from checkpoints.

        Only the sequential vector path can: vector backend,
        ``batch_lanes == 1`` and a vector-capable policy.
        """
        return (
            getattr(self.backend, "name", None) == "vector"
            and getattr(self.policy, "supports_vector", False)
            and self.batch_lanes == 1
        )

    @staticmethod
    def _queues_key(queues) -> tuple:
        return tuple(tuple(q) for q in queues)

    @staticmethod
    def _prefix_bounds(ref_key: tuple, cand_key: tuple) -> list | None:
        """Per-queue resume bounds of *cand_key* against *ref_key*.

        ``None`` entries mark identical queues (no constraint); an
        integer ``d`` means a checkpoint may only be resumed while the
        queue has started strictly fewer than ``d`` jobs (the common
        order prefix -- positions ``>= d`` hold different jobs).
        Returns ``None`` overall when any queue length differs: the
        policies see per-queue backlog counts (``jobs_remaining``), so
        runs over different queue shapes diverge from step 0 and no
        checkpoint transfers.
        """
        bounds: list[int | None] = []
        for rq, cq in zip(ref_key, cand_key):
            if len(rq) != len(cq):
                return None
            if rq == cq:
                bounds.append(None)
                continue
            d = 0
            for a, b in zip(rq, cq):
                if a != b:
                    break
                d += 1
            bounds.append(d)
        return bounds

    def _best_resume_point(self, cand_key: tuple) -> KernelCheckpoint | None:
        """Deepest incumbent checkpoint valid for the candidate order.

        Valid means every queue's started jobs (done plus the one in
        progress) lie strictly inside the common order prefix, so the
        captured state is exactly what the candidate's own run from
        ``t=0`` would have produced at that boundary.
        """
        if self._ref is None:
            return None
        ref_key, points = self._ref
        bounds = self._prefix_bounds(ref_key, cand_key)
        if bounds is None:
            return None
        constrained = [
            (i, d) for i, d in enumerate(bounds) if d is not None
        ]
        for point in reversed(points):
            done = point.state["done"]
            if all(done[i] < d for i, d in constrained):
                return point
        return None

    def _kernel_eval(self, candidate: Instance, *, capture: bool):
        """One direct kernel run of *candidate*, resumed if possible.

        Bit-identical to :meth:`evaluate` on the vector backend: the
        restored state is on the candidate's own trajectory (see
        :meth:`_best_resume_point`), and the checkpoint layer pins
        resume bit-identity.  With *capture* the run also snapshots
        every completion boundary (for :meth:`_promote_ref`) --
        snapshots cost :math:`O(\\text{completions})` each, so plain
        candidate evaluations skip them.
        """
        from ..backends.vector import VectorRuntime  # local: builds on core
        from ..core.simulator import default_step_limit

        cand_key = self._queues_key(candidate.queues)
        rt = VectorRuntime(candidate, tol=getattr(self.backend, "tol", 1e-9))
        objrec = ObjectiveRecorder(self.objective, candidate)
        point = self._best_resume_point(cand_key)
        if point is not None:
            rt.restore(point.state)
            payload = point.observers[0] if point.observers else None
            if payload is not None:
                objrec.restore_state(payload)
            self._counts["prefix_hits"] += 1
        observers: tuple = (objrec,)
        cap = None
        if capture:
            cap = _PrefixCapture(rt, (objrec,))
            observers = (objrec, cap)
        if self._step_limit is None:
            self._step_limit = default_step_limit(candidate)
        max_steps = (
            self.max_steps if self.max_steps is not None else self._step_limit
        )
        run_kernel(
            rt, self.policy, observers,
            max_steps=max_steps, label="sequencer candidate",
        )
        if cap is not None:
            self._promoted = (cand_key, cap.points)
        return objrec.value

    def _evaluate_prefix(self, candidate: Instance):
        """Resumable (but snapshot-free) candidate evaluation."""
        return self._kernel_eval(candidate, capture=False)

    def _promote_ref(self, candidate: Instance) -> None:
        """Make *candidate* (the new climb incumbent) the resume reference.

        Re-runs the incumbent once with completion-boundary snapshots
        enabled -- itself resumed from the outgoing reference, so the
        re-run only simulates the suffix past their common prefix.
        Promotions are rare (one per accepted move / restart kickoff)
        while rejected neighbors dominate, so paying the snapshot cost
        here instead of on every evaluation keeps the hot path lean.
        Snapshots of the old reference still on the new incumbent's
        trajectory -- started jobs strictly inside their common
        prefix, same queue lengths -- are merged in, so the suffix-only
        re-run does not lose its early restore points; the merged list
        keeps the newest :data:`_MAX_PREFIX_POINTS`.
        """
        if not self._prefix_active:
            return
        key = self._queues_key(candidate.queues)
        old = self._ref
        if old is not None and old[0] == key:
            return
        self._promoted = None
        self._kernel_eval(candidate, capture=True)
        promoted_key, points = self._promoted
        assert promoted_key == key
        if old is not None:
            bounds = self._prefix_bounds(old[0], key)
            if bounds is not None:
                constrained = [
                    (i, d) for i, d in enumerate(bounds) if d is not None
                ]
                have = {p.t for p in points}
                carried = [
                    p
                    for p in old[1]
                    if p.t not in have
                    and all(p.state["done"][i] < d for i, d in constrained)
                ]
                if carried:
                    points = sorted(carried + points, key=lambda p: p.t)
        self._ref = (key, points[-_MAX_PREFIX_POINTS:])

    def _evaluate_many(self, candidates: list[Instance]) -> list:
        """Evaluate a candidate batch, cache-aware and deduplicated.

        Cache misses run through one batched kernel call
        (:func:`repro.backends.batched.run_batch`) when the backend is
        the vector engine; other backends evaluate them one by one
        (same values, no batching).
        """
        values: list = [None] * len(candidates)
        fresh: dict[Instance, list[int]] = {}
        for idx, inst in enumerate(candidates):
            hit = self._cache.get(inst, _MISSING)
            if hit is not _MISSING:
                self._counts["cache_hits"] += 1
                values[idx] = hit
            else:
                slots = fresh.setdefault(inst, [])
                if slots:  # duplicate within this batch: one run serves both
                    self._counts["cache_hits"] += 1
                slots.append(idx)
        if fresh:
            insts = list(fresh)
            results = self._run_fresh(insts)
            self._counts["kernel_runs"] += len(insts)
            for inst, value in zip(insts, results):
                self._cache[inst] = value
                for idx in fresh[inst]:
                    values[idx] = value
        return values

    def _run_fresh(self, insts: list[Instance]) -> list:
        """Kernel-evaluate uncached orders (batched when possible)."""
        policy = self.policy
        if getattr(self.backend, "name", None) == "vector" and (
            getattr(policy, "supports_batch", False)
            or getattr(policy, "supports_vector", False)
        ):
            from ..backends.batched import run_batch  # local: builds on core

            max_steps = self.max_steps
            if max_steps is None:
                # The default step limit depends only on the job bag
                # and the release times, both invariant under the
                # neighborhood moves -- compute it once per search
                # instead of once per candidate lane (the exact
                # Fraction sums dominate short batched evaluations
                # otherwise).
                if self._step_limit is None:
                    from ..core.simulator import default_step_limit

                    self._step_limit = default_step_limit(insts[0])
                max_steps = self._step_limit
            result = run_batch(
                insts,
                policy,
                objectives=(self.objective,),
                tol=getattr(self.backend, "tol", 1e-9),
                max_steps=max_steps,
            )
            return result.objective_values[self.objective.name]
        return [self.evaluate(inst) for inst in insts]

    # ------------------------------------------------------------------
    # Neighborhood moves (queues mutated in place; moves return False
    # when the drawn move is a no-op so the caller can redraw)
    # ------------------------------------------------------------------
    @staticmethod
    def _positions(queues: list[list[Job]]) -> list[tuple[int, int]]:
        return [(i, j) for i, q in enumerate(queues) for j in range(len(q))]

    @staticmethod
    def _swap(queues: list[list[Job]], rng: random.Random) -> bool:
        """Swap the jobs at two distinct positions (possibly cross-queue)."""
        pos = LocalSearchSequencer._positions(queues)
        if len(pos) < 2:
            return False
        (i1, j1), (i2, j2) = rng.sample(pos, 2)
        if queues[i1][j1] == queues[i2][j2]:
            return False  # identical jobs: the order is unchanged
        queues[i1][j1], queues[i2][j2] = queues[i2][j2], queues[i1][j1]
        return True

    @staticmethod
    def _insert(queues: list[list[Job]], rng: random.Random) -> bool:
        """Relocate one job to another position (never emptying a queue)."""
        donors = [i for i, q in enumerate(queues) if len(q) > 1]
        if not donors:
            return False
        i1 = rng.choice(donors)
        j1 = rng.randrange(len(queues[i1]))
        job = queues[i1].pop(j1)
        i2 = rng.randrange(len(queues))
        j2 = rng.randrange(len(queues[i2]) + 1)
        queues[i2].insert(j2, job)
        return (i1, j1) != (i2, j2)

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def sequence(self, instance: Instance) -> Instance:
        """Improve *instance*'s queue orders under the evaluation triple.

        Under an installed telemetry session the search is wrapped in
        a ``sequencer.search`` span carrying the final
        :attr:`last_stats` figures; the stats themselves are always
        collected (two clock reads and a few counters per search).
        """
        from ..telemetry import get_session  # local: builds on core

        t0 = perf_counter()
        self._cache = {}
        self._step_limit = None
        self._ref = None
        self._promoted = None
        self._prefix_active = self._resolve_prefix_active()
        c = self._counts = {
            "evaluations": 0,
            "accepted": 0,
            "rejected": 0,
            "perturbations": 0,
            "cache_hits": 0,
            "prefix_hits": 0,
            "kernel_runs": 0,
        }
        best_queues = [list(q) for q in instance.queues]
        best_value = self._evaluate_cached(instance)
        self._promote_ref(instance)
        c["evaluations"] += 1
        initial_value = best_value
        for r in range(self.restarts):
            rng = random.Random(self.seed + r * _RESTART_SEED_OFFSET)
            current = [list(q) for q in best_queues]
            current_value = best_value
            spent = 0  # this restart's evaluations; never carried over
            if r > 0:
                # Perturb the incumbent so this restart explores a
                # different basin; the perturbed order is evaluated
                # like any other candidate below.
                for _ in range(len(instance.queues)):
                    self._swap(current, rng)
                candidate = instance.with_queues(current)
                current_value = self._evaluate_cached(candidate)
                self._promote_ref(candidate)
                c["evaluations"] += 1
                spent += 1
                c["perturbations"] += 1
                if current_value < best_value:
                    best_queues = [list(q) for q in current]
                    best_value = current_value
            climb = (
                self._climb_batched if self.batch_lanes > 1 else self._climb
            )
            best_queues, best_value = climb(
                instance, rng, current, current_value,
                best_queues, best_value, spent,
            )
        improved = best_value < initial_value
        result = instance.with_queues(best_queues) if improved else instance
        if not instance.same_bag(result):  # pragma: no cover - invariant
            raise SequencingError(
                "local search corrupted the job bag (internal error)"
            )
        self._cache = {}  # orders die with the call; keep no references
        self._ref = None
        self._promoted = None
        seconds = perf_counter() - t0
        evaluations = c["evaluations"]
        self.last_stats = {
            "evaluations": evaluations,
            "initial": initial_value,
            "best": best_value,
            "improved": improved,
            "accepted": c["accepted"],
            "rejected": c["rejected"],
            "perturbations": c["perturbations"],
            "cache_hits": c["cache_hits"],
            "prefix_hits": c["prefix_hits"],
            "kernel_runs": c["kernel_runs"],
            "batch_lanes": self.batch_lanes,
            "seconds": seconds,
            "evals_per_second": evaluations / seconds if seconds > 0 else None,
        }
        session = get_session()
        if session is not None:
            session.metrics.counter("sequencer.evaluations").inc(evaluations)
            session.metrics.counter("sequencer.accepted").inc(c["accepted"])
            session.metrics.counter("sequencer.rejected").inc(c["rejected"])
            session.metrics.counter("sequencer.cache_hits").inc(
                c["cache_hits"]
            )
            session.metrics.counter("sequencer.prefix_hits").inc(
                c["prefix_hits"]
            )
            session.tracer.complete(
                "sequencer.search",
                t0,
                seconds,
                sequencer=self.name,
                policy=str(getattr(self.policy, "name", "?")),
                objective=self.objective.name,
                budget=self.budget,
                restarts=self.restarts,
                evaluations=evaluations,
                accepted=c["accepted"],
                rejected=c["rejected"],
                cache_hits=c["cache_hits"],
                prefix_hits=c["prefix_hits"],
                kernel_runs=c["kernel_runs"],
                batch_lanes=self.batch_lanes,
                improved=improved,
            )
        return result

    def _climb(
        self, instance, rng, current, current_value,
        best_queues, best_value, spent,
    ):
        """One restart's sequential hill-climb (``batch_lanes == 1``).

        The classic loop: draw one move, evaluate, accept iff strictly
        better.  Bit-identical move stream and acceptance decisions to
        earlier releases (only the memoization cache is new, and values
        are deterministic, so cached hits cannot change the
        trajectory).
        """
        c = self._counts
        misdraws = 0
        while spent < self.budget:
            trial = [list(q) for q in current]
            move = rng.choice((self._swap, self._insert))
            if not move(trial, rng):
                # Degenerate instances (one single-job queue) have
                # no non-trivial neighborhood; stop redrawing after
                # a burst of no-op moves instead of spinning.
                misdraws += 1
                if misdraws >= 32:
                    break
                continue
            misdraws = 0
            candidate = instance.with_queues(trial)
            value = self._evaluate_cached(candidate)
            c["evaluations"] += 1
            spent += 1
            if value < current_value:
                c["accepted"] += 1
                current = trial
                current_value = value
                self._promote_ref(candidate)
                if value < best_value:
                    best_queues = [list(q) for q in trial]
                    best_value = value
            else:
                c["rejected"] += 1
        return best_queues, best_value

    def _climb_batched(
        self, instance, rng, current, current_value,
        best_queues, best_value, spent,
    ):
        """One restart's batched hill-climb (``batch_lanes > 1``).

        Each iteration draws up to ``batch_lanes`` neighbors of the
        incumbent from the same seeded move stream, evaluates the
        whole batch through one batched kernel call
        (:meth:`_evaluate_many`), and moves to the best candidate iff
        it strictly improves the incumbent (first index wins ties, so
        the trajectory is deterministic).
        """
        c = self._counts
        misdraws = 0
        while spent < self.budget:
            lanes = min(self.batch_lanes, self.budget - spent)
            trials: list[list[list[Job]]] = []
            while len(trials) < lanes:
                trial = [list(q) for q in current]
                move = rng.choice((self._swap, self._insert))
                if not move(trial, rng):
                    misdraws += 1
                    if misdraws >= 32:
                        break
                    continue
                misdraws = 0
                trials.append(trial)
            if not trials:
                break
            candidates = [instance.with_queues(t) for t in trials]
            values = self._evaluate_many(candidates)
            c["evaluations"] += len(candidates)
            spent += len(candidates)
            best_i = min(range(len(values)), key=values.__getitem__)
            if values[best_i] < current_value:
                c["accepted"] += 1
                c["rejected"] += len(candidates) - 1
                current = trials[best_i]
                current_value = values[best_i]
                if current_value < best_value:
                    best_queues = [list(q) for q in trials[best_i]]
                    best_value = current_value
            else:
                c["rejected"] += len(candidates)
            if misdraws >= 32:
                break
        return best_queues, best_value
