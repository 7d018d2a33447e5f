"""Round-trip tests for the kernel checkpoint layer.

The contract under test: suspending a run at any step boundary,
serializing the :class:`~repro.core.checkpoint.KernelCheckpoint` to
JSON, restoring it into a fresh runtime, and continuing must be
**bit-identical** to the uninterrupted run -- same makespan, same
completion steps, same objective value, same recorded shares -- on
both the exact and the vector backend, across every registered policy,
multiple resources, arrivals, weights, and deadlines.  Corrupted or
version-skewed documents must raise the typed ``CheckpointError``.
"""

import json
import random
from fractions import Fraction

import pytest

from repro.algorithms import available_policies, get_policy
from repro.backends.vector import VectorRuntime
from repro.core import (
    CompletionRecorder,
    ExactRuntime,
    Instance,
    Job,
    KernelCheckpoint,
    ObjectiveRecorder,
    ShareRecorder,
    StepObserver,
    checkpoint_run,
    restore_runtime,
    run_kernel,
)
from repro.exceptions import CheckpointError
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_weights,
)
from repro.objectives import get_objective

BACKENDS = ("exact", "vector")


def _runtime(kind: str, instance: Instance):
    return ExactRuntime(instance) if kind == "exact" else VectorRuntime(instance)


def _observers(instance: Instance):
    return [
        CompletionRecorder(),
        ObjectiveRecorder(get_objective("weighted-flow"), instance),
    ]


def _full_run(instance, policy, kind):
    obs = _observers(instance)
    makespan = run_kernel(_runtime(kind, instance), policy, obs)
    return makespan, obs[0].completion_steps, obs[1].value


def _resumed_run(instance, policy, kind, cut, *, via_json=True):
    """Run to step *cut*, checkpoint, (de)serialize, resume to the end."""
    obs = _observers(instance)
    rt = _runtime(kind, instance)
    suspended = run_kernel(
        rt, policy, obs, stop=lambda r: r.t >= cut
    )
    ckpt = checkpoint_run(rt, obs)
    if via_json:
        ckpt = KernelCheckpoint.from_json(ckpt.to_json())
    fresh = _observers(instance)
    rt2 = restore_runtime(ckpt, observers=fresh)
    makespan = run_kernel(rt2, policy, fresh)
    if suspended is not None:
        # the stop predicate never fired: the run had already finished
        assert makespan == suspended
    return makespan, fresh[0].completion_steps, fresh[1].value


@pytest.fixture(scope="module")
def annotated_instance() -> Instance:
    """Arrivals + skewed weights + mixed deadlines on one instance."""
    inst = uniform_instance(3, 4, seed=7)
    inst = with_arrivals(inst, max_release=3, seed=11)
    inst = with_weights(inst, profile="skewed", seed=13)
    return with_deadlines(inst, profile="mixed", seed=17)


class TestRoundTripAllPolicies:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("policy_name", available_policies())
    def test_resume_matches_uninterrupted(
        self, annotated_instance, policy_name, kind
    ):
        policy = get_policy(policy_name)
        expected = _full_run(annotated_instance, policy, kind)
        got = _resumed_run(annotated_instance, policy, kind, cut=2)
        assert got == expected

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_every_cut_point(self, annotated_instance, kind):
        """Suspending at *any* boundary resumes bit-identically."""
        policy = get_policy("greedy-balance")
        expected = _full_run(annotated_instance, policy, kind)
        makespan = expected[0]
        for cut in range(1, makespan + 2):
            assert _resumed_run(annotated_instance, policy, kind, cut) == expected


class TestRoundTripMultiResource:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "policy_name", ["greedy-balance", "proportional-share"]
    )
    def test_resume_matches(self, k, policy_name, kind):
        inst = multi_resource_instance(3, 3, k, seed=5)
        policy = get_policy(policy_name)
        expected = _full_run(inst, policy, kind)
        assert _resumed_run(inst, policy, kind, cut=1) == expected


class TestShareRows:
    """ShareRecorder is deliberately stateless: a resumed run records
    exactly the suffix rows of the uninterrupted run."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_suffix_rows(self, annotated_instance, kind):
        policy = get_policy("round-robin")
        full = ShareRecorder()
        run_kernel(_runtime(kind, annotated_instance), policy, [full])
        cut = 2
        rt = _runtime(kind, annotated_instance)
        run_kernel(rt, policy, stop=lambda r: r.t >= cut)
        ckpt = KernelCheckpoint.from_json(checkpoint_run(rt).to_json())
        suffix = ShareRecorder()
        run_kernel(restore_runtime(ckpt), policy, [suffix])
        assert [list(r) for r in suffix.shares] == [
            list(r) for r in full.shares[cut:]
        ]


class TestSerializationExactness:
    def test_exact_state_survives_json(self):
        inst = Instance.from_requirements([["1/3", "1/7"], ["2/3", "5/7"]])
        rt = ExactRuntime(inst)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        back = KernelCheckpoint.from_json(ckpt.to_json())
        assert back.state == ckpt.state
        assert back.instance == inst
        assert back.kind == "exact"
        assert back.t == 1

    def test_vector_floats_survive_json(self, annotated_instance):
        rt = VectorRuntime(annotated_instance, tol=1e-9)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 2)
        ckpt = checkpoint_run(rt)
        back = KernelCheckpoint.from_json(ckpt.to_json())
        assert back.state == ckpt.state  # repr round-trip is exact
        rt2 = restore_runtime(back)
        assert rt2.tol == rt.tol
        assert rt2.state.remaining.tolist() == rt.state.remaining.tolist()

    def test_finished_run_checkpoints(self, annotated_instance):
        rt = ExactRuntime(annotated_instance)
        makespan = run_kernel(rt, get_policy("greedy-balance"))
        ckpt = checkpoint_run(rt)
        assert ckpt.t == makespan
        # resuming a finished run terminates immediately at the same step
        assert run_kernel(restore_runtime(ckpt), get_policy("greedy-balance")) == makespan


class TestCorruption:
    @pytest.fixture()
    def document(self, annotated_instance) -> dict:
        rt = ExactRuntime(annotated_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 2)
        return checkpoint_run(rt).to_dict()

    def test_tampered_state_digest_mismatch(self, document):
        document["state"]["t"] = 99
        with pytest.raises(CheckpointError, match="digest"):
            KernelCheckpoint.from_dict(document)

    def test_tampered_instance_digest_mismatch(self, document):
        document["instance"]["releases"][0] += 1
        with pytest.raises(CheckpointError, match="digest"):
            KernelCheckpoint.from_dict(document)

    def test_version_skew(self, document):
        document["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            KernelCheckpoint.from_dict(document)

    def test_wrong_format_tag(self, document):
        document["format"] = "something-else"
        with pytest.raises(CheckpointError, match="not a kernel checkpoint"):
            KernelCheckpoint.from_dict(document)

    def test_unknown_kind_rejected(self, document):
        document["kind"] = "quantum"
        document["digest"] = None
        # recompute a valid digest so the kind check itself is exercised
        doc = KernelCheckpoint(
            kind="exact",
            instance=Instance.from_percent([[50]]),
            state={"t": 0},
        ).to_dict()
        doc["kind"] = "quantum"
        import hashlib

        trimmed = {k: v for k, v in doc.items() if k != "digest"}
        doc["digest"] = hashlib.sha256(
            json.dumps(trimmed, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        with pytest.raises(CheckpointError, match="kind"):
            KernelCheckpoint.from_dict(doc)

    def test_unparseable_json(self):
        with pytest.raises(CheckpointError, match="unparseable"):
            KernelCheckpoint.from_json("{not json")

    def test_non_dict_document(self):
        with pytest.raises(CheckpointError, match="must be a dict"):
            KernelCheckpoint.from_dict([1, 2, 3])

    def test_malformed_state_payload_on_restore(self, document):
        ckpt = KernelCheckpoint.from_dict(document)
        bad = KernelCheckpoint(
            kind=ckpt.kind,
            instance=ckpt.instance,
            state={**ckpt.state, "done": [99] * 3},
            observers=ckpt.observers,
        )
        with pytest.raises(CheckpointError):
            restore_runtime(bad)


def _resigned(ckpt: KernelCheckpoint, **changes) -> KernelCheckpoint:
    """*ckpt* with its state payload edited and a valid digest again."""
    edited = KernelCheckpoint(
        kind=ckpt.kind,
        instance=ckpt.instance,
        state={**ckpt.state, **changes},
        observers=ckpt.observers,
    )
    return KernelCheckpoint.from_json(edited.to_json())


class TestRestoreRejectsMalformedState:
    """Digest-valid but ill-typed payloads raise CheckpointError."""

    @pytest.fixture(params=BACKENDS)
    def checkpoint(self, request, annotated_instance) -> KernelCheckpoint:
        rt = _runtime(request.param, annotated_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 2)
        return checkpoint_run(rt)

    def test_fractional_step_counter(self, checkpoint):
        with pytest.raises(CheckpointError, match="malformed"):
            restore_runtime(_resigned(checkpoint, t=1.5))

    def test_fractional_done_count(self, checkpoint):
        done = [*checkpoint.state["done"]]
        done[0] = 0.5
        with pytest.raises(CheckpointError, match="malformed"):
            restore_runtime(_resigned(checkpoint, done=done))

    def test_nan_remaining_work(self, checkpoint):
        remaining = [*checkpoint.state["remaining"]]
        remaining[0] = float("nan")
        with pytest.raises(CheckpointError):
            restore_runtime(_resigned(checkpoint, remaining=remaining))

    @pytest.mark.parametrize("tol", ["abc", 0, -1.0, float("nan"), float("inf"), True])
    def test_bad_vector_tolerance(self, annotated_instance, tol):
        rt = VectorRuntime(annotated_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 2)
        with pytest.raises(CheckpointError, match="tolerance"):
            restore_runtime(_resigned(checkpoint_run(rt), tol=tol))


class TestObserverRestore:
    def test_observer_count_mismatch(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt, [CompletionRecorder()])
        with pytest.raises(CheckpointError, match="observer"):
            restore_runtime(
                ckpt, observers=[CompletionRecorder(), CompletionRecorder()]
            )

    def test_stateless_observer_with_state_payload(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt, [CompletionRecorder()])
        # pretend the captured CompletionRecorder state belongs to a
        # ShareRecorder: stateless observers must reject foreign state
        with pytest.raises(CheckpointError, match="stateless"):
            restore_runtime(ckpt, observers=[ShareRecorder()])

    def test_resume_without_observers_is_legal(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt, [CompletionRecorder()])
        assert run_kernel(
            restore_runtime(ckpt), get_policy("greedy-balance")
        ) is not None


class TestExtension:
    """Restoring into a grown instance: the service-layer primitive."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_tail_append_and_new_queue(self, kind):
        small = Instance.from_percent([[50, 30], [40, 60]])
        policy = get_policy("greedy-balance")
        rt = _runtime(kind, small)
        run_kernel(rt, policy, stop=lambda r: r.t >= 1)
        ckpt = KernelCheckpoint.from_json(checkpoint_run(rt).to_json())
        big = Instance.from_percent(
            [[50, 30, 20], [40, 60], [70]]
        ).with_releases([0, 0, 2])
        rt2 = restore_runtime(ckpt, instance=big)
        makespan = run_kernel(rt2, policy)
        assert makespan is not None and makespan >= 2

    def test_prefix_mutation_rejected(self):
        small = Instance.from_percent([[50, 30], [40, 60]])
        rt = ExactRuntime(small)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        mutated = Instance.from_percent([[55, 30], [40, 60]])
        with pytest.raises(CheckpointError, match="prefix"):
            restore_runtime(ckpt, instance=mutated)

    def test_release_change_rejected(self):
        small = Instance.from_percent([[50, 30], [40, 60]])
        rt = ExactRuntime(small)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        shifted = small.with_releases([0, 3])
        with pytest.raises(CheckpointError, match="release"):
            restore_runtime(ckpt, instance=shifted)

    def test_dropped_processor_rejected(self):
        small = Instance.from_percent([[50, 30], [40, 60]])
        rt = ExactRuntime(small)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        narrow = Instance.from_percent([[50, 30]])
        with pytest.raises(CheckpointError, match="processors"):
            restore_runtime(ckpt, instance=narrow)


class WorkLedger(StepObserver):
    """Sums the work each job processed, from its first step to completion."""

    def __init__(self) -> None:
        self.pending: dict[int, object] = {}
        self.received: dict[tuple[int, int], object] = {}

    def on_step(self, event) -> None:
        for i, work in enumerate(event.processed):
            self.pending[i] = self.pending.get(i, 0) + work

    def on_complete(self, job, t) -> None:
        self.received[job] = self.pending.pop(job[0], 0)


class TestDrainedQueueExtension:
    """A job appended to a queue that already drained runs its full work."""

    APPENDED = Job("3/10", 2)  # work 3/5: at least two steps

    def _drained(self, kind):
        small = Instance.from_percent([[10], [50, 50, 50]])
        rt = _runtime(kind, small)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        assert rt.capture()["done"][0] == 1  # queue 0 has drained
        return rt, small.appended(0, self.APPENDED)

    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("via", ("restore", "extend"))
    def test_appended_job_processes_its_full_work(self, kind, via):
        rt, grown = self._drained(kind)
        if via == "restore":
            ckpt = KernelCheckpoint.from_json(checkpoint_run(rt).to_json())
            rt = restore_runtime(ckpt, instance=grown)
        else:
            rt.extend(grown)
        ledger, completions = WorkLedger(), CompletionRecorder()
        run_kernel(rt, get_policy("greedy-balance"), [ledger, completions])
        assert float(ledger.received[(0, 1)]) == pytest.approx(
            float(self.APPENDED.work), abs=1e-9
        )
        assert completions.completion_steps[(0, 1)] >= 2

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_restore_and_extend_agree(self, kind):
        rt, grown = self._drained(kind)
        restored = restore_runtime(checkpoint_run(rt), instance=grown)
        rt.extend(grown)
        assert rt.capture() == restored.capture()


class TestLiveExtension:
    """``KernelRuntime.extend``: in-place growth of a suspended run."""

    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_extend_matches_restore_over_many_appends(self, kind, k):
        # ~20 appends per queue also grow the vector tables repeatedly.
        rng = random.Random(3)
        policy = get_policy("greedy-balance")

        def job():
            reqs = [Fraction(rng.randint(1, 100), 100) for _ in range(k)]
            return Job(reqs if k > 1 else reqs[0])

        inst = Instance([[job()], [job()]])
        live, restored = _runtime(kind, inst), _runtime(kind, inst)
        recorders = (CompletionRecorder(), CompletionRecorder())
        for step in range(1, 40):
            for rt, rec in zip((live, restored), recorders):
                if run_kernel(rt, policy, [rec], stop=lambda r: r.t >= step):
                    rt.idle_until(step)
            inst = inst.appended(rng.randrange(2), job())
            live.extend(inst)
            restored = restore_runtime(checkpoint_run(restored), instance=inst)
            assert live.capture() == restored.capture()
        makespans = [
            run_kernel(rt, policy, [rec])
            for rt, rec in zip((live, restored), recorders)
        ]
        assert makespans[0] == makespans[1]
        assert recorders[0].completion_steps == recorders[1].completion_steps
        assert len(recorders[0].completion_steps) == inst.total_jobs

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_new_processor_rejected(self, kind):
        small = Instance.from_percent([[50, 30], [40, 60]])
        rt = _runtime(kind, small)
        with pytest.raises(CheckpointError, match="restore_runtime"):
            rt.extend(small.appended(2, Job("1/2")))

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_rewritten_prefix_rejected(self, kind):
        rt = _runtime(kind, Instance.from_percent([[50, 30], [40, 60]]))
        with pytest.raises(CheckpointError, match="prefix"):
            rt.extend(Instance.from_percent([[55, 30, 10], [40, 60]]))


class TestIdleUntil:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_moves_the_clock_of_a_drained_run(self, kind, two_proc_instance):
        rt = _runtime(kind, two_proc_instance)
        makespan = run_kernel(rt, get_policy("greedy-balance"))
        rt.idle_until(makespan + 7)
        assert rt.t == makespan + 7

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_skips_to_a_release(self, kind):
        rt = _runtime(kind, Instance([["1/2"]], releases=[5]))
        rt.idle_until(5)
        assert rt.t == 5
        with pytest.raises(CheckpointError, match="idle"):
            rt.idle_until(6)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_busy_gap_rejected(self, kind, two_proc_instance):
        rt = _runtime(kind, two_proc_instance)
        with pytest.raises(CheckpointError, match="idle"):
            rt.idle_until(3)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_backwards_rejected(self, kind, two_proc_instance):
        rt = _runtime(kind, two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"))
        with pytest.raises(CheckpointError, match="backwards"):
            rt.idle_until(rt.t - 1)


class TestUnsupportedRuntime:
    def test_checkpoint_run_rejects_foreign_runtime(self):
        class Foreign:
            instance = None

        with pytest.raises(CheckpointError, match="does not support"):
            checkpoint_run(Foreign())
