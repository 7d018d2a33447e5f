"""Fuzz checkpoint restore with mutated, re-signed state payloads.

Each example suspends a small exact or vector run, then replaces,
deletes or inserts nodes anywhere in the checkpoint's *state* payload
and signs the document again, so the digest check passes and the
payload reaches the runtime's ``restore``.  Restoring must either
succeed or raise :class:`CheckpointError`; a restored runtime is then
run to the end, where the only failures allowed are the kernel's own
typed errors.  Every failure is a :class:`ReproError` -- never a bare
``ValueError``, ``TypeError``, ``OverflowError`` or
``ZeroDivisionError``.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import get_policy
from repro.backends.vector import VectorRuntime
from repro.core import (
    ExactRuntime,
    Instance,
    Job,
    KernelCheckpoint,
    checkpoint_run,
    restore_runtime,
    run_kernel,
)
from repro.exceptions import CheckpointError, ReproError

RATIONALS = st.sampled_from(["1/2", "1/3", "3/4", "1/10", "2/5"])

#: Replacement values: plausible counters and work amounts, the values
#: JSON parses ``Infinity`` / ``NaN`` / ``1e999`` into, and wrong shapes.
JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 10**20),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["1/0", "-1/2", "abc", "", "0", "1/3", "1e3"]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["t", "done", "tol", "x"]), inner, max_size=3),
    max_leaves=6,
)

STATE_KEYS = ["t", "done", "remaining", "resource_spent", "released", "started", "tol"]


@st.composite
def checkpoints(draw):
    """A run of a small instance suspended after a few steps."""
    k = draw(st.sampled_from([1, 1, 2]))
    queues = []
    for _ in range(draw(st.integers(1, 3))):
        queues.append(
            [
                Job(
                    [draw(RATIONALS) for _ in range(k)] if k > 1 else draw(RATIONALS),
                    draw(st.sampled_from([1, 2])),
                    weight=draw(st.sampled_from([1, 2])),
                    deadline=draw(st.sampled_from([None, 2])),
                )
                for _ in range(draw(st.integers(1, 3)))
            ]
        )
    releases = draw(st.lists(st.integers(0, 2), min_size=len(queues), max_size=len(queues)))
    instance = Instance(queues, releases=releases)
    kind = draw(st.sampled_from(["exact", "vector"]))
    runtime = ExactRuntime(instance) if kind == "exact" else VectorRuntime(instance)
    steps = draw(st.integers(0, 3))
    run_kernel(runtime, get_policy("greedy-balance"), stop=lambda r: r.t >= steps)
    return checkpoint_run(runtime)


def _nodes(doc, path=()):
    """Every (container path, key) pair in a JSON tree."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, child in items:
        yield path, key
        if isinstance(child, (dict, list)):
            yield from _nodes(child, path + (key,))


def _container(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_checkpoints(draw):
    """A checkpoint whose state payload was edited, with a valid digest."""
    ckpt = draw(checkpoints())
    state = copy.deepcopy(ckpt.state)
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(state))
        if not nodes:
            break
        path, key = draw(st.sampled_from(nodes))
        parent = _container(state, path)
        action = draw(st.sampled_from(["replace", "replace", "delete", "insert"]))
        if action == "replace":
            parent[key] = draw(JUNK)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(STATE_KEYS))] = draw(JUNK)
        else:
            parent.insert(key, draw(JUNK))
    edited = KernelCheckpoint(ckpt.kind, ckpt.instance, state)
    return edited.to_json()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=mutated_checkpoints())
def test_mutated_state_restores_or_fails_typed(document):
    try:
        runtime = restore_runtime(KernelCheckpoint.from_json(document))
    except CheckpointError:
        return
    try:
        run_kernel(runtime, get_policy("greedy-balance"))
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(ckpt=checkpoints())
def test_unmutated_checkpoints_resume(ckpt):
    runtime = restore_runtime(KernelCheckpoint.from_json(ckpt.to_json()))
    assert run_kernel(runtime, get_policy("greedy-balance")) >= ckpt.t
