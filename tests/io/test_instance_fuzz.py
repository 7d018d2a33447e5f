"""Fuzz ``instance_from_dict`` with mutated valid documents.

Each example builds a valid version 1, 2 or 3 instance document, then
replaces, deletes or inserts one node anywhere in its JSON tree.  The
decoder must either return an :class:`Instance` or raise a typed
:class:`ReproError` -- never a bare ``AttributeError``,
``ZeroDivisionError``, ``OverflowError`` or ``KeyError``.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job
from repro.exceptions import ReproError
from repro.io import instance_from_dict, instance_to_dict

RATIONALS = st.sampled_from(["1/2", "1/3", "3/4", 1, "2/5"])

#: Replacement values: plausible numbers and strings, the values JSON
#: parses ``Infinity`` / ``NaN`` / ``1e999`` into, and wrong shapes.
JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 10**20),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["1/0", "-1/2", "abc", "", "0", "1e3", "crsharing-instance"]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["r", "p", "w", "d", "x"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def documents(draw):
    """A valid v1 (plain), v2 (k > 1) or v3 (weights/deadlines) document."""
    k = draw(st.sampled_from([1, 1, 2]))
    annotated = draw(st.booleans())
    queues = []
    for _ in range(draw(st.integers(1, 3))):
        queue = []
        for _ in range(draw(st.integers(1, 3))):
            reqs = [draw(RATIONALS) for _ in range(k)]
            queue.append(
                Job(
                    reqs if k > 1 else reqs[0],
                    draw(st.sampled_from([1, 2, "3/2"])),
                    weight=draw(st.sampled_from([1, 2, "2/3"])) if annotated else 1,
                    deadline=draw(st.sampled_from([None, 1, 4])) if annotated else None,
                )
            )
        queues.append(queue)
    releases = draw(st.lists(st.integers(0, 3), min_size=len(queues), max_size=len(queues)))
    return instance_to_dict(Instance(queues, releases=releases))


def _nodes(doc, path=()):
    """Every (container path, key) pair in a JSON tree."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _nodes(child, path + (key,))


def _container(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(documents()))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        path, key = draw(st.sampled_from(nodes))
        parent = _container(doc, path)
        action = draw(st.sampled_from(["replace", "replace", "delete", "insert"]))
        if action == "replace":
            parent[key] = draw(JUNK)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["r", "p", "w", "d", "releases", "resources"]))] = draw(JUNK)
        else:
            parent.insert(key, draw(JUNK))
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_documents())
def test_mutated_documents_decode_or_fail_typed(doc):
    try:
        instance = instance_from_dict(doc)
    except ReproError:
        return
    assert isinstance(instance, Instance)


@settings(max_examples=50, deadline=None)
@given(doc=documents())
def test_unmutated_documents_round_trip(doc):
    assert instance_to_dict(instance_from_dict(doc)) == doc


@settings(max_examples=50, deadline=None)
@given(top=JUNK)
def test_any_top_level_value_fails_typed(top):
    try:
        instance_from_dict(top)
    except ReproError:
        return
    raise AssertionError(f"{top!r} decoded as an instance")
