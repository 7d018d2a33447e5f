"""Golden pinning: the per-step vector path is the untouched engine.

The compiled tier must be strictly additive: on the per-step path the
vector backend reproduces the pre-tier golden makespans
(``tests/data/golden_schedules.json``), and a run that needs per-step
share rows (``record_shares=True``) never takes the fused driver, even
with numba available, so its share rows are bit-identical to a run
without numba.
"""

import json

import numpy as np
import pytest

from repro.algorithms import get_policy
from repro.backends import VectorBackend

from ..data.make_golden import CASES, GOLDEN_PATH

GOLDEN = json.loads(GOLDEN_PATH.read_text())
_BUILDERS = dict(CASES)


@pytest.mark.parametrize(
    "entry",
    GOLDEN["entries"],
    ids=lambda e: f"{e['case']}-{e['policy']}",
)
def test_per_step_path_reproduces_golden_makespans(entry, numba_available):
    numba_available(False)
    instance = _BUILDERS[entry["case"]]()
    result = VectorBackend().run(
        instance, get_policy(entry["policy"]), record_shares=False
    )
    assert result.makespan == entry["vector_makespan"]


@pytest.mark.parametrize(
    "entry",
    GOLDEN["entries"],
    ids=lambda e: f"{e['case']}-{e['policy']}",
)
def test_share_recording_never_fuses(entry, numba_available):
    instance = _BUILDERS[entry["case"]]()
    policy = get_policy(entry["policy"])
    backend = VectorBackend()
    numba_available(True)
    with_numba = backend.run(instance, policy, record_shares=True)
    numba_available(False)
    without = backend.run(instance, policy, record_shares=True)
    assert with_numba.shares is not None
    assert with_numba.makespan == without.makespan
    assert np.array_equal(np.asarray(with_numba.shares), np.asarray(without.shares))
