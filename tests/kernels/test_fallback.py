"""Numba-optionality tests: the tier degrades (and upgrades) cleanly.

The import guard lives in exactly one module
(:mod:`repro.kernels._numba`); these tests mask numba out with a
``sys.modules`` stub (and inject a fake one) and reload that module to
verify both sides of the guard without requiring a numba install
either way.  Dispatch-level fallback behavior (reasons, telemetry) is
covered by patching the flag :func:`repro.kernels.decide` reads.
"""

import importlib
import sys
import types

import pytest

import repro.kernels._numba as numba_guard
from repro.generators import uniform_instance


@pytest.fixture
def reload_guard():
    """Reload the guard module around a sys.modules manipulation."""
    sentinel = object()
    original = sys.modules.get("numba", sentinel)

    def _reload():
        return importlib.reload(numba_guard)

    yield _reload
    if original is sentinel:
        sys.modules.pop("numba", None)
    else:
        sys.modules["numba"] = original
    importlib.reload(numba_guard)


def test_masked_numba_degrades_to_noop(reload_guard):
    """With numba masked, njit is the identity and the flag is False."""
    sys.modules["numba"] = None  # import numba -> ImportError
    module = reload_guard()
    assert module.NUMBA_AVAILABLE is False
    assert module.numba_version() is None

    def f(x):
        return x + 1

    assert module.njit(f) is f  # bare form
    assert module.njit(cache=False)(f) is f  # parameterized form
    assert module.njit(f)(2) == 3


def test_stub_numba_enables_the_tier(reload_guard):
    """A numba module in sys.modules flips the guard on."""
    calls = []
    stub = types.ModuleType("numba")
    stub.__version__ = "9.99-stub"

    def njit(*args, **kwargs):
        calls.append(kwargs)
        return lambda func: func

    stub.njit = njit
    sys.modules["numba"] = stub
    module = reload_guard()
    assert module.NUMBA_AVAILABLE is True
    assert module.numba_version() == "9.99-stub"

    def f(x):
        return x * 2

    assert module.njit(f)(3) == 6
    assert calls and calls[-1].get("cache") is True  # cached by default
    module.njit(cache=False)(f)
    assert calls[-1].get("cache") is False  # overridable


def test_kernels_import_without_numba(reload_guard):
    """The whole package imports and runs with numba masked out."""
    sys.modules["numba"] = None
    reload_guard()
    import numpy as np

    from repro.kernels import fill_single

    shares = fill_single(
        np.array([0.5, 0.5]),
        np.array([0.6, 0.6]),
        np.array([True, True]),
        np.array([0, 1], dtype=np.int64),
    )
    assert shares.sum() <= 1.0 + 1e-12


class TestDispatchFallback:
    """decide()/note_fallback behavior around missing eligibility."""

    def test_without_numba_falls_back(self, numba_available):
        from repro.algorithms import get_policy
        from repro.kernels import decide

        numba_available(False)
        decision = decide(get_policy("greedy-balance"))
        assert decision.code is None
        assert decision.reason == "numba-missing"

    def test_with_numba_compiles(self, numba_available):
        from repro.algorithms import get_policy
        from repro.kernels import decide

        numba_available(True)
        decision = decide(get_policy("greedy-balance"))
        assert decision.code is not None

    def test_unknown_policy_reason(self, numba_available):
        from repro.kernels import decide

        class NotRegistered:
            name = "custom"

        for available in (False, True):
            numba_available(available)
            decision = decide(NotRegistered())
            assert decision.code is None and decision.reason == "policy"

    def test_subclass_never_inherits_the_code(self):
        from repro.algorithms.greedy_balance import GreedyBalance
        from repro.kernels import compiled_policy_code

        class Tweaked(GreedyBalance):
            """A subclass that may override the share rule."""

        assert compiled_policy_code(GreedyBalance()) is not None
        assert compiled_policy_code(Tweaked()) is None

    def test_record_shares_reason(self, numba_available):
        from repro.algorithms import get_policy
        from repro.kernels import decide

        for available in (False, True):
            numba_available(available)
            decision = decide(get_policy("greedy-balance"), record_shares=True)
            assert decision.code is None
            assert decision.reason == "record-shares"


class TestBackendFallbackTelemetry:
    """Fallbacks surface in the compiled.fallbacks counter."""

    def test_fallback_counter(self, numba_available):
        from repro.backends import VectorBackend
        from repro.telemetry import TelemetrySession, use_session

        numba_available(False)
        inst = uniform_instance(2, 3, seed=0)
        session = TelemetrySession()
        with use_session(session):
            VectorBackend().run(inst, "greedy-balance", record_shares=False)
        samples = {
            tuple(sorted(labels.items())): metric.value
            for name, labels, metric in session.metrics.items()
            if name == "compiled.fallbacks"
        }
        assert samples.get((("reason", "numba-missing"),)) == 1

    def test_fused_run_emits_compiled_counters(self, numba_available):
        from repro.backends import VectorBackend
        from repro.telemetry import TelemetrySession, use_session

        numba_available(True)
        inst = uniform_instance(2, 3, seed=0)
        session = TelemetrySession()
        with use_session(session):
            result = VectorBackend().run(
                inst, "greedy-balance", record_shares=False
            )
        counters = {
            name: metric.value
            for name, labels, metric in session.metrics.items()
            if name in ("compiled.runs", "compiled.steps")
        }
        assert counters.get("compiled.runs") == 1
        assert counters.get("compiled.steps") == result.makespan


class TestNoPathSelectors:
    """No entry point accepts a switch that picks an execution path."""

    REMOVED = {"compiled", "prefix_cache", "compact_threshold"}

    @staticmethod
    def _entry_points():
        from repro.backends import BatchRunner, VectorBackend, cross_validate
        from repro.backends.batched import BatchVectorRuntime, run_batch
        from repro.core.simulator import run_policy
        from repro.sequencing import LocalSearchSequencer

        return {
            "run_policy": run_policy,
            "VectorBackend": VectorBackend.__init__,
            "VectorBackend.run": VectorBackend.run,
            "BatchVectorRuntime": BatchVectorRuntime.__init__,
            "run_batch": run_batch,
            "BatchRunner": BatchRunner.__init__,
            "cross_validate": cross_validate,
            "LocalSearchSequencer": LocalSearchSequencer.__init__,
        }

    @pytest.mark.parametrize(
        "name",
        [
            "run_policy",
            "VectorBackend",
            "VectorBackend.run",
            "BatchVectorRuntime",
            "run_batch",
            "BatchRunner",
            "cross_validate",
            "LocalSearchSequencer",
        ],
    )
    def test_signature_has_no_selector(self, name):
        import inspect

        params = inspect.signature(self._entry_points()[name]).parameters
        assert not self.REMOVED & set(params), name
