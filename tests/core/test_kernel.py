"""Unit tests for the unified stepping kernel and its observers."""

from fractions import Fraction

import pytest

from repro.algorithms import GreedyBalance
from repro.backends import ExactBackend, VectorBackend, get_backend
from repro.backends.base import Backend, BackendResult
from repro.core import (
    CompletionRecorder,
    ExactRuntime,
    Instance,
    ShareRecorder,
    StepObserver,
    run_kernel,
    simulate,
)
from repro.exceptions import (
    BackendError,
    InfeasibleAssignmentError,
    SimulationLimitError,
)
from repro.generators import Phase, TaskSpec


class RecordingObserver(StepObserver):
    """Logs the callback sequence for ordering assertions."""

    def __init__(self):
        self.calls = []

    def on_step(self, event):
        self.calls.append(("step", event.t, tuple(event.completed)))

    def on_complete(self, job, t):
        self.calls.append(("complete", t, job))

    def on_finish(self, makespan):
        self.calls.append(("finish", makespan))


class TestKernelLoop:
    def test_observer_callback_ordering(self, two_proc_instance):
        obs = RecordingObserver()
        makespan = run_kernel(
            ExactRuntime(two_proc_instance), GreedyBalance(), (obs,)
        )
        kinds = [c[0] for c in obs.calls]
        assert kinds[-1] == "finish"
        assert obs.calls[-1] == ("finish", makespan)
        assert kinds.count("finish") == 1
        # every completion follows its step and carries the step's t
        for k, call in enumerate(obs.calls):
            if call[0] == "complete":
                _, t, job = call
                step_call = next(
                    c for c in obs.calls[:k][::-1] if c[0] == "step"
                )
                assert step_call[1] == t
                assert job in step_call[2]

    def test_share_recorder_matches_schedule(self, two_proc_instance):
        recorder = ShareRecorder()
        completions = CompletionRecorder()
        run_kernel(
            ExactRuntime(two_proc_instance),
            GreedyBalance(),
            (recorder, completions),
        )
        schedule = GreedyBalance().run(two_proc_instance)
        assert [tuple(r) for r in recorder.shares][: schedule.makespan] == [
            s.shares for s in schedule.steps
        ]
        assert completions.completion_steps == dict(schedule.completion_steps)

    def test_stall_abort(self, two_proc_instance):
        with pytest.raises(SimulationLimitError, match="no progress"):
            run_kernel(
                ExactRuntime(two_proc_instance), lambda s: [0, 0], ()
            )

    def test_waiting_on_release_is_not_a_stall(self):
        """Zero-progress steps while an arrival is pending must not
        trip the stall detector."""
        inst = Instance.from_requirements(
            [["1/2"], ["1/2"]], releases=[0, 10]
        )
        # GreedyBalance finishes p0 at step 0, then waits 9 idle steps
        # for p1 -- far beyond the stall limit of 3.
        schedule = simulate(inst, GreedyBalance())
        assert schedule.makespan == 11
        assert schedule.completion_step(1, 0) == 10

    def test_step_limit_label(self, two_proc_instance):
        with pytest.raises(SimulationLimitError, match="did not finish"):
            run_kernel(
                ExactRuntime(two_proc_instance),
                GreedyBalance(),
                (),
                max_steps=1,
            )


class TestUniformInfeasibility:
    """Satellite: every layer reports over-grants the same way."""

    def test_simulate_raises_infeasible(self, two_proc_instance):
        with pytest.raises(InfeasibleAssignmentError, match="overused"):
            simulate(two_proc_instance, lambda s: [1, 1])

    def test_activity_run_raises_infeasible_not_value_error(self, run_tasks):
        tasks = [TaskSpec("a", [Phase("1/2", 1)]), TaskSpec("b", [Phase("1/2", 1)])]
        with pytest.raises(InfeasibleAssignmentError, match="overused"):
            run_tasks(tasks, lambda s: [Fraction(1), Fraction(1)])

    def test_vector_backend_raises_infeasible(self, two_proc_instance):
        class OverGrant(GreedyBalance):
            def shares_array(self, state):
                import numpy as np

                return np.ones(state.num_processors)

        with pytest.raises(InfeasibleAssignmentError, match="overused"):
            VectorBackend().run(two_proc_instance, OverGrant())


class TestShareRecordingSafety:
    def test_buffer_reusing_policy_rows_not_aliased(self, two_proc_instance):
        """A vectorized policy that reuses one output buffer must not
        corrupt previously recorded rows (recorder copies ndarrays)."""
        import numpy as np

        from repro.algorithms.base import water_fill_array

        class BufferReuser(GreedyBalance):
            def __init__(self):
                self._buf = None

            def shares_array(self, state):
                fresh = water_fill_array(
                    state,
                    np.lexsort(
                        (-np.round(state.remaining, 9), -state.jobs_remaining)
                    ),
                )
                if self._buf is None:
                    self._buf = fresh
                else:
                    self._buf[:] = fresh
                return self._buf

        reuser_rows = VectorBackend().run(
            two_proc_instance, BufferReuser()
        ).shares
        clean_rows = VectorBackend().run(
            two_proc_instance, GreedyBalance()
        ).shares
        assert reuser_rows == pytest.approx(clean_rows)


class TestRuntimePlumbing:
    def test_backends_expose_runtimes(self, two_proc_instance):
        policy = GreedyBalance()
        exact_rt = get_backend("exact").make_runtime(two_proc_instance, policy)
        vector_rt = get_backend("vector").make_runtime(two_proc_instance, policy)
        assert run_kernel(exact_rt, policy) == run_kernel(vector_rt, policy)

    def test_default_make_runtime_raises(self, two_proc_instance):
        class Opaque(Backend):
            name = "opaque"

            def run(self, instance, policy, **kwargs):
                return BackendResult(backend=self.name, makespan=0)

        with pytest.raises(BackendError, match="kernel runtime"):
            Opaque().make_runtime(two_proc_instance, GreedyBalance())

    def test_exact_backend_is_thin_kernel_config(self, two_proc_instance):
        result = ExactBackend().run(two_proc_instance, GreedyBalance())
        assert result.schedule is not None
        assert result.makespan == result.schedule.makespan

    def test_single_step_loop_in_codebase(self):
        """Architecture guard: `while not ... all_done` appears only in
        the kernel (the one step loop) across the source tree."""
        from pathlib import Path

        import repro

        src = Path(repro.__file__).parent
        offenders = []
        for path in src.rglob("*.py"):
            text = path.read_text()
            if "all_done" in text and "while not" in text:
                for line in text.splitlines():
                    if "while not" in line and "all_done" in line:
                        offenders.append(path.name)
        assert offenders == ["kernel.py"]
