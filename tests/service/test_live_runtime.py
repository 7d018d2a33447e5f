"""The service's live runtime: work conservation and backend invariance.

The engine grows one kernel runtime in place across arrivals, so these
tests watch the run from the inside -- through a work-summing
``StepObserver`` added to every kernel call -- and require the exact
and vector backends to make the same discrete decisions (placement,
admission, completion steps) on seeded streams.
"""

import pytest

import repro.service.engine as engine
from repro.core import StepObserver
from repro.service import PoissonStream, SchedulingService

BACKENDS = ("exact", "vector")


class WorkLedger(StepObserver):
    """Sums the work each job processed, from its first step to completion."""

    def __init__(self) -> None:
        self.pending: dict[int, float] = {}
        self.received: dict[tuple[int, int], float] = {}

    def on_step(self, event) -> None:
        for i, work in enumerate(event.processed):
            self.pending[i] = self.pending.get(i, 0.0) + float(work)

    def on_complete(self, job, t) -> None:
        self.received[job] = self.pending.pop(job[0], 0.0)


@pytest.fixture
def ledger(monkeypatch) -> WorkLedger:
    """A WorkLedger attached to every kernel run the service makes."""
    observer = WorkLedger()
    original = engine.run_kernel

    def run_kernel(runtime, policy, observers=(), **kwargs):
        return original(runtime, policy, (*observers, observer), **kwargs)

    monkeypatch.setattr(engine, "run_kernel", run_kernel)
    return observer


def _admitted_work(svc: SchedulingService, stream) -> dict[tuple[int, int], float]:
    """Work of each admitted job, keyed by (queue, index in queue)."""
    works: dict[tuple[int, int], float] = {}
    placed: dict[int, int] = {}
    arrivals = [r for r in svc.event_log if r["type"] == "arrival"]
    for record, event in zip(arrivals, stream):
        if record["admitted"]:
            queue = record["queue"]
            works[(queue, placed.get(queue, 0))] = float(event.job.work)
            placed[queue] = placed.get(queue, 0) + 1
    return works


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_job_processes_its_full_work(ledger, backend, seed):
    # Rate 1 with 4 queues lets queues drain between arrivals, so jobs
    # are appended to drained queues as well as to busy ones.
    stream = PoissonStream(rate=1.0, count=120, seed=seed)
    svc = SchedulingService(backend=backend, max_queues=4)
    svc.run_stream(stream)
    works = _admitted_work(svc, stream)
    assert len(works) == svc.report().completed == 120
    assert ledger.received.keys() == works.keys()
    for job, work in works.items():
        assert ledger.received[job] == pytest.approx(work, abs=1e-9), job


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_scratch_matches_on_a_draining_stream(backend):
    stream = PoissonStream(rate=1.0, count=60, seed=3)
    runs = {}
    for mode in ("incremental", "from-scratch"):
        svc = SchedulingService(backend=backend, mode=mode, max_queues=4)
        svc.run_stream(stream)
        runs[mode] = (svc.event_log, svc.completion_steps)
    assert runs["incremental"] == runs["from-scratch"]


@pytest.mark.parametrize("seed", range(8))
def test_exact_and_vector_event_logs_identical(seed):
    stream = PoissonStream(rate=4.0, count=300, seed=seed)
    logs = {}
    for backend in BACKENDS:
        svc = SchedulingService(backend=backend, max_queues=16)
        svc.run_stream(stream)
        logs[backend] = svc.event_log
    assert logs["exact"] == logs["vector"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_restores_only_to_open_queues(monkeypatch, backend):
    calls = []
    original = engine.restore_runtime

    def restore_runtime(*args, **kwargs):
        calls.append(kwargs.get("instance"))
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "restore_runtime", restore_runtime)
    svc = SchedulingService(backend=backend, max_queues=4)
    svc.run_stream(PoissonStream(rate=2.0, count=80, seed=4))
    # The first queue needs no restore; each later queue needs one.
    assert len(calls) == 3
    assert [inst.num_processors for inst in calls] == [2, 3, 4]
