"""SIM bench: the many-core shared-bus scenario (Section 1's motivating system).

Reproduces the policy-comparison experiment on synthetic I/O workloads
and measures kernel throughput (steps simulated per benchmark run) on
a 16-core mixed workload, with the per-core activity recorder attached."""

from repro.algorithms import GreedyBalance
from repro.backends import get_backend
from repro.core import CoreActivityRecorder, run_kernel
from repro.experiments import get_experiment
from repro.generators import make_io_workload, tasks_to_instance


def run_workload(tasks, policy, backend: str = "exact") -> int:
    """Makespan of one unit-split workload run with busy/stall accounting."""
    instance = tasks_to_instance(tasks, unit_split=True)
    recorder = CoreActivityRecorder(instance.num_processors)
    runtime = get_backend(backend).make_runtime(instance, policy)
    return run_kernel(runtime, policy, [recorder])


def test_simulator_throughput(benchmark, record_result):
    record_result(get_experiment("SIM").run(num_cores=8, seeds=(0, 1, 2)))

    tasks = make_io_workload(16, seed=13)
    policy = GreedyBalance()

    def run() -> int:
        return run_workload(tasks, policy)

    assert benchmark(run) > 0


def test_simulator_throughput_vector_backend(benchmark):
    """Same workload through the NumPy float64 backend."""
    tasks = make_io_workload(16, seed=13)
    policy = GreedyBalance()
    expected = run_workload(tasks, policy)

    def run() -> int:
        return run_workload(tasks, policy, backend="vector")

    assert benchmark(run) == expected
