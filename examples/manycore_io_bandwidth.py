#!/usr/bin/env python
"""The paper's motivating scenario: an I/O-bound many-core system.

Section 1 of the paper argues that on many-core chips sharing one data
bus, *bandwidth assignment* -- not core count -- decides completion
time for I/O-intensive workloads.  This example builds a synthetic
8-core workload (streaming writers, bursty solvers, light compute),
runs it through the stepping kernel under several policies, and
compares makespans, bus utilization and core stall time.

Run:  python examples/manycore_io_bandwidth.py
"""

from repro.algorithms import (
    FewestRemainingJobsFirst,
    GreedyBalance,
    GreedyFinishJobs,
    RoundRobin,
)
from repro.backends import get_backend
from repro.core import CoreActivityRecorder, best_lower_bound, run_kernel
from repro.generators import make_io_workload, tasks_to_instance


def main() -> None:
    tasks = make_io_workload(num_cores=8, seed=7)
    print("workload:")
    for task in tasks:
        phases = ", ".join(
            f"{float(p.bandwidth) * 100:.0f}%x{p.duration}" for p in task.phases
        )
        print(f"  {task.name:<12} {phases}")

    # The bus can move at most 1 unit of data per step: total work is a
    # hard floor on the makespan no matter how many cores you add.
    instance = tasks_to_instance(tasks, unit_split=True)
    print(
        f"\ntotal bus work = {float(instance.total_work()):.2f} steps "
        f"(lower bound {best_lower_bound(instance)}); cores = 8"
    )

    policies = [
        GreedyBalance(),
        RoundRobin(),
        GreedyFinishJobs(),
        FewestRemainingJobsFirst(),
    ]
    print(f"\n{'policy':<28} {'makespan':>8} {'bus util':>9} {'stalls':>7}")
    best = None
    for policy in policies:
        recorder = CoreActivityRecorder(instance.num_processors)
        runtime = get_backend("exact").make_runtime(instance, policy)
        makespan = run_kernel(runtime, policy, [recorder])
        print(
            f"{policy.name:<28} {makespan:>8} "
            f"{float(recorder.bus_utilization) * 100:>8.1f}% "
            f"{sum(recorder.stall_steps):>7}"
        )
        if best is None or makespan < best[1]:
            best = (policy.name, makespan, recorder)

    name, makespan, recorder = best
    print(f"\nbest policy: {name} ({makespan} steps); per-core summary:")
    print(f"{'core':>4}  {'task':<14} {'phases':>6} {'done@':>6} {'busy':>5} {'stall':>5}")
    for core, task in enumerate(tasks):
        print(
            f"{core:>4}  {task.name:<14} {len(task.phases):>6} "
            f"{recorder.last_completion[core] + 1:>6} "
            f"{recorder.busy_steps[core]:>5} {recorder.stall_steps[core]:>5}"
        )


if __name__ == "__main__":
    main()
