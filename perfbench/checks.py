"""Output checks: each returns a list of problems, empty when the output is right.

They are plain functions over program outputs so the benchmark's tests
can feed them deliberately corrupted results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

TOL = 1e-9


def _close(a: Any, b: Any) -> bool:
    a, b = Fraction(a), Fraction(b)
    return abs(a - b) <= TOL * max(1, abs(a), abs(b))


def check_run_pair(vector, exact) -> list[str]:
    """Vector and exact runs of one instance must agree (makespan, objectives, steps)."""
    problems = []
    if vector.makespan != exact.makespan:
        problems.append(f"makespan vector={vector.makespan} exact={exact.makespan}")
    for name, value in exact.objective_values.items():
        other = vector.objective_values.get(name)
        if other is None or not _close(value, other):
            problems.append(f"{name} vector={other} exact={value}")
    if vector.completion_steps != exact.completion_steps:
        problems.append("completion steps differ between vector and exact")
    return problems


def check_order(original, ordered) -> list[str]:
    """A searched order must re-sequence the input's jobs and nothing else."""
    problems = []
    if ordered.num_processors != original.num_processors:
        problems.append(
            f"queue count {ordered.num_processors} != {original.num_processors}"
        )
    if tuple(ordered.releases) != tuple(original.releases):
        problems.append("release times changed")
    if not original.same_bag(ordered):
        problems.append("job multiset changed (not a permutation of the input)")
    return problems


def check_objective(reported: Any, recomputed: Any, what: str) -> list[str]:
    """A reported objective value must be reproduced by re-running its order."""
    if _close(reported, recomputed):
        return []
    return [f"{what}: reported {reported} but re-run gives {recomputed}"]


def check_stream(report, submitted: int) -> list[str]:
    """Every offered event is admitted and completed; none is dropped."""
    problems = []
    counts = (report.submitted, report.admitted, report.completed)
    if counts != (submitted, submitted, submitted):
        problems.append(
            f"submitted/admitted/completed = {counts}, expected {submitted} each"
        )
    if report.dropped_events:
        problems.append(f"{report.dropped_events} dropped events")
    return problems


def check_replay(service, replayed) -> list[str]:
    """Replaying the recorded event log must reproduce the run exactly."""
    problems = []
    if replayed.event_log != service.event_log:
        problems.append("replayed event log differs from the recorded one")
    if replayed.completion_steps != service.completion_steps:
        problems.append("replayed completion steps differ")
    return problems


def check_work(received: dict, works: dict) -> list[str]:
    """Every completed job must have processed its whole work."""
    short = [
        job for job, work in works.items()
        if job in received and received[job] < float(work) - TOL
    ]
    if not short:
        return []
    job = short[0]
    return [
        f"{len(short)} of {len(works)} jobs completed short of their work, "
        f"e.g. job {job}: processed {received[job]:.4g} of {float(works[job]):.4g}"
    ]


def check_cli(returncode: int, doc: dict | None, expected_makespan: int) -> list[str]:
    """A CLI run exits 0 and writes the in-process makespan."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if doc is None or not isinstance(doc.get("shares"), list):
        return ["no schedule JSON written"]
    makespan = len(doc["shares"])
    if makespan != expected_makespan:
        return [f"CLI makespan {makespan} != in-process {expected_makespan}"]
    return []
