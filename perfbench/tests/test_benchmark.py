"""Smoke runs of every workload and checks that corrupted outputs are caught."""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
from layers import LAYERS
from run import END_TO_END
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in LAYERS
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    report = proc.stdout.strip().splitlines()[:-1]
    for metric in spec:  # the human-readable report names each metric with its unit
        assert any(
            line.split()[:1] == [metric["name"]] and f" {metric['unit']} " in line
            for line in report
        ), metric


def test_program_missing_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "run-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def pair():
    from repro.core import Instance, run_policy

    inst = Instance.from_percent([[60, 30, 90], [50, 50, 20], [10, 80, 40]])
    return [
        run_policy(inst, "greedy-balance", backend=b, objectives=("makespan", "weighted-flow"))
        for b in ("vector", "exact")
    ]


def test_agreeing_runs_pass(pair):
    assert checks.check_run_pair(*pair) == []


def test_perturbed_makespan_is_caught(pair):
    vector, exact = pair
    assert checks.check_run_pair(dataclasses.replace(vector, makespan=vector.makespan + 1), exact)


def test_perturbed_objective_is_caught(pair):
    vector, exact = pair
    values = dict(vector.objective_values)
    values["weighted-flow"] = values["weighted-flow"] + Fraction(1, 10**6)
    assert checks.check_run_pair(dataclasses.replace(vector, objective_values=values), exact)


def test_moved_completion_is_caught(pair):
    vector, exact = pair
    steps = dict(vector.completion_steps)
    job = next(iter(steps))
    steps[job] += 1
    assert checks.check_run_pair(dataclasses.replace(vector, completion_steps=steps), exact)


def test_order_checks():
    from repro.core import Instance

    inst = Instance.from_percent([[60, 30], [50, 20]])
    moved = inst.with_queues([[inst.job(1, 1), inst.job(0, 0)], [inst.job(1, 0), inst.job(0, 1)]])
    assert checks.check_order(inst, moved) == []
    swapped_in = inst.with_queues([[inst.job(0, 0), inst.job(0, 0)], list(inst.queues[1])])
    assert checks.check_order(inst, swapped_in)
    merged = Instance([[*inst.queues[0], *inst.queues[1]]])
    assert checks.check_order(inst, merged)
    assert checks.check_order(inst.with_releases([0, 2]), inst)
    assert checks.check_objective(100.0, Fraction(100), "flow") == []
    assert checks.check_objective(100.0, Fraction(101), "flow")


def test_stream_and_cli_checks():
    report = type("Report", (), {"submitted": 5, "admitted": 5, "completed": 4,
                                 "dropped_events": 0})()
    assert checks.check_stream(report, 5)
    report.completed = 5
    assert checks.check_stream(report, 5) == []
    doc = {"shares": [[1], [1], [1]]}
    assert checks.check_cli(0, doc, 3) == []
    assert checks.check_cli(0, doc, 4)
    assert checks.check_cli(1, doc, 3)
    assert checks.check_cli(0, None, 3)


def test_short_work_is_caught():
    works = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4)}
    assert checks.check_work({(0, 0): 0.5, (0, 1): 0.25}, works) == []
    assert checks.check_work({(0, 0): 0.5, (0, 1): 0.0}, works)


def test_host_speed_scaling():
    from hostspeed import NOMINAL_S, factor, probe
    from run import latency
    from workloads import Unit

    assert factor(NOMINAL_S, NOMINAL_S) == 1
    assert factor(2 * NOMINAL_S, 2 * NOMINAL_S) == 0.5
    assert probe() > 0
    units = [Unit(latencies=[0.1] * 30, scale=0.5)]
    assert latency(units, 50, "op")[0] == 0.05
    assert latency(units, 50, "op", scaled=False)[0] == 0.1
