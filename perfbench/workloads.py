"""The four benchmark workloads.

Each workload builds its inputs from the seed alone and runs in *units*
(one sweep round, one search campaign, one serve stream, one CLI
invocation).  A unit times its operations, checks their outputs outside
the timed calls, and reports what the end-to-end metrics need.  Unit
``k`` always gets the same inputs for the same seed, so a traced pass
can repeat exactly the units an untraced pass ran.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import checks

OBJECTIVES = ("makespan", "weighted-flow")


@dataclass
class Unit:
    """What one unit of work measured and checked."""

    latencies: list[float] = field(default_factory=list)
    work: float = 0.0
    busy: float = 0.0
    quality: tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    audit: list[str] = field(default_factory=list)
    scale: float = 1.0  # host speed factor, see hostspeed.py


@dataclass(frozen=True)
class Params:
    """Input sizes of one workload; ``quality_units`` fixes the quality sample."""

    ms: tuple[int, ...] = ()
    n: int = 0
    exact_max_m: int = 0
    per_unit: int = 1
    budget: int = 0
    lanes: int = 0
    rate: float = 0.0
    max_queues: int = 0
    quality_units: int = 1
    setup_samples: int = 5


class Workload:
    """Base class: seeded inputs, a warm-up, and numbered units."""

    name = ""
    tail_pct = 90
    unit_name = ""
    op_name = ""
    work_name = ""
    quality_name = ""
    full = Params()
    tiny = Params()

    def __init__(self, seed: int, params: Params, workdir: Path) -> None:
        self.seed = seed
        self.base = seed * 1_000_003
        self.p = params
        self.workdir = workdir
        self.tracer = None
        self.sessions: dict[str, object] = {}

    # Tracing hooks ---------------------------------------------------
    def session(self, backend: str):
        """Install the telemetry session of *backend* while tracing, else nothing."""
        if self.tracer is None:
            return nullcontext()
        from repro.telemetry import TelemetrySession, use_session

        if backend not in self.sessions:
            self.sessions[backend] = TelemetrySession(tracing=False)
        return use_session(self.sessions[backend])

    def timed(self, op_id: str, name: str, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds)."""
        ctx = self.tracer.op(op_id, name) if self.tracer else nullcontext()
        t0 = perf_counter()
        with ctx:
            result = fn(*args, **kwargs)
        return result, perf_counter() - t0

    def probes(self, tracer) -> None:
        """Workload-specific names to rebind while tracing (beyond the shared set)."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Release what setup made."""

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, k: int, check: bool) -> Unit:
        raise NotImplementedError


class RunSweep(Workload):
    """``run_policy`` per backend over m in {8, 32, 256}: the per-step kernel."""

    name = "run-sweep"
    tail_pct = 90
    unit_name = "sweep round"
    op_name = "run_policy call"
    work_name = "simulated steps"
    quality_name = "vector weighted flow / its lower bound"
    full = Params(ms=(8, 32, 256), n=16, exact_max_m=32, quality_units=4)
    tiny = Params(ms=(3, 5), n=3, exact_max_m=5, setup_samples=1)

    def instance(self, k: int, m: int):
        from repro.generators import uniform_instance, with_weights

        seed = self.base + 7919 * k + m
        return with_weights(
            uniform_instance(m, self.p.n, seed=seed), profile="uniform", seed=seed
        )

    def setup(self) -> None:
        from repro.core import run_policy
        from repro.objectives import get_objective

        self.run_policy = run_policy
        self.flow = get_objective("weighted-flow")
        warm = self.instance(-1, min(self.p.ms))
        for backend in ("vector", "exact"):
            run_policy(warm, "greedy-balance", backend=backend, objectives=OBJECTIVES)

    def unit(self, k: int, check: bool) -> Unit:
        u = Unit()
        ratios = []
        for m in self.p.ms:
            inst = self.instance(k, m)
            results = {}
            for backend in ("vector", "exact"):
                if backend == "exact" and m > self.p.exact_max_m:
                    continue
                with self.session(backend):
                    res, dt = self.timed(
                        f"run-{k}-{m}-{backend}", "run_policy", self.run_policy,
                        inst, "greedy-balance", backend=backend, objectives=OBJECTIVES,
                    )
                results[backend] = res
                u.latencies.append(dt)
                u.work += res.makespan
                u.busy += dt
                u.attempted += 1
            flow = results["vector"].objective_values["weighted-flow"]
            ratios.append(float(flow / self.flow.lower_bound(inst)))
            if check and "exact" in results:
                u.problems += checks.check_run_pair(results["vector"], results["exact"])
        u.quality = (sum(ratios), len(ratios))
        return u


class SearchCampaign(Workload):
    """Batched local search over skewed-weight instances: many lanes at small m."""

    name = "search-campaign"
    tail_pct = 75
    unit_name = "search campaign"
    op_name = "campaign"
    work_name = "candidate evaluations"
    quality_name = "searched / fixed-order weighted flow"
    full = Params(ms=(12,), n=8, per_unit=2, budget=96, lanes=32, quality_units=24)
    tiny = Params(ms=(4,), n=3, per_unit=1, budget=8, lanes=4, setup_samples=1)

    def instances(self, k: int):
        from repro.backends import make_campaign_instances

        return make_campaign_instances(
            self.p.per_unit, self.p.ms[0], self.p.n,
            weights_profile="skewed", seed=self.base + self.p.per_unit * k,
        )

    def runner(self, budget: int):
        from repro.backends import BatchRunner

        return BatchRunner(
            "greedy-balance", "vector", workers=1, execution="batched",
            objectives=("weighted-flow",), sequencer="local-search",
            sequencer_options={"batch_lanes": self.p.lanes, "budget": budget, "seed": 0},
        )

    def setup(self) -> None:
        from repro.sequencing.local_search import LocalSearchSequencer

        # Keep every searched order so the checks can audit it; one list
        # append per search, next to a search of many kernel runs.
        self.searched: list[tuple] = []
        self._cls = LocalSearchSequencer
        original = self._original = LocalSearchSequencer.sequence
        searched = self.searched

        def sequence(seq, instance):
            ordered = original(seq, instance)
            searched.append((instance, ordered, dict(seq.last_stats)))
            return ordered

        LocalSearchSequencer.sequence = sequence
        self.campaign = self.runner(self.p.budget)
        self.runner(min(8, self.p.budget)).run(self.instances(-1)[:1])

    def close(self) -> None:
        self._cls.sequence = self._original

    def unit(self, k: int, check: bool) -> Unit:
        from repro.backends.batched import run_batch
        from repro.core import run_policy

        u = Unit()
        insts = self.instances(k)
        self.searched.clear()
        with self.session("vector"):
            result, dt = self.timed(f"campaign-{k}", "BatchRunner.run", self.campaign.run, insts)
        u.latencies.append(dt)
        u.busy = dt
        u.work = sum(stats["evaluations"] for _, _, stats in self.searched)
        u.attempted = len(insts)
        if not check:
            return u
        if len(self.searched) != len(insts):
            u.problems.append(f"{len(self.searched)} searches for {len(insts)} instances")
        searched_total = 0.0
        for (original, ordered, _), row in zip(self.searched, result.rows):
            u.problems += checks.check_order(original, ordered)
            reported = row["objectives"]["weighted-flow"]["value"]
            rerun = run_policy(
                ordered, "greedy-balance", backend="vector", objectives=("weighted-flow",)
            ).objective_values["weighted-flow"]
            u.problems += checks.check_objective(reported, rerun, "weighted flow")
            searched_total += reported
        fixed = run_batch(insts, "greedy-balance", objectives=("weighted-flow",))
        u.quality = (searched_total, float(sum(fixed.objective_values["weighted-flow"])))
        return u


class ServeStream(Workload):
    """One incremental service fed a Poisson stream, closed loop with one client."""

    name = "serve-stream"
    tail_pct = 90
    unit_name = "250-event stream"
    op_name = "event"
    work_name = "events"
    quality_name = "offered events per completed job"
    full = Params(n=250, rate=4.0, max_queues=16)
    tiny = Params(n=30, rate=4.0, max_queues=4, setup_samples=1)

    def events(self, k: int, count: int):
        from repro.service import PoissonStream

        return list(PoissonStream(rate=self.p.rate, count=count, seed=self.base + k))

    def service(self):
        from repro.service import SchedulingService

        return SchedulingService(
            mode="incremental", backend="vector",
            max_queues=self.p.max_queues, admission="accept-all",
        )

    def setup(self) -> None:
        self.replayed = False
        warm = self.service()
        warm.run_stream(self.events(-1, 50))

    def unit(self, k: int, check: bool) -> Unit:
        from repro.service import replay_log

        u = Unit()
        events = self.events(k, self.p.n)
        svc = self.service()
        with self.session("vector"):
            for i, event in enumerate(events):
                _, dt = self.timed(f"event-{k}-{i}", "service.submit", svc.submit, event)
                u.latencies.append(dt)
            _, drain = self.timed(f"drain-{k}", "service.drain", svc.drain)
        u.busy = sum(u.latencies) + drain
        u.work = u.attempted = len(events)
        quarter = max(1, len(events) // 4)
        report = svc.report()
        u.layer = {
            "service.admitted": report.admitted,
            "service.rejected": report.rejected,
            "service.late_early_latency_ratio": (
                median(u.latencies[-quarter:]) / median(u.latencies[:quarter])
            ),
        }
        if check:
            u.problems += checks.check_stream(report, len(events))
            if not self.replayed:
                self.replayed = True
                with WorkAudit() as audit:
                    _, replayed = replay_log(svc.config(), svc.event_log)
                u.problems += checks.check_replay(svc, replayed)
                u.audit += checks.check_work(audit.received, job_works(svc, events))
        # Offered jobs per completed job: 1 when the service serves every arrival.
        u.quality = (report.submitted, report.completed)
        return u


class WorkAudit:
    """Records the work each service job processed, via an extra kernel observer.

    Used only while a recorded stream is replayed, outside the timed
    region: the service's ``run_kernel`` lookup is rebound to add the
    observer.
    """

    def __enter__(self) -> "WorkAudit":
        import repro.service.engine as engine
        from repro.core.kernel import StepObserver

        self.received: dict[tuple[int, int], float] = {}
        acc: dict[int, float] = {}
        received = self.received

        class Observer(StepObserver):
            def on_step(self, event) -> None:
                for i, work in enumerate(event.processed):
                    acc[i] = acc.get(i, 0.0) + float(work)

            def on_complete(self, job, t) -> None:
                received[job] = acc.pop(job[0], 0.0)

        observer = Observer()
        self._engine = engine
        original = self._original = engine.run_kernel

        def run_kernel(runtime, policy, observers=(), **kwargs):
            return original(runtime, policy, (*observers, observer), **kwargs)

        engine.run_kernel = run_kernel
        return self

    def __exit__(self, *exc) -> None:
        self._engine.run_kernel = self._original


def job_works(svc, events) -> dict[tuple[int, int], object]:
    """Work of each admitted job, keyed by (queue, index in queue)."""
    works: dict[tuple[int, int], object] = {}
    placed: dict[int, int] = {}
    arrivals = [r for r in svc.event_log if r["type"] == "arrival"]
    for record, event in zip(arrivals, events):
        if record["admitted"]:
            q = record["queue"]
            works[(q, placed.get(q, 0))] = event.job.work
            placed[q] = placed.get(q, 0) + 1
    return works


class CliCold(Workload):
    """Fresh-interpreter ``python -m repro run``: import and CLI cost per operation."""

    name = "cli-cold"
    tail_pct = 50  # about twenty invocations per run: too few for a tail
    unit_name = "CLI invocation"
    op_name = "invocation"
    work_name = "invocations"
    quality_name = "CLI makespan / makespan lower bound"
    full = Params(ms=(8,), n=8, per_unit=4, quality_units=4)
    tiny = Params(ms=(3,), n=3, per_unit=1, setup_samples=1)

    def setup(self) -> None:
        from repro.core import run_policy
        from repro.generators import uniform_instance
        from repro.io import save_instance

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        self.expected = []
        self.lower = []
        for f in range(self.p.per_unit):
            inst = uniform_instance(self.p.ms[0], self.p.n, seed=self.base + f)
            path = self.workdir / f"instance-{f}.json"
            save_instance(inst, path)
            self.files.append(path)
            self.expected.append(run_policy(inst, "greedy-balance", backend="exact").makespan)
            self.lower.append(inst.makespan_lower_bound())
        self.rss_kb = 0
        self.imports: list[dict[str, float]] = []
        self.importtime = False  # the traced pass reads -X importtime per invocation
        self.invoke(0)

    def invoke(self, f: int) -> tuple[int, float, Path]:
        """One fresh ``python -m repro run`` on instance file *f*."""
        out = self.workdir / f"schedule-{f}.json"
        err = self.workdir / "stderr.txt"
        out.unlink(missing_ok=True)
        argv = [sys.executable]
        if self.importtime:
            argv += ["-X", "importtime"]
        argv += ["-m", "repro", "run", str(self.files[f]), "--json", str(out)]
        with err.open("wb") as stderr:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        if self.importtime:
            self.imports.append(parse_importtime(err.read_text()))
        return proc.returncode, dt, out

    def peak_rss_mb(self) -> float:
        return self.rss_kb / 1024

    def unit(self, k: int, check: bool) -> Unit:
        u = Unit(attempted=1)
        f = k % len(self.files)
        code, dt, out = self.invoke(f)
        u.latencies.append(dt)
        u.busy = dt
        u.work = 1
        doc = json.loads(out.read_text()) if out.exists() else None
        if check:
            u.problems += checks.check_cli(code, doc, self.expected[f])
        if doc is not None:
            u.quality = (len(doc["shares"]) / self.lower[f], 1)
        return u

    def probes(self, tracer) -> None:
        import repro.cli

        for attr in ("load_instance", "save_schedule", "compute_metrics",
                     "render_instance", "render_schedule"):
            tracer.patch(repro.cli, attr, f"cli.{attr}")
        import repro.algorithms.base

        tracer.patch(repro.algorithms.base, "simulate", "core.simulate")

    def main_in_process(self, calls: int) -> list[float]:
        """In-process ``repro.cli.main`` timings, one per instance file in turn."""
        import contextlib
        import io

        from repro.cli import main

        times = []
        for i in range(calls):
            argv = ["run", str(self.files[i % len(self.files)]),
                    "--json", str(self.workdir / "inproc.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                _, dt = self.timed(f"main-{i}", "cli.main", main, argv)
            times.append(dt)
        return times


def parse_importtime(stderr: str) -> dict[str, float]:
    """Sum ``-X importtime`` self times (ms) in total and per top-level package."""
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "repro": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_ms = int(parts[0]) / 1000
        top = parts[2].strip().split(".")[0]
        totals["total"] += self_ms
        if top in totals:
            totals[top] += self_ms
    return totals


WORKLOADS = {cls.name: cls for cls in (RunSweep, SearchCampaign, ServeStream, CliCold)}


def make(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Instantiate workload *name* with full or tiny inputs."""
    cls = WORKLOADS[name]
    return cls(seed, cls.tiny if tiny else cls.full, workdir)
