"""Repository benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the workload untraced and then traced over the same units and reports
the per-layer metrics.  ``--all`` runs every workload, each in its own fresh
process.  The last line of a single-workload run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when an output check failed.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))  # before run_workload pins one core
os.environ["PYTHONPATH"] = str(SRC)
sys.path[:0] = [str(BENCH), str(SRC)]

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("quality_ratio", "ratio"),
)

def import_program():
    """Import the program from this checkout's ``src`` or fail."""
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"repro imported from {where}, not from {SRC}")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def environment() -> dict[str, str]:
    """Versions, core count and source revision recorded with every result."""
    import numpy

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    if (ROOT / ".git").exists():
        revision = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        ).stdout.strip()
    else:
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
        revision = "src-sha256:" + digest.hexdigest()[:12]
    return {
        "nproc": str(NPROC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "revision": revision,
    }


def child_argv(args, *extra: str) -> list[str]:
    argv = [sys.executable, *extra, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed)]
    return argv + (["--tiny"] if args.tiny else [])


def setup_samples(args, count: int) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times (interpreter, import, inputs and warm-up),
    raw and scaled to the nominal host speed."""
    from hostspeed import factor, probe

    times, scaled = [], []
    before = probe()
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(child_argv(args) + ["--setup-only"], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        after = probe()
        scaled.append(times[-1] * factor(before, after))
        before = after
    return times, scaled


def run_unit(wl, k: int, check: bool):
    """One unit; an exception counts as one failed operation."""
    from workloads import Unit

    try:
        return wl.unit(k, check)
    except Exception as exc:  # the benchmark reports failures, it does not stop
        return Unit(attempted=1, problems=[f"unit {k}: {type(exc).__name__}: {exc}"])


def run_for(wl, seconds: float, minimum: int):
    """Checked units 0, 1, ... while the next one fits in *seconds*, at least *minimum*.

    A unit is expected to take as long as the one before it, so a run of
    long units (a serve stream) stops near *seconds* instead of overshooting
    by most of a unit.  The host speed probe runs before the first unit and
    after each one; a unit's ``scale`` comes from the probes on its sides.
    """
    from hostspeed import factor, probe

    units = []
    t0 = last = perf_counter()
    before = probe()
    while len(units) < minimum or 2 * perf_counter() - last - t0 <= seconds:
        last = perf_counter()
        unit = run_unit(wl, len(units), check=True)
        after = probe()
        unit.scale = factor(before, after)
        units.append(unit)
        before = after
    return units


def tally(units) -> tuple[int, int, list[str]]:
    problems = [p for u in units for p in u.problems]
    return sum(u.attempted for u in units), len(problems), problems


def end_to_end(args, wl, units) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end values at the nominal host speed, and how each was taken."""
    raw_setups, setups = setup_samples(args, wl.p.setup_samples)
    raw_rates = [u.work / u.busy for u in units if u.busy]
    rates = [u.work / (u.busy * u.scale) for u in units if u.busy]
    q_num = sum(u.quality[0] for u in units[: wl.p.quality_units])
    q_den = sum(u.quality[1] for u in units[: wl.p.quality_units])
    p50, p50_note = latency(units, 50, wl.op_name)
    tail, tail_note = latency(units, wl.tail_pct, wl.op_name)
    raw = {
        "setup_s": median(raw_setups),
        "throughput_per_s": median(raw_rates) if raw_rates else 0.0,
        "latency_p50_ms": 1e3 * latency(units, 50, wl.op_name, scaled=False)[0],
        "latency_tail_ms": 1e3 * latency(units, wl.tail_pct, wl.op_name, scaled=False)[0],
    }
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": wl.peak_rss_mb(),
        "throughput_per_s": median(rates) if rates else 0.0,
        "latency_p50_ms": 1e3 * p50,
        "latency_tail_ms": 1e3 * tail,
        "quality_ratio": q_num / q_den if q_den else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "peak_rss_mb": "max RSS of the process doing the work",
        "throughput_per_s": f"{wl.work_name} per busy second, median of {len(rates)} "
                            f"{wl.unit_name}s",
        "latency_p50_ms": p50_note,
        "latency_tail_ms": tail_note,
        "quality_ratio": f"{wl.quality_name}, first {min(len(units), wl.p.quality_units)} "
                         f"{wl.unit_name}s",
    }
    for key, value in raw.items():
        notes[key] += f"; {value:.6g} unscaled"
    scales = sorted(u.scale for u in units)
    notes["host_speed"] = (f"times are scaled to the nominal host speed per {wl.unit_name}: "
                           f"factor median {median(scales):.3f}, range {scales[0]:.3f}-"
                           f"{scales[-1]:.3f} (perfbench/hostspeed.py)")
    return values, notes


def latency(units, pct: int, op: str, scaled: bool = True) -> tuple[float, str]:
    """Percentile *pct* of operation latency, with a note on how it was taken.

    When every unit holds at least ten samples beyond the percentile, it is
    taken per unit and the median over units is reported, so one disturbed
    unit cannot move it; otherwise it is taken over all samples of the run.
    Each latency is scaled by its unit's host speed factor unless *scaled*
    is false.
    """
    def times(u) -> list[float]:
        return [x * u.scale for x in u.latencies] if scaled else u.latencies

    need = 10 * 100 / (100 - pct)
    if all(len(u.latencies) >= need for u in units):
        per_unit = [percentile(sorted(times(u)), pct) for u in units]
        samples = sum(len(u.latencies) for u in units)
        return median(per_unit), (f"median over {len(units)} units of p{pct}, "
                                  f"{samples} per-{op} samples")
    pooled = sorted(x for u in units for x in times(u))
    return percentile(pooled, pct), f"p{pct} of {len(pooled)} per-{op} samples"


def import_times(args, wl) -> dict[str, float]:
    """``-X importtime`` of the workload's real fresh-process start."""
    from workloads import parse_importtime

    if wl.name == "cli-cold":
        keys = wl.imports[0] if wl.imports else {}
        return {key: median(d[key] for d in wl.imports) for key in keys}
    proc = subprocess.run(child_argv(args, "-X", "importtime") + ["--setup-only"],
                          check=True, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    return parse_importtime(proc.stderr)


def install_probes(tracer, stats: dict[str, float]) -> None:
    """Rebind the layer entry points every workload may reach."""
    import repro.backends.batched as batched
    import repro.backends.exact as exact
    import repro.backends.vector as vector
    import repro.core.simulator as simulator
    import repro.sequencing.local_search as local_search
    import repro.service.admission as admission
    import repro.service.engine as engine

    def add(key: str, value: float) -> None:
        stats[key] = stats.get(key, 0.0) + value

    def on_batch(_args, result) -> None:
        add("lanes_x_steps", result.lanes * result.steps)
        add("lane_steps", result.lane_steps)
        add("compactions", result.compactions)

    def on_sequence(args, _result) -> None:
        for key in ("evaluations", "kernel_runs", "cache_hits", "accepted", "rejected"):
            add(key, args[0].last_stats[key])

    tracer.patch(vector.VectorBackend, "run", "backends.vector.run")
    tracer.patch(exact.ExactBackend, "run", "backends.exact.run")
    for module in (simulator, vector, exact, engine, local_search):
        tracer.patch(module, "run_kernel", "kernel.run")
    tracer.patch(batched, "run_batch", "backends.batched.run_batch", on_batch)
    tracer.patch(local_search.LocalSearchSequencer, "sequence", "sequencing.sequence",
                 on_sequence)
    for module in (engine, local_search):
        tracer.patch(module, "checkpoint_run", "checkpoint.capture")
    tracer.patch(engine, "restore_runtime", "checkpoint.restore")
    for module in (engine, simulator):
        tracer.patch(module, "default_step_limit", "instance.step_limit")
    tracer.patch(engine, "job_to_dict", "io.job_to_dict")
    tracer.patch(admission.AcceptAll, "admit", "service.admit")


def layer_metrics(wl, tracer, stats, units, extra) -> dict[str, float]:
    """Every per-layer metric from the traced pass (counts and seconds per unit)."""
    n = len(units)
    out: dict[str, float] = {}
    phases_total = steps_total = 0.0
    compiled = fallbacks = 0.0
    for backend in ("vector", "exact"):
        session = wl.sessions.get(backend)
        steps = session.metrics.counter("kernel.steps").value if session else 0
        steps_total += steps
        for phase in ("query", "check", "apply", "observers"):
            total = 0.0
            if session:
                total = sum(h.total for _, _, h in session.metrics.find(f"kernel.{phase}_seconds"))
            phases_total += total
            out[f"kernel.{backend}.{phase}_us_per_step"] = 1e6 * total / steps if steps else 0.0
        if session:
            compiled += session.metrics.counter("compiled.runs").value
            fallbacks += sum(c.value for _, _, c in session.metrics.find("compiled.fallbacks"))
    kernel_busy = tracer.busy("kernel.run")
    out["kernel.steps"] = steps_total / n
    out["kernel.unattributed_frac"] = 1 - phases_total / kernel_busy if kernel_busy else 0.0
    out["kernel.run_calls"] = tracer.calls("kernel.run") / n
    out["kernel.run_busy_s"] = kernel_busy / n
    out["backends.vector.run_busy_s"] = tracer.busy("backends.vector.run") / n
    out["backends.exact.run_busy_s"] = tracer.busy("backends.exact.run") / n
    lanes_x_steps = stats.get("lanes_x_steps", 0.0)
    out["backends.batched.run_batch_calls"] = tracer.calls("backends.batched.run_batch") / n
    out["backends.batched.busy_s"] = tracer.busy("backends.batched.run_batch") / n
    out["backends.batched.lane_steps"] = stats.get("lane_steps", 0.0) / n
    out["backends.batched.compactions"] = stats.get("compactions", 0.0) / n
    out["backends.batched.live_lane_frac"] = (
        stats.get("lane_steps", 0.0) / lanes_x_steps if lanes_x_steps else 0.0
    )
    evaluations = stats.get("evaluations", 0.0)
    moves = stats.get("accepted", 0.0) + stats.get("rejected", 0.0)
    out["sequencing.sequence_busy_s"] = tracer.busy("sequencing.sequence") / n
    out["sequencing.evaluations"] = evaluations / n
    out["sequencing.kernel_runs"] = stats.get("kernel_runs", 0.0) / n
    out["sequencing.cache_hit_frac"] = stats.get("cache_hits", 0.0) / evaluations if evaluations else 0.0
    out["sequencing.accept_frac"] = stats.get("accepted", 0.0) / moves if moves else 0.0
    for op in ("capture", "restore"):
        out[f"checkpoint.{op}_calls"] = tracer.calls(f"checkpoint.{op}") / n
        out[f"checkpoint.{op}_busy_s"] = tracer.busy(f"checkpoint.{op}") / n
    out["instance.step_limit_busy_s"] = tracer.busy("instance.step_limit") / n
    self_times = tracer.self_times()
    out["service.submit_self_s"] = self_times.get("service.submit", (0, 0.0, 0.0))[2] / n
    out["service.admit_busy_s"] = tracer.busy("service.admit") / n
    out["service.drain_s"] = tracer.busy("service.drain") / n
    for key in ("service.admitted", "service.rejected"):
        out[key] = sum(u.layer.get(key, 0.0) for u in units) / n
    out["service.late_early_latency_ratio"] = (
        sum(u.layer.get("service.late_early_latency_ratio", 0.0) for u in units) / n
    )
    out["io.job_to_dict_busy_s"] = tracer.busy("io.job_to_dict") / n
    loads = [s.dur for s in tracer.spans if s.name == "cli.load_instance"]
    out["io.load_instance_ms"] = 1e3 * median(loads) if loads else 0.0
    out["interp.startup_ms"] = extra["startup_ms"]
    for key in ("total", "scipy", "numpy", "repro"):
        out[f"import.{key}_ms"] = extra["imports"].get(key, 0.0)
    out["cli.main_ms"] = extra["cli_main_ms"]
    out["kernels.compiled_runs"] = compiled / n
    out["kernels.fallbacks"] = fallbacks / n
    out["trace.overhead_frac"] = extra["overhead_frac"]
    out["trace.attributed_frac"] = tracer.attributed_frac()
    return out


def traced_run(args, wl) -> tuple[dict[str, float], list, list[str]]:
    from layers import LAYERS
    from tracing import Tracer

    untraced = run_for(wl, args.seconds / 2, 1)
    n = len(untraced)
    cli = wl.name == "cli-cold"
    if cli:
        wl.main_in_process(1)  # warm the interpreter before timing main in-process
    tracer = Tracer()
    stats: dict[str, float] = {}
    wl.tracer = tracer
    extra: dict = {"cli_main_ms": 0.0}
    try:
        install_probes(tracer, stats)
        wl.probes(tracer)
        if cli:
            wl.importtime = True
        traced = [run_unit(wl, k, check=False) for k in range(n)]
        if cli:
            # The CLI's in-process layers: one warm main() per traced invocation.
            with wl.session("exact"):
                extra["cli_main_ms"] = 1e3 * median(wl.main_in_process(n))
    finally:
        tracer.restore()
        wl.tracer = None
    startup = []
    for _ in range(5):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        startup.append(perf_counter() - t0)
    extra["startup_ms"] = 1e3 * median(startup)
    extra["imports"] = import_times(args, wl)
    busy_untraced = sum(u.busy for u in untraced)
    busy_traced = sum(u.busy for u in traced)
    extra["overhead_frac"] = busy_traced / busy_untraced - 1 if busy_untraced else 0.0
    values = layer_metrics(wl, tracer, stats, traced, extra)
    out = BENCH / "_out" / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(out)
    lines = [f"# traced {n} {wl.unit_name}(s); spans written to {out.relative_to(ROOT)}",
             f"# {'metric':<42} {'value':>14} {'unit':<6} {'layer':<16} predicted to move -> on workload [flat on]"]
    for layer in LAYERS:
        lines.append(
            f"  {layer.name:<42} {values[layer.name]:>14.6g} {layer.unit:<6} "
            f"{layer.layer:<16} {layer.moves} -> {layer.on} [{layer.flat}]"
        )
    lines.append("# self time by wrapped call (calls, total s, self s)")
    for name, (calls, total, own) in sorted(
        tracer.self_times().items(), key=lambda kv: -kv[1][2]
    ):
        lines.append(f"  {name:<42} {calls:>8} {total:>10.4f} {own:>10.4f}")
    return values, untraced, lines


def run_workload(args) -> int:
    import_program()
    # One core for the workload, its probes and its child processes, so the
    # host speed probe measures the core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from layers import LAYERS
    from workloads import make

    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = make(args.workload, args.seed, workdir, tiny=args.tiny)
    try:
        wl.setup()
        if args.setup_only:
            return 0
        env = environment()
        print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
        if args.trace:
            values, units, lines = traced_run(args, wl)
            units_of = {layer.name: layer.unit for layer in LAYERS}
        else:
            units = run_for(wl, args.seconds, wl.p.quality_units)
            values, notes = end_to_end(args, wl, units)
            units_of = dict(END_TO_END)
            lines = [f"  {name:<18} {values[name]:>14.6g} {unit:<5} ({notes[name]})"
                     for name, unit in END_TO_END]
            lines.append(f"  # {notes['host_speed']}")
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems = tally(units)
    lines.append(f"  failed_frac        {failed / attempted if attempted else 1.0:>14.6g}"
                 f"       ({failed} failed of {attempted} operations attempted)")
    for problem in problems[:20]:
        lines.append(f"  CHECK FAILED: {problem}")
    for note in (note for u in units for note in u.audit):
        lines.append(f"  AUDIT (not counted, see perfbench/README.md): {note}")
    print("\n".join(lines))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"# {name}: FAILED (exit {proc.returncode})", flush=True)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-size inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
