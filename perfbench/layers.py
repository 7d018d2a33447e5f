"""Per-layer metrics and the end-to-end metric each is predicted to move.

Written down before any optimisation is measured, as the benchmark's
prediction table: a change to a layer should move its ``moves`` metric
on its ``on`` workload and leave the ``flat`` workloads where they were.
Counts and seconds are per unit of work (one run-sweep round, one
search campaign, one serve stream, one CLI invocation); ``_us_per_step``
values are per kernel step, ``_ms`` values are medians per call.
"""

from __future__ import annotations

from typing import NamedTuple


class Layer(NamedTuple):
    """One per-layer metric and its prediction."""

    name: str
    unit: str
    layer: str
    moves: str
    on: str
    flat: str
    better: str = "lower"


_RUN = ("latency_p50_ms, throughput_per_s", "run-sweep", "serve-stream")

LAYERS: tuple[Layer, ...] = (
    *(
        Layer(f"kernel.{backend}.{phase}_us_per_step", "us", "core.kernel", *_RUN)
        for backend in ("vector", "exact")
        for phase in ("query", "check", "apply", "observers")
    ),
    Layer("kernel.steps", "count", "core.kernel", *_RUN),
    Layer("kernel.unattributed_frac", "ratio", "core.kernel", *_RUN),
    Layer("kernel.run_calls", "count", "core.kernel", *_RUN),
    Layer("kernel.run_busy_s", "s", "core.kernel", *_RUN),
    Layer("backends.vector.run_busy_s", "s", "backends", *_RUN),
    Layer("backends.exact.run_busy_s", "s", "backends", *_RUN),
    *(
        Layer(
            f"backends.batched.{name}", unit, "backends",
            "throughput_per_s", "search-campaign", "serve-stream", better,
        )
        for name, unit, better in (
            ("run_batch_calls", "count", "lower"),
            ("busy_s", "s", "lower"),
            ("lane_steps", "count", "lower"),
            ("compactions", "count", "lower"),
            ("live_lane_frac", "ratio", "higher"),
        )
    ),
    *(
        Layer(
            f"sequencing.{name}", unit, "sequencing",
            "throughput_per_s, quality_ratio", "search-campaign",
            "run-sweep, serve-stream, cli-cold", better,
        )
        for name, unit, better in (
            ("sequence_busy_s", "s", "lower"),
            ("evaluations", "count", "higher"),
            ("kernel_runs", "count", "lower"),
            ("cache_hit_frac", "ratio", "higher"),
            ("accept_frac", "ratio", "higher"),
        )
    ),
    *(
        Layer(
            name, unit, layer,
            "latency_tail_ms, throughput_per_s", "serve-stream",
            "run-sweep (zero there)",
        )
        for name, unit, layer in (
            ("checkpoint.capture_calls", "count", "core.checkpoint"),
            ("checkpoint.capture_busy_s", "s", "core.checkpoint"),
            ("checkpoint.restore_calls", "count", "core.checkpoint"),
            ("checkpoint.restore_busy_s", "s", "core.checkpoint"),
        )
    ),
    Layer(
        "instance.step_limit_busy_s", "s", "core.simulator",
        "latency_tail_ms, throughput_per_s", "serve-stream",
        "run-sweep (one call per run)",
    ),
    *(
        Layer(
            f"service.{name}", unit, "service",
            "latency_p50_ms, latency_tail_ms, throughput_per_s",
            "serve-stream", "run-sweep, search-campaign, cli-cold", better,
        )
        for name, unit, better in (
            ("submit_self_s", "s", "lower"),
            ("admit_busy_s", "s", "lower"),
            ("drain_s", "s", "lower"),
            ("admitted", "count", "higher"),
            ("rejected", "count", "lower"),
            ("late_early_latency_ratio", "ratio", "lower"),
        )
    ),
    Layer(
        "io.job_to_dict_busy_s", "s", "io",
        "latency_p50_ms, throughput_per_s", "serve-stream", "run-sweep",
    ),
    Layer(
        "io.load_instance_ms", "ms", "io",
        "latency_p50_ms", "cli-cold", "serve-stream",
    ),
    Layer(
        "interp.startup_ms", "ms", "cli",
        "latency_p50_ms; setup_s everywhere", "cli-cold", "-",
    ),
    *(
        Layer(
            f"import.{name}_ms", "ms", "cli",
            "latency_p50_ms; setup_s everywhere", "cli-cold",
            "throughput_per_s on run-sweep, search-campaign, serve-stream",
        )
        for name in ("total", "scipy", "numpy", "repro")
    ),
    Layer(
        "cli.main_ms", "ms", "cli",
        "latency_p50_ms", "cli-cold", "serve-stream",
    ),
    Layer(
        "kernels.compiled_runs", "count", "kernels",
        "throughput_per_s", "run-sweep", "all while numba is absent", "higher",
    ),
    Layer(
        "kernels.fallbacks", "count", "kernels",
        "throughput_per_s", "run-sweep", "all while numba is absent",
    ),
    Layer(
        "trace.overhead_frac", "ratio", "telemetry",
        "- (traced wall / untraced wall - 1)", "every workload", "-",
    ),
    Layer(
        "trace.attributed_frac", "ratio", "telemetry",
        "- (share of operation time inside wrapped calls)", "every workload", "-",
        "higher",
    ),
)
