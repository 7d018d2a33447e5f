"""SERVICE bench: streaming throughput, latency, and the incremental gate.

Two BENCH series plus two gates, all on seeded Poisson workloads:

1. *sustained throughput* -- jobs per wall-clock second the always-on
   :class:`~repro.service.SchedulingService` sustains end to end
   (submissions through drain) at several arrival rates;
2. *scheduling latency* -- the per-arrival admission+placement latency
   percentiles (p50/p99) the service reports;
3. the **incremental re-scheduling gate**: on a 500-job streaming
   workload, event-driven incremental advancement must beat the
   honest from-scratch baseline (replay the full admitted history on
   every event) by at least :data:`MIN_INCREMENTAL_SPEEDUP`.  The
   baseline is measured with an early exit -- once it has already
   burned the speedup budget the bound is proven and the remaining
   events are skipped -- so a regression fails fast instead of
   stalling CI; and
4. the **flat-latency gate**: the p99 scheduling latency of a
   2000-job stream may exceed that of a 250-job stream by at most
   :data:`MAX_P99_GROWTH` -- per-event cost must follow the active
   work, not the admitted history.

Results land in ``BENCH_service.json`` (summarized by
``crsharing bench-report``).
"""

import time

from repro.service import ArrivalEvent, PoissonStream, SchedulingService

#: Incremental must beat from-scratch by at least this factor on the
#: 500-job streaming workload (the tentpole claim of the service layer).
MIN_INCREMENTAL_SPEEDUP = 5.0

#: The gate workload: 500 Poisson arrivals across 16 logical queues.
GATE_JOBS = 500
GATE_RATE = 4.0
GATE_QUEUES = 16

#: The flat-latency gate: p99(long stream) / p99(short stream) at the
#: gate's rate and queue count must stay at or below this.
MAX_P99_GROWTH = 1.5
FLAT_SHORT_JOBS = 250
FLAT_LONG_JOBS = 2000

#: Arrival rates of the sustained-throughput series.
THROUGHPUT_RATES = (1.0, 2.0, 4.0)
THROUGHPUT_JOBS = 300


def _run_incremental(rate: float, count: int, queues: int):
    stream = PoissonStream(rate=rate, count=count, seed=0)
    service = SchedulingService(mode="incremental", max_queues=queues)
    t0 = time.perf_counter()
    service.run_stream(stream)
    elapsed = time.perf_counter() - t0
    return elapsed, service.report()


def test_service_smoke_throughput(benchmark):
    """pytest-benchmark timing of one short streaming session."""
    stream = PoissonStream(rate=2.0, count=60, seed=3)

    def session():
        service = SchedulingService(mode="incremental", max_queues=8)
        service.run_stream(stream)
        return service.report().completed

    assert benchmark(session) == 60


def test_service_streaming_series_and_gate(results_dir):
    """Both BENCH series, the >= 5x incremental-vs-scratch gate, and
    the flat-latency gate."""
    from conftest import write_bench_store

    rows = []
    for rate in THROUGHPUT_RATES:
        elapsed, report = _run_incremental(rate, THROUGHPUT_JOBS, 8)
        assert report.dropped_events == 0
        assert report.completed == THROUGHPUT_JOBS
        pct = report.latency_percentiles
        rows.append(
            {
                "series": "throughput",
                "rate": rate,
                "jobs": THROUGHPUT_JOBS,
                "seconds": round(elapsed, 3),
                "jobs_per_second": round(report.completed / elapsed, 1),
                "utilization": round(report.utilization, 4),
                "latency_p50_ms": round(pct["p50"] * 1e3, 3),
                "latency_p99_ms": round(pct["p99"] * 1e3, 3),
            }
        )

    # The gate: time the full incremental session, then replay the
    # same workload in from-scratch mode with an early exit once the
    # speedup bound is already proven.
    inc_seconds, inc_report = _run_incremental(
        GATE_RATE, GATE_JOBS, GATE_QUEUES
    )
    assert inc_report.completed == GATE_JOBS
    budget = MIN_INCREMENTAL_SPEEDUP * inc_seconds
    events = list(PoissonStream(rate=GATE_RATE, count=GATE_JOBS, seed=0))
    scratch = SchedulingService(mode="from-scratch", max_queues=GATE_QUEUES)
    t0 = time.perf_counter()
    replayed = 0
    for event in events:
        scratch.submit(ArrivalEvent(event.time, event.job))
        replayed += 1
        if time.perf_counter() - t0 > budget:
            break
    else:
        scratch.drain()
    scratch_seconds = time.perf_counter() - t0
    finished = replayed == len(events)
    # When the baseline was cut short, scratch_seconds / inc_seconds
    # is a *lower bound* on the true speedup (it did less work in
    # more time); when it finished, it is the exact figure.
    speedup = scratch_seconds / inc_seconds
    rows.append(
        {
            "series": "incremental-gate",
            "jobs": GATE_JOBS,
            "rate": GATE_RATE,
            "queues": GATE_QUEUES,
            "incremental_seconds": round(inc_seconds, 3),
            "from_scratch_seconds": round(scratch_seconds, 3),
            "from_scratch_events_replayed": replayed,
            "from_scratch_finished": finished,
            "speedup": round(speedup, 2),
        }
    )
    # The flat-latency gate: same rate and queues, short vs long stream.
    p99_ms = {}
    for jobs in (FLAT_SHORT_JOBS, FLAT_LONG_JOBS):
        _, report = _run_incremental(GATE_RATE, jobs, GATE_QUEUES)
        assert report.completed == jobs
        p99_ms[jobs] = report.latency_percentiles["p99"] * 1e3
    growth = p99_ms[FLAT_LONG_JOBS] / p99_ms[FLAT_SHORT_JOBS]
    rows.append(
        {
            "series": "flat-latency",
            "rate": GATE_RATE,
            "queues": GATE_QUEUES,
            "short_jobs": FLAT_SHORT_JOBS,
            "long_jobs": FLAT_LONG_JOBS,
            "p99_short_ms": round(p99_ms[FLAT_SHORT_JOBS], 3),
            "p99_long_ms": round(p99_ms[FLAT_LONG_JOBS], 3),
            "p99_growth": round(growth, 3),
        }
    )
    write_bench_store(
        results_dir,
        "service",
        rows,
        verdict=bool(
            speedup >= MIN_INCREMENTAL_SPEEDUP and growth <= MAX_P99_GROWTH
        ),
    )
    assert growth <= MAX_P99_GROWTH, (
        f"p99 scheduling latency grew {growth:.2f}x from a "
        f"{FLAT_SHORT_JOBS}-job to a {FLAT_LONG_JOBS}-job stream "
        f"(allowed {MAX_P99_GROWTH}x; {p99_ms[FLAT_SHORT_JOBS]:.3f} ms -> "
        f"{p99_ms[FLAT_LONG_JOBS]:.3f} ms)"
    )
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental re-scheduling only {speedup:.1f}x faster than "
        f"from-scratch (required {MIN_INCREMENTAL_SPEEDUP}x; baseline "
        f"replayed {replayed}/{len(events)} events in "
        f"{scratch_seconds:.1f}s vs {inc_seconds:.1f}s incremental)"
    )
