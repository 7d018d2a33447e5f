"""repro -- reproduction of *Scheduling Shared Continuous Resources on
Many-Cores* (Althaus, Brinkmann, Kling, Meyer auf der Heide, Nagel,
Riechers, Sgall, Suess; SPAA 2014 / Journal of Scheduling).

The CRSharing problem: ``m`` processors share one continuously
divisible resource; each job needs a share ``r in [0,1]`` to run at
full speed and slows down proportionally below it; job order per
processor is fixed; minimize makespan.

Quickstart::

    from repro import Instance, GreedyBalance, opt_res_assignment

    inst = Instance.from_percent([[99, 7, 1], [98, 1, 1]])
    schedule = GreedyBalance().run(inst)
    optimal = opt_res_assignment(inst)
    print(schedule.makespan, optimal.makespan)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` -- instances, schedules, the one stepping kernel
  and its observers (shares, completions, objectives, per-core
  busy/stall and bus use), structural properties, hypergraphs, lower
  bounds;
* :mod:`repro.backends`, :mod:`repro.kernels` -- exact, vector,
  batched and fused compiled execution; each run picks its own path
  (:func:`repro.kernels.decide`), there is no switch to set;
* :mod:`repro.algorithms` -- RoundRobin (Thm 3), GreedyBalance
  (Thm 7/8), exact algorithms for m=2 (Thm 5) and fixed m (Thm 6),
  oracles;
* :mod:`repro.reductions` -- Partition and the Theorem 4 NP-hardness
  gadget;
* :mod:`repro.generators` -- figure examples, adversarial families,
  random families, synthetic many-core workloads;
* :mod:`repro.sequencing` -- queue order / placement as a decision
  variable (static orders, greedy placement, local search);
* :mod:`repro.telemetry` -- structured tracing, metrics, and the
  hot-spot profiler (zero-cost unless a session is installed);
* :mod:`repro.experiments` -- one reproduction per figure/theorem;
* :mod:`repro.analysis`, :mod:`repro.viz`, :mod:`repro.io` -- metrics,
  rendering, serialization.
"""

from ._version import __version__
from .backends import (
    BatchRunner,
    ExactBackend,
    VectorBackend,
    available_backends,
    cross_validate,
    get_backend,
)
from .algorithms import (
    GreedyBalance,
    Policy,
    RoundRobin,
    available_policies,
    brute_force_makespan,
    get_policy,
    milp_makespan,
    opt_res_assignment,
    opt_res_assignment_general,
    opt_res_assignment_pq,
)
from .core import (
    Instance,
    Job,
    Schedule,
    SchedulingGraph,
    best_lower_bound,
    is_balanced,
    is_nested,
    is_non_wasting,
    is_progressive,
    make_nice,
    run_policy,
    simulate,
)
from .exceptions import (
    InfeasibleAssignmentError,
    InvalidInstanceError,
    InvalidScheduleError,
    ObserverError,
    ReproError,
    SequencingError,
    SimulationLimitError,
    SolverError,
    UnitSizeRequiredError,
    UnknownPolicyError,
)
from .sequencing import (
    Sequencer,
    available_sequencers,
    get_sequencer,
)
from .objectives import (
    Makespan,
    Objective,
    Tardiness,
    WeightedFlowTime,
    available_objectives,
    get_objective,
)
from .telemetry import (
    TelemetrySession,
    get_session,
    phase_report,
    set_session,
    use_session,
)

__all__ = [
    "BatchRunner",
    "ExactBackend",
    "GreedyBalance",
    "Instance",
    "InfeasibleAssignmentError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "Job",
    "Makespan",
    "Objective",
    "ObserverError",
    "Policy",
    "ReproError",
    "RoundRobin",
    "Schedule",
    "SchedulingGraph",
    "Sequencer",
    "SequencingError",
    "SimulationLimitError",
    "SolverError",
    "Tardiness",
    "TelemetrySession",
    "UnitSizeRequiredError",
    "UnknownPolicyError",
    "VectorBackend",
    "WeightedFlowTime",
    "__version__",
    "available_backends",
    "available_objectives",
    "available_policies",
    "available_sequencers",
    "get_objective",
    "get_sequencer",
    "cross_validate",
    "get_backend",
    "best_lower_bound",
    "brute_force_makespan",
    "get_policy",
    "get_session",
    "is_balanced",
    "is_nested",
    "is_non_wasting",
    "is_progressive",
    "make_nice",
    "milp_makespan",
    "opt_res_assignment",
    "opt_res_assignment_general",
    "opt_res_assignment_pq",
    "phase_report",
    "run_policy",
    "set_session",
    "simulate",
    "use_session",
]
