"""Core model of the CRSharing problem (Section 3 of the paper).

This subpackage contains the problem/solution data model (instances,
jobs, schedules), the authoritative step-execution semantics, the
structural schedule properties of Section 4.1, the Lemma 1
normalization transforms, the scheduling hypergraph of Section 3.2,
and the lower bounds used throughout the analysis.
"""

from .checkpoint import (
    KernelCheckpoint,
    checkpoint_run,
    restore_observers,
    restore_runtime,
)
from .continuous import (
    FluidPiece,
    FluidSchedule,
    continuous_greedy_balance,
    continuous_lower_bound,
)
from .hypergraph import Component, SchedulingGraph, build_scheduling_graph
from .instance import Instance
from .job import Job, JobId
from .kernel import (
    CompletionRecorder,
    CoreActivityRecorder,
    ExactRuntime,
    KernelRuntime,
    ObjectiveRecorder,
    ShareRecorder,
    StepEvent,
    StepObserver,
    check_share_vector,
    run_kernel,
)
from .speed_scaling import SpeedScalingJob, completion_times_eq1, to_speed_scaling
from .lower_bounds import (
    best_lower_bound,
    lemma5_bound,
    lemma6_bound,
    length_bound,
    max_lateness_bound,
    tardiness_bound,
    theorem7_reference,
    weighted_flow_bound,
    work_bound,
)
from .numerics import (
    Num,
    as_float,
    format_frac,
    frac_ceil,
    frac_floor,
    frac_sum,
    parse_frac,
    to_frac,
    to_frac_seq,
)
from .properties import (
    balance_violations,
    check_proposition_1,
    check_proposition_2,
    is_balanced,
    is_nested,
    is_nice,
    is_non_wasting,
    is_progressive,
    nested_violations,
)
from .schedule import Schedule, StepExecution
from .simulator import PolicyFn, default_step_limit, run_policy, simulate
from .state import Configuration, ExecState, StepOutcome
from .transforms import make_nice, make_non_wasting

__all__ = [
    "CompletionRecorder",
    "CoreActivityRecorder",
    "Component",
    "Configuration",
    "KernelCheckpoint",
    "checkpoint_run",
    "restore_observers",
    "restore_runtime",
    "ExactRuntime",
    "ExecState",
    "KernelRuntime",
    "ObjectiveRecorder",
    "ShareRecorder",
    "StepEvent",
    "StepObserver",
    "check_share_vector",
    "run_kernel",
    "FluidPiece",
    "FluidSchedule",
    "Instance",
    "Job",
    "JobId",
    "SpeedScalingJob",
    "completion_times_eq1",
    "continuous_greedy_balance",
    "continuous_lower_bound",
    "to_speed_scaling",
    "Num",
    "PolicyFn",
    "Schedule",
    "SchedulingGraph",
    "StepExecution",
    "StepOutcome",
    "as_float",
    "balance_violations",
    "best_lower_bound",
    "build_scheduling_graph",
    "check_proposition_1",
    "check_proposition_2",
    "default_step_limit",
    "format_frac",
    "frac_ceil",
    "frac_floor",
    "frac_sum",
    "is_balanced",
    "is_nested",
    "is_nice",
    "is_non_wasting",
    "is_progressive",
    "lemma5_bound",
    "lemma6_bound",
    "length_bound",
    "make_nice",
    "make_non_wasting",
    "max_lateness_bound",
    "tardiness_bound",
    "weighted_flow_bound",
    "nested_violations",
    "parse_frac",
    "run_policy",
    "simulate",
    "theorem7_reference",
    "to_frac",
    "to_frac_seq",
    "work_bound",
]
