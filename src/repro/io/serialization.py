"""Exact JSON serialization for instances and schedules.

Rationals are serialized as ``"p/q"`` strings (integers stay bare), so
round-trips are lossless -- a requirement for reproducing experiments
byte-for-byte.  The schema carries a version tag for forward
compatibility.

Schema (instance)::

    {"format": "crsharing-instance", "version": 1,
     "processors": [[{"r": "1/2", "p": 1}, ...], ...],
     "releases": [0, 3, ...]}          # optional; omitted when all 0

Multi-resource instances (``k > 1`` shared resources) are emitted as
version 2 with one requirement *list* per job; single-resource
documents stay byte-identical to version 1, and the reader accepts
both::

    {"format": "crsharing-instance", "version": 2,
     "resources": 2,
     "processors": [[{"r": ["1/2", "1/4"], "p": 1}, ...], ...]}

Instances carrying objective annotations (non-unit job weights or
deadlines, see the pluggable objective layer :mod:`repro.objectives`)
are emitted as version 3 with optional per-job ``"w"`` (weight,
rational) and ``"d"`` (deadline, 1-based integer step) keys; jobs with
default annotations omit the keys, and documents without any
annotation keep their version-1/2 form byte-identical::

    {"format": "crsharing-instance", "version": 3,
     "processors": [[{"r": "1/2", "p": 1, "w": 3, "d": 4}, ...], ...]}

Schema (schedule; single-resource only, like the
:class:`~repro.core.schedule.Schedule` artifact itself)::

    {"format": "crsharing-schedule", "version": 1,
     "instance": {...}, "shares": [["1/2", "0", ...], ...]}
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import wraps
from pathlib import Path
from typing import Any, Callable

from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Schedule
from ..exceptions import InputFormatError, ReproError

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "job_to_dict",
    "job_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_instance",
    "load_instance",
    "save_schedule",
    "load_schedule",
]

_INSTANCE_FORMAT = "crsharing-instance"
_SCHEDULE_FORMAT = "crsharing-schedule"
_VERSION = 1
#: Version emitted for (and accepted from) multi-resource instances.
_VERSION_MULTI = 2
#: Version emitted for (and accepted from) instances with objective
#: annotations (per-job weights / deadlines).
_VERSION_OBJECTIVE = 3


def _typed(kind: str) -> Callable[[Callable], Callable]:
    """Make a *kind* decoder raise :class:`InputFormatError` on malformed input.

    Model violations keep their own :class:`~repro.exceptions.ReproError`.
    """
    article = "an" if kind[0] in "aeiou" else "a"

    def decorate(decode: Callable) -> Callable:
        @wraps(decode)
        def typed(data: Any):
            if not isinstance(data, dict):
                top = type(data).__name__
                raise InputFormatError(f"not {article} {kind} document (got type {top})")
            invalid = f"not a valid {kind} document"
            try:
                return decode(data)
            except ReproError:
                raise
            except KeyError as exc:
                raise InputFormatError(f"{invalid}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise InputFormatError(f"{invalid}: {exc}") from exc
            except ArithmeticError as exc:  # "1/0", an infinite float
                raise InputFormatError(f"{invalid}: {exc!r}") from exc

        return typed

    return decorate


def _frac_out(x: Fraction) -> str | int:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _frac_in(x: str | int | float) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("booleans are not valid rationals")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise ValueError(f"expected int or 'p/q' string, got {x!r}")


def _requirement_out(job: Job) -> Any:
    if job.num_resources == 1:
        return _frac_out(job.requirements[0])
    return [_frac_out(r) for r in job.requirements]


def _requirement_in(value: Any) -> Any:
    if isinstance(value, list):
        return [_frac_in(r) for r in value]
    return _frac_in(value)


def job_to_dict(job: Job) -> dict[str, Any]:
    """Lossless dict form of a single job (the per-job instance schema).

    Keys: ``r`` (requirement, ``"p/q"`` string or list for ``k > 1``),
    ``p`` (processing volume), and the optional objective annotations
    ``w`` (weight) / ``d`` (deadline), omitted at their defaults.  Used
    standalone by the service layer's streaming trace format
    (:mod:`repro.service.events`).
    """
    doc: dict[str, Any] = {
        "r": _requirement_out(job),
        "p": _frac_out(job.size),
    }
    if not job.is_unit_weight:
        doc["w"] = _frac_out(job.weight)
    if job.deadline is not None:
        doc["d"] = job.deadline
    return doc


@_typed("job")
def job_from_dict(doc: dict[str, Any]) -> Job:
    """Inverse of :func:`job_to_dict`.

    Raises:
        InputFormatError: on a malformed document (missing/invalid keys).
    """
    return Job(
        _requirement_in(doc["r"]),
        _frac_in(doc["p"]),
        weight=_frac_in(doc.get("w", 1)),
        deadline=doc.get("d"),
    )


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """Lossless dict form of an instance.

    The ``releases`` key is emitted only for arrival instances, the
    ``resources`` key (with version >= 2 and per-job requirement
    lists) only for multi-resource instances, and the per-job
    ``w``/``d`` objective keys (with version 3) only for annotated
    jobs -- so plain single-resource static documents stay
    byte-compatible with version-1 readers.
    """
    multi = instance.num_resources > 1
    annotated = instance.has_weights or instance.has_deadlines
    if annotated:
        version = _VERSION_OBJECTIVE
    elif multi:
        version = _VERSION_MULTI
    else:
        version = _VERSION
    data: dict[str, Any] = {
        "format": _INSTANCE_FORMAT,
        "version": version,
        "processors": [
            [job_to_dict(job) for job in queue] for queue in instance.queues
        ],
    }
    if multi:
        data["resources"] = instance.num_resources
    if instance.has_releases:
        data["releases"] = list(instance.releases)
    return data


@_typed("instance")
def instance_from_dict(data: dict[str, Any]) -> Instance:
    """Inverse of :func:`instance_to_dict` (accepts versions 1, 2, 3).

    Raises:
        InputFormatError: on schema mismatch, including a ``resources``
            count that contradicts the job requirement vectors.
    """
    if data.get("format") != _INSTANCE_FORMAT:
        raise ValueError(f"not a CRSharing instance document: {data.get('format')!r}")
    if data.get("version") not in (_VERSION, _VERSION_MULTI, _VERSION_OBJECTIVE):
        raise ValueError(f"unsupported version {data.get('version')!r}")
    instance = Instance(
        [[job_from_dict(job) for job in queue] for queue in data["processors"]],
        releases=data.get("releases"),
    )
    declared = data.get("resources")
    if declared is not None and declared != instance.num_resources:
        raise ValueError(
            f"document declares {declared} shared resources but jobs "
            f"carry {instance.num_resources}-entry requirement vectors"
        )
    return instance


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Lossless dict form of a schedule (instance embedded)."""
    return {
        "format": _SCHEDULE_FORMAT,
        "version": _VERSION,
        "instance": instance_to_dict(schedule.instance),
        "shares": [
            [_frac_out(x) for x in step.shares] for step in schedule.steps
        ],
    }


@_typed("schedule")
def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Inverse of :func:`schedule_to_dict` (re-validates on load)."""
    if data.get("format") != _SCHEDULE_FORMAT:
        raise ValueError(f"not a CRSharing schedule document: {data.get('format')!r}")
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    instance = instance_from_dict(data["instance"])
    rows = [[_frac_in(x) for x in row] for row in data["shares"]]
    return Schedule(instance, rows)


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def _load_document(path: str | Path, from_dict):
    """Read, parse and decode one JSON document with *from_dict*.

    The one read-and-parse step behind :func:`load_instance` and
    :func:`load_schedule`.

    Raises:
        InputFormatError: the file cannot be read, is not JSON, or is
            not a document *from_dict* accepts.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputFormatError(f"{path} is not JSON: {exc}") from exc
    try:
        return from_dict(data)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def load_instance(path: str | Path) -> Instance:
    """Read an instance document written by :func:`save_instance`.

    Raises:
        InputFormatError: the file cannot be read, is not JSON, or is
            not a valid instance document.
    """
    return _load_document(path, instance_from_dict)


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule document written by :func:`save_schedule`.

    Raises:
        InputFormatError: the file cannot be read, is not JSON, or is
            not a valid schedule document.
    """
    return _load_document(path, schedule_from_dict)
