"""Analysis: trace queries, Gantt rendering, validation, LoC metrics,
analytic schedulability + simulator cross-validation.

:mod:`~repro.analysis.crossval` and its names load on first access, so
``python -m repro.analysis.crossval`` runs the one copy of it.
"""

import importlib

from repro.analysis import (
    gantt,
    loc,
    report,
    schedulability,
    trace_analysis,
    validate,
    vcd,
)
from repro.analysis.gantt import render as render_gantt
from repro.analysis.report import schedule_report, task_table
from repro.analysis.schedulability import (
    ComponentSpec,
    PESpec,
    SystemSpec,
    TaskSpec,
    bdr_interface,
    check_component,
    check_system,
    dbf,
    sbf_bdr,
    sbf_full,
    sbf_periodic,
)
from repro.analysis.vcd import to_vcd, write_vcd
from repro.analysis.trace_analysis import (
    completion_time,
    context_switch_times,
    exec_segments,
    exec_time_per_actor,
    first_start,
    mark_time,
    marks,
    overlap_exists,
    response_latencies,
)
from repro.analysis.validate import (
    exec_time_preserved,
    same_functional_marks,
    serialized,
)

__all__ = [
    "ComponentSpec",
    "PESpec",
    "SystemSpec",
    "TaskSpec",
    "bdr_interface",
    "check_component",
    "check_system",
    "completion_time",
    "context_switch_times",
    "cross_validate",
    "crossval",
    "dbf",
    "exec_segments",
    "exec_time_per_actor",
    "exec_time_preserved",
    "first_start",
    "gantt",
    "generate_matrix",
    "loc",
    "mark_time",
    "marks",
    "overlap_exists",
    "render_gantt",
    "response_latencies",
    "report",
    "same_functional_marks",
    "sbf_bdr",
    "sbf_full",
    "sbf_periodic",
    "schedulability",
    "schedule_report",
    "serialized",
    "simulate",
    "task_table",
    "to_vcd",
    "trace_analysis",
    "validate",
    "vcd",
    "write_vcd",
]


def __getattr__(name):
    if name in ("crossval", "cross_validate", "generate_matrix", "simulate"):
        crossval = importlib.import_module("repro.analysis.crossval")
        return crossval if name == "crossval" else getattr(crossval, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
