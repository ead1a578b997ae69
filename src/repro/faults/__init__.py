"""Deterministic fault injection and failure monitoring.

Four modules (see DESIGN.md §10):

* :mod:`repro.faults.plan` — declarative, JSON-round-trippable
  :class:`FaultPlan` / :class:`FaultSpec` descriptions of *what* to
  break, *where* and *when*;
* :mod:`repro.faults.inject` — the seeded :class:`FaultInjector` that
  arms a plan on one RTOS model, the only layer a plan acts on;
* :mod:`repro.faults.detect` — the :class:`FailureMonitor` behind
  ``RTOSModel.task_watch``: eager deadline-miss detection and
  execution-budget watchdogs with ``log`` / ``notify`` / ``kill`` /
  ``skip-cycle`` policies;
* :mod:`repro.faults.campaign` — farm integration: the
  (seed x plan x scheduler) campaign sweep, the mixed-criticality
  ablation (``mc_campaign_run``) and their deterministic report
  (``python -m repro.farm campaign`` / ``mc``).

With nothing armed, every RTOS hook site costs one attribute load and
a ``None`` compare (the obs guard pattern) and traces stay
bit-identical. The kernel, the channel library and the platform carry
no fault hook.
"""

from repro.faults.campaign import (
    PLAN_PRESETS,
    campaign_report,
    campaign_spec,
    mc_campaign_run,
    mc_campaign_spec,
    resolve_plan,
    run_campaign_point,
    write_campaign_report,
)
from repro.faults.detect import POLICIES, FailureMonitor
from repro.faults.inject import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultPlanError, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FailureMonitor",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "PLAN_PRESETS",
    "POLICIES",
    "campaign_report",
    "campaign_spec",
    "mc_campaign_run",
    "mc_campaign_spec",
    "resolve_plan",
    "run_campaign_point",
    "write_campaign_report",
]
