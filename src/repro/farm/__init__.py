"""Parallel experiment-sweep farm (batch simulation substrate).

The paper's results come from running the *same* models under many
configurations (Table 1, the scheduler/preemption discussion of
Section 4.3). This package turns those hand-rolled serial loops into
declarative sweeps executed on a process farm:

* :mod:`repro.farm.sweep` — sweep specs and hashable run configs;
* :mod:`repro.farm.runner` — every point runs once, in-process or in a
  worker pool that enforces the per-run timeout;
* :mod:`repro.farm.results` — aggregation to JSON/CSV and report
  tables;
* :mod:`repro.farm.workloads` — batch-ready run targets (the vocoder
  models, the scheduler-ablation task set).

Command line: ``python -m repro.farm --help``.
"""

from repro.farm.results import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunResult,
    SweepResult,
)
from repro.farm.runner import default_processes, run_sweep
from repro.farm.sweep import (
    RunConfig,
    SweepSpec,
    resolve_target,
    target_name,
)

__all__ = [
    "RunConfig",
    "RunResult",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SweepResult",
    "SweepSpec",
    "default_processes",
    "resolve_target",
    "run_sweep",
    "target_name",
]
