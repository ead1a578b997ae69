"""Parallel experiment-sweep farm (batch simulation substrate).

The paper's results come from running the *same* models under many
configurations (Table 1, the scheduler/preemption discussion of
Section 4.3). This package turns those hand-rolled serial loops into
declarative sweeps executed on a process farm with an on-disk result
cache:

* :mod:`repro.farm.sweep` — sweep specs and hashable run configs;
* :mod:`repro.farm.runner` — process-pool fan-out with a per-run
  timeout and a serial in-process fallback; every point runs once;
* :mod:`repro.farm.cache` — JSON result cache keyed by (config hash,
  package version);
* :mod:`repro.farm.results` — aggregation to JSON/CSV and report
  tables;
* :mod:`repro.farm.workloads` — batch-ready run targets (the vocoder
  models, the scheduler-ablation task set).

Command line: ``python -m repro.farm --help``.
"""

from repro.farm.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.farm.results import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunResult,
    SweepResult,
)
from repro.farm.runner import (
    default_processes,
    execute_config,
    run_sweep,
)
from repro.farm.sweep import (
    RunConfig,
    SweepSpec,
    resolve_target,
    target_name,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "RunConfig",
    "RunResult",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SweepResult",
    "SweepSpec",
    "default_processes",
    "execute_config",
    "resolve_target",
    "run_sweep",
    "target_name",
]
