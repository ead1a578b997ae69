"""repro — reproduction of "RTOS Modeling for System Level Design" (DATE'03).

Layers (bottom-up, mirroring the paper's Figure 2):

* :mod:`repro.kernel` — SpecC-like SLDL discrete-event simulation kernel.
* :mod:`repro.rtos` — the paper's abstract RTOS model (core contribution).
* :mod:`repro.channels` — communication library (spec + RTOS-refined).
* :mod:`repro.platform` — PEs, busses, drivers, interrupts.
* :mod:`repro.refinement` — unscheduled → architecture model refinement.
* :mod:`repro.synthesis` — backend: ISA/assembler/ISS + custom RTOS kernel.
* :mod:`repro.apps` — Figure-3 example and the vocoder of Table 1.
* :mod:`repro.analysis` — trace analysis, validation, LoC metrics.
* :mod:`repro.obs` — observability: trace sinks, metrics, profiler,
  Chrome-Trace export.
* :mod:`repro.faults` — deterministic fault injection, deadline/budget
  watchdogs, graceful-degradation policies, farm fault campaigns.
"""

__version__ = "1.4.0"
