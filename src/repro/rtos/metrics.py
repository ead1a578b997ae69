"""Global RTOS-model counters.

These are the numbers Table 1 reports for the architecture model
(context switches) plus everything needed by the scheduler ablations.
Per-task statistics live in :class:`repro.rtos.task.TaskStats`.
"""


class RTOSMetrics:
    """Counters maintained by one :class:`~repro.rtos.model.RTOSModel`."""

    __slots__ = (
        "context_switches",
        "dispatches",
        "preemptions",
        "interrupts",
        "deadline_misses",
        "budget_overruns",
        "policy_kills",
        "cycles_skipped",
        "faults_injected",
        "mode_raises",
        "mode_recoveries",
        "jobs_degraded",
        "busy_time",
        "overhead_time",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        #: CPU occupant changed from one task to a different task
        self.context_switches = 0
        #: scheduler handed the CPU to a task
        self.dispatches = 0
        #: a running task lost the CPU to a higher-urgency task
        self.preemptions = 0
        #: interrupt_return invocations (serviced interrupts)
        self.interrupts = 0
        #: periodic instances that completed after their deadline
        self.deadline_misses = 0
        #: watched tasks that exceeded their execution budget in a cycle
        self.budget_overruns = 0
        #: tasks terminated by a watchdog ``kill`` policy
        self.policy_kills = 0
        #: periodic releases abandoned by a ``skip-cycle`` policy
        self.cycles_skipped = 0
        #: faults an armed injector applied to this model
        self.faults_injected = 0
        #: criticality-mode raises triggered by HI-task overruns (MC)
        self.mode_raises = 0
        #: hysteresis recoveries back toward the base mode (MC)
        self.mode_recoveries = 0
        #: LO-task releases suppressed/stretched while degraded (MC)
        self.jobs_degraded = 0
        #: accumulated simulated time with a task occupying the CPU
        self.busy_time = 0
        #: simulated time spent in modeled kernel overhead (context
        #: switch cost), when the model is configured with one
        self.overhead_time = 0

    def idle_time(self, total_time):
        """Simulated idle time given the total simulated span.

        Modeled kernel overhead occupies the CPU just like task
        execution does, so it is *not* idle time.
        """
        return total_time - self.busy_time - self.overhead_time

    def utilization(self, total_time):
        """Fraction of the simulated span the CPU was occupied (0..1):
        task execution plus modeled kernel overhead."""
        if total_time <= 0:
            return 0.0
        return (self.busy_time + self.overhead_time) / total_time

    def overhead_ratio(self, total_time):
        """Fraction of the simulated span spent in modeled kernel
        overhead (context-switch cost), 0..1."""
        if total_time <= 0:
            return 0.0
        return self.overhead_time / total_time

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self, total_time=None):
        """Counters plus, given the simulated span, the derived ratios.

        With ``total_time`` the snapshot adds ``sim_time``,
        ``idle_time``, ``utilization`` and ``overhead_ratio`` — the
        complete flat metrics dict the farm workloads and result
        tables consume (all JSON-serializable scalars).
        """
        snap = self.as_dict()
        if total_time is not None:
            snap["sim_time"] = total_time
            snap["idle_time"] = self.idle_time(total_time)
            snap["utilization"] = self.utilization(total_time)
            snap["overhead_ratio"] = self.overhead_ratio(total_time)
        return snap

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"RTOSMetrics({inner})"
