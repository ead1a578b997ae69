"""Engine-control case study: mixed periodic/sporadic hard real time.

The paper motivates the RTOS model with "the dynamic real-time behavior
often found in embedded software"; this application is the classic
automotive shape of that behavior on one ECU:

* **injection** — sporadic task released by the crank-shaft interrupt;
  its deadline is a fraction of the (speed-dependent!) crank period;
* **speed control** — 10 ms periodic control-loop task;
* **diagnostics** — background task that must not disturb the others.

The crank interrupt rate follows an RPM profile, so the workload
exercises exactly what the abstract RTOS model exists to evaluate
early: schedulability of sporadic load against periodic load under a
chosen scheduler, long before an implementation exists.

Times are nanoseconds.
"""

from dataclasses import dataclass, field

from repro.channels import RTOSSemaphore
from repro.kernel import Simulator
from repro.platform import InterruptController, IrqLine
from repro.rtos import APERIODIC, PERIODIC, RTOSModel

MS = 1_000_000


@dataclass
class EngineConfig:
    """Workload parameters of the ECU model."""

    #: RPM profile as (duration_ns, rpm) segments
    profile: tuple = ((100 * MS, 1500), (100 * MS, 4500), (100 * MS, 3000))
    #: injection computation per crank event
    injection_exec: int = 2 * MS
    #: injection deadline as a fraction of the current crank period
    injection_deadline_frac: float = 0.3
    #: control-loop period and execution time
    control_period: int = 10 * MS
    control_exec: int = 3 * MS
    #: delay-annotation granularity of the control task (the preemption
    #: resolution injection sees, per the paper's accuracy discussion)
    control_granularity: int = 1 * MS
    #: diagnostics chunk length (runs forever in the background)
    diag_chunk: int = 1 * MS
    sched: str = "priority"
    preemption: str = "step"

    def crank_period(self, rpm):
        """Nanoseconds between crank interrupts (one per revolution)."""
        return int(60e9 / rpm)


@dataclass
class EngineResult:
    sim: object
    os: object
    injection_latencies: list
    injection_deadline_misses: int
    control_response_times: list
    control_deadline_misses: int
    diag_chunks: int
    crank_events: int
    extra: dict = field(default_factory=dict)

    @property
    def worst_injection_latency(self):
        return max(self.injection_latencies) if self.injection_latencies else 0


def run_engine(config=None, priorities=(1, 2, 9)):
    """Simulate the ECU; ``priorities`` = (injection, control, diag)."""
    config = config or EngineConfig()
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched=config.sched, preemption=config.preemption,
                    name="ecu.os")
    crank_line = IrqLine(sim, "crank")
    crank_sem = RTOSSemaphore(os_, 0, "crank-sem")
    pic = InterruptController(sim, "ecu.pic")

    def crank_isr():
        yield from crank_sem.release()
        os_.interrupt_return()

    pic.register(crank_line, crank_isr)

    # crank interrupt generator following the RPM profile
    crank_times = []
    t = 0
    horizon = 0
    for duration, rpm in config.profile:
        horizon += duration
        period = config.crank_period(rpm)
        if t < horizon - duration:
            t = horizon - duration
        while t < horizon:
            crank_times.append((t, period))
            t += period
    for time, _ in crank_times:
        sim.schedule_at(time, crank_line.raise_irq)
    deadline_of = dict(crank_times)

    injection_latencies = []
    injection_misses = 0

    def injection_body():
        nonlocal injection_misses
        for _ in range(len(crank_times)):
            yield from crank_sem.acquire()
            released = _latest_crank(sim.now)
            yield from os_.time_wait(config.injection_exec)
            latency = sim.now - released
            injection_latencies.append(latency)
            budget = int(
                deadline_of[released] * config.injection_deadline_frac
            )
            if latency > budget:
                injection_misses += 1

    def _latest_crank(now):
        candidates = [time for time, _ in crank_times if time <= now]
        return candidates[-1] if candidates else 0

    def control_body():
        cycles = sum(d for d, _ in config.profile) // config.control_period
        for _ in range(cycles - 1):
            remaining = config.control_exec
            while remaining > 0:
                step = min(config.control_granularity, remaining)
                yield from os_.time_wait(step)
                remaining -= step
            yield from os_.task_endcycle()

    diag_state = {"chunks": 0}

    def diag_body():
        while True:
            yield from os_.time_wait(config.diag_chunk)
            diag_state["chunks"] += 1

    inj_prio, ctl_prio, diag_prio = priorities
    injection = os_.task_create("injection", APERIODIC, 0,
                                config.injection_exec, priority=inj_prio)
    control = os_.task_create("control", PERIODIC, config.control_period,
                              config.control_exec, priority=ctl_prio)
    diag = os_.task_create("diag", APERIODIC, 0, 0, priority=diag_prio)
    sim.spawn(os_.task_body(injection, injection_body()), name="injection")
    sim.spawn(os_.task_body(control, control_body()), name="control")
    sim.spawn(os_.task_body(diag, diag_body()), name="diag")
    os_.spawn_boot()
    sim.run(until=sum(d for d, _ in config.profile))
    return EngineResult(
        sim=sim,
        os=os_,
        injection_latencies=injection_latencies,
        injection_deadline_misses=injection_misses,
        control_response_times=list(control.stats.response_times),
        control_deadline_misses=control.stats.deadline_misses,
        diag_chunks=diag_state["chunks"],
        crank_events=len(crank_times),
        extra={"metrics": os_.metrics.as_dict()},
    )
