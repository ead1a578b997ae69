#!/usr/bin/env python
"""Quickstart: model a small multi-tasking system with the RTOS model.

Builds one processing element with a priority-scheduled RTOS, three
tasks (one periodic sensor task, a worker, a logger connected through a
queue) and an external interrupt, then prints the schedule.

Run:  python examples/quickstart.py
"""

from repro.analysis import render_gantt
from repro.channels import RTOSQueue, RTOSSemaphore
from repro.kernel import Simulator
from repro.platform import InterruptController, IrqLine
from repro.rtos import APERIODIC, PERIODIC, RTOSModel


def main():
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority", name="cpu.os")

    queue = RTOSQueue(os_, capacity=4, name="work-queue")
    irq_sem = RTOSSemaphore(os_, 0, name="irq-sem")

    # --- tasks ---------------------------------------------------------

    def sensor_body():
        """Periodic: sample every 1 ms (100 us of work), enqueue."""
        for sample in range(8):
            yield from os_.time_wait(100_000)
            yield from queue.send(sample)
            yield from os_.task_endcycle()

    def worker_body():
        """Crunch queued samples (300 us each)."""
        for _ in range(8):
            sample = yield from queue.recv()
            yield from os_.time_wait(300_000)
            sim.trace.record(sim.now, "user", "worker", f"done-{sample}")

    def alarm_body():
        """Sporadic: released by the external interrupt."""
        yield from irq_sem.acquire()
        yield from os_.time_wait(50_000)
        sim.trace.record(sim.now, "user", "alarm", "handled")

    sensor = os_.task_create("sensor", PERIODIC, 1_000_000, 100_000,
                             priority=2)
    worker = os_.task_create("worker", APERIODIC, 0, 0, priority=5)
    alarm = os_.task_create("alarm", APERIODIC, 0, 0, priority=1)
    sim.spawn(os_.task_body(sensor, sensor_body()), name="sensor")
    sim.spawn(os_.task_body(worker, worker_body()), name="worker")
    sim.spawn(os_.task_body(alarm, alarm_body()), name="alarm")

    # --- an interrupt at t = 3.25 ms ------------------------------------

    line = IrqLine(sim, "ext-irq")
    pic = InterruptController(sim, "cpu.pic")

    def isr():
        yield from irq_sem.release()
        os_.interrupt_return()

    pic.register(line, isr)
    sim.schedule_at(3_250_000, line.raise_irq)

    # --- boot and run ----------------------------------------------------

    os_.spawn_boot()
    sim.run()

    print("schedule (one row per task, # = running):")
    print(render_gantt(sim.trace, actors=["alarm", "sensor", "worker"],
                       width=70))
    print()
    print(f"simulated time : {sim.now / 1e6:.2f} ms")
    print(f"context switches: {os_.metrics.context_switches}")
    print(f"preemptions     : {os_.metrics.preemptions}")
    print(f"CPU utilization : {os_.metrics.utilization(sim.now):.1%}")
    print(f"sensor responses: {sensor.stats.response_times}")


if __name__ == "__main__":
    main()
