#!/usr/bin/env python
"""Walkthrough of the paper's refinement steps (Section 4.2, Figs 5-7).

Takes one specification behavior and refines it into the architecture
model twice — manually, step by step like the paper's figures, and
automatically with the refinement tool — showing both produce the same
schedule.

Run:  python examples/refinement_walkthrough.py
"""

from repro.channels import Queue
from repro.kernel import Par, Simulator, WaitFor
from repro.refinement import (
    DynamicSchedulingRefinement,
    RefinementSpec,
    par_tasks,
    refine_channel,
    task_frame,
)
from repro.rtos import APERIODIC, RTOSModel


def spec_behaviors(sim, q, log):
    """The specification model: producer || consumer over channel c1."""

    def producer():
        for i in range(3):
            yield WaitFor(400)  # computation, d = 400
            yield from q.send(i)

    def consumer():
        for _ in range(3):
            item = yield from q.recv()
            yield WaitFor(250)
            log.append((item, sim.now))

    return producer, consumer


def run_specification():
    sim, log = Simulator(), []
    q = Queue(capacity=1, name="c1")
    producer, consumer = spec_behaviors(sim, q, log)

    def top():
        yield Par(producer(), consumer())

    sim.spawn(top(), name="top")
    sim.run()
    return log


def run_manual_refinement():
    """Figures 5-7 by hand: task_create/activate/terminate frames,
    waitfor -> time_wait, channel refinement."""
    sim, log = Simulator(), []
    os_ = RTOSModel(sim)
    q = refine_channel(Queue(capacity=1, name="c1"), os_)  # Figure 7

    def producer_body():  # Figure 5: body uses RTOS time modeling
        for i in range(3):
            yield from os_.time_wait(400)
            yield from q.send(i)

    def consumer_body():
        for _ in range(3):
            item = yield from q.recv()
            yield from os_.time_wait(250)
            log.append((item, sim.now))

    prod = os_.task_create("producer", APERIODIC, 0, 0, priority=2)
    cons = os_.task_create("consumer", APERIODIC, 0, 0, priority=1)
    parent = os_.task_create("Task_PE", APERIODIC, 0, 0, priority=0)

    def parent_body():  # Figure 6: dynamic fork/join of child tasks
        yield from par_tasks(
            os_, (prod, producer_body()), (cons, consumer_body())
        )

    sim.spawn(task_frame(os_, parent, parent_body()), name="Task_PE")
    os_.spawn_boot()
    sim.run()
    return log


def run_automatic_refinement():
    """The same specification generators, refined by the tool."""
    sim, log = Simulator(), []
    os_ = RTOSModel(sim)
    q = Queue(capacity=1, name="c1")  # stays a specification channel!
    producer, consumer = spec_behaviors(sim, q, log)

    def top():
        yield Par(producer(), consumer())

    ref = DynamicSchedulingRefinement(
        os_,
        RefinementSpec(priorities={
            "Task_PE": 0, "Task_PE.child0": 2, "Task_PE.child1": 1,
        }),
    )
    wrapped, _ = ref.refine_task(top(), name="Task_PE")
    sim.spawn(wrapped, name="Task_PE")
    os_.spawn_boot()
    sim.run()
    return log


def main():
    spec = run_specification()
    manual = run_manual_refinement()
    auto = run_automatic_refinement()
    print("specification model (parallel) :", spec)
    print("manual refinement   (Figs 5-7) :", manual)
    print("automatic refinement (tool)    :", auto)
    assert manual == auto, "both refinement paths must agree"
    print()
    print("both refinement paths produce the identical serialized "
          "schedule;")
    print("the specification overlaps producer/consumer delays, the "
          "refined")
    print("models accumulate them (single CPU under the RTOS model).")


if __name__ == "__main__":
    main()
