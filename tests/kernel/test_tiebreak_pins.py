"""Byte-pins for the historical tie-breaks.

Every tie-break that the decision-point seam routed through the oracle
is pinned here three ways:

* the bare (no oracle) order is the documented historical one;
* installing :class:`FifoOracle` leaves the observable log identical —
  choice 0 at every decision point *is* the historical tie-break;
* the FifoOracle trail names exactly the multi-choice points reached.

If a future change reorders any of these, the golden traces move too —
this file exists so the failure names the tie-break directly.
"""

import pytest

from repro.kernel import (
    Event,
    FifoOracle,
    Notify,
    ReplayOracle,
    Simulator,
    Wait,
    WaitFor,
)
from repro.kernel.commands import TIMEOUT

pytestmark = pytest.mark.usefixtures("kernel_engine")


def _run(build, oracle=None):
    """Build a scenario, optionally install ``oracle``, run, return log."""
    sim = Simulator()
    log = []
    build(sim, log)
    if oracle is not None:
        sim.install_oracle(oracle)
    sim.run(until=100)
    return log


def _pin(build, expected, trail):
    """Assert the bare run and a FifoOracle run both produce ``expected``
    and that the FifoOracle saw exactly the decisions in ``trail``."""
    assert _run(build) == expected
    oracle = FifoOracle()
    assert _run(build, oracle) == expected
    assert oracle.trail == trail


def test_multi_waiter_wake_order_is_fifo():
    """Waiters on one event resume in the order they started waiting."""

    def build(sim, log):
        evt = Event("e")

        def waiter(name):
            yield Wait(evt)
            log.append(name)

        for name in ("w1", "w2", "w3"):
            sim.spawn(waiter(name), name=name)

        def notifier():
            yield WaitFor(5)
            yield Notify(evt)

        sim.spawn(notifier(), name="n")

    # four spawns drain the initial delta (three decisions), then the
    # wake cohort is one ready-set decision per drained process
    _pin(
        build,
        ["w1", "w2", "w3"],
        ["ready:w1", "ready:w2", "ready:w3", "ready:w1", "ready:w2"],
    )


def test_same_instant_timers_fire_in_insertion_order():
    """Timers due at one instant fire in the order they were inserted,
    regardless of the delays that produced the shared deadline."""

    def build(sim, log):
        def sleeper(name, pre, post):
            if pre:
                yield WaitFor(pre)
            yield WaitFor(post)
            log.append((sim.now, name))

        # all three deadlines land at t=10; the t=10 timers are
        # *inserted* in order a (t=0), b (t=4), c (t=9)
        sim.spawn(sleeper("a", 0, 10), name="a")
        sim.spawn(sleeper("b", 4, 6), name="b")
        sim.spawn(sleeper("c", 9, 1), name="c")

    _pin(
        build,
        [(10, "a"), (10, "b"), (10, "c")],
        ["ready:a", "ready:b", "timer:a", "timer:b", "ready:a", "ready:b"],
    )


def test_wait_any_selects_first_pending_in_argument_order():
    """A Wait executed while several of its events already pend in the
    current delta returns the first pending one in *argument* order,
    not notification order."""

    def build(sim, log):
        e1 = Event("e1")
        e2 = Event("e2")

        def notifier():
            yield WaitFor(5)
            # notify in reverse name order: argument order must win
            yield Notify(e2, e1)

        def waiter():
            yield WaitFor(5)
            fired = yield Wait(e1, e2)
            log.append(fired.name)

        # notifier spawned first so it runs first at t=5 and both
        # events pend when the waiter executes its Wait
        sim.spawn(notifier(), name="n")
        sim.spawn(waiter(), name="w")

    _pin(
        build,
        ["e1"],
        ["ready:n", "timer:n", "ready:n", "waitany:e1"],
    )

    # the seam is live: forcing the alternate wait-any pick flips the
    # observable outcome to the second pending event
    assert _run(build, ReplayOracle([0, 0, 0, 1])) == ["e2"]


def test_timeout_wins_same_instant_notify_race():
    """A Wait timeout due at the same instant as the matching notify is
    a timer-order race: the whole timer cohort fires before any process
    runs, so the waiter takes its TIMEOUT verdict before the notifier
    can execute — the timeout wins. Pinned so the cohort stays a
    decision point ("timer:w" below), not an accident of heap order."""

    def build(sim, log):
        evt = Event("e")

        def waiter():
            fired = yield Wait(evt, timeout=10)
            log.append("timeout" if fired is TIMEOUT else fired.name)

        def notifier():
            yield WaitFor(10)
            yield Notify(evt)

        sim.spawn(waiter(), name="w")
        sim.spawn(notifier(), name="n")

    _pin(build, ["timeout"], ["ready:w", "timer:w", "ready:w"])
