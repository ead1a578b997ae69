"""Fingerprint contract: stability and sensitivity."""

from repro.explore import event_pending, kernel_fingerprint
from repro.explore.models import build, ties3
from repro.kernel import PARK, Event, Notify, Park, Simulator, WaitFor


def test_fresh_identical_models_share_a_fingerprint():
    a = ties3()
    b = ties3()
    assert kernel_fingerprint(a.sim) == kernel_fingerprint(b.sim)


def test_progress_changes_the_fingerprint():
    model = ties3()
    before = kernel_fingerprint(model.sim)
    model.sim.run(until=10)
    assert kernel_fingerprint(model.sim) != before


def test_fingerprints_are_time_shift_invariant_by_default():
    def sleeper(sim):
        def _p():
            while True:
                yield WaitFor(7)

        sim.spawn(_p(), name="p")

    a = Simulator()
    sleeper(a)
    a.run(until=7)
    b = Simulator()
    sleeper(b)
    b.run(until=21)
    # same relative state (mid-cycle, timer 7 away), different absolute
    # time: equal by default, distinct once ``now`` is included
    assert kernel_fingerprint(a) == kernel_fingerprint(b)
    assert kernel_fingerprint(a, include_now=True) != kernel_fingerprint(
        b, include_now=True
    )


def test_declared_extra_state_distinguishes_states():
    model = ties3()
    base = kernel_fingerprint(model.sim, extra=("x", 0))
    assert kernel_fingerprint(model.sim, extra=("x", 1)) != base
    assert kernel_fingerprint(model.sim, extra=("x", 0)) == base


def test_event_pending_kernel_semantics():
    sim = Simulator()
    evt = Event("e")
    seen = []

    def notifier():
        yield WaitFor(5)
        seen.append(event_pending(sim, evt))
        yield Notify(evt)
        seen.append(event_pending(sim, evt))

    sim.spawn(notifier(), name="n")
    sim.run(until=10)
    # not pending before the notify; pending within the issuing delta
    assert seen == [False, True]
    # a kernel notification does not survive to the end of the run
    assert event_pending(sim, evt) is False


def test_event_pending_rtos_semantics():
    # RTOS events expose ``pending_time`` (pend for the remainder of
    # the issuing timestep) instead of the kernel's delta stamp
    model = build("lostnotify")
    evt = model.events[0]
    sim = model.sim
    assert not hasattr(evt, "_pending_stamp")
    assert event_pending(sim, evt) is False
    evt.pending_time = sim.now
    assert event_pending(sim, evt) is True
    sim.run(until=1)
    assert event_pending(sim, evt) is False


def test_parked_delay_is_not_a_plain_delay():
    """An abortable (parked) delay and a plain WaitFor with the same due
    time continue differently — only the first can be resumed early —
    so they must not share a fingerprint."""

    def one(command):
        sim = Simulator()

        def _p():
            yield command

        sim.spawn(_p(), name="p")
        sim.run(until=0)
        return kernel_fingerprint(sim)

    assert one(Park(timeout=7)) != one(WaitFor(7))
    assert one(Park(timeout=7)) != one(Park(timeout=8))
    assert one(PARK) != one(Park(timeout=7))
