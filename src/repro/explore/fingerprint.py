"""Canonical state fingerprints for exploration pruning.

A fingerprint is a stable hash of everything scheduling-relevant in a
simulator at a decision point: every live process (name, state, waited
events, relative timer deadline, unfinished par children), the run
queues in order, the pending timer set as ``(time - now, label)`` pairs,
and — when the model declares them — the pending/notified state of its
events plus any model-level extra state. The process state tells a
parked process (an RTOS task waiting for the CPU, or in an abortable
delay) from a plain ``WaitFor`` delay with the same due time: only the
parked one can be cut short by ``Simulator.resume``.

Two design choices matter for pruning power and soundness:

* **Time-shift invariance** (the default): timer deadlines are recorded
  relative to ``now`` and ``now`` itself is excluded, so states that
  differ only by a time offset merge — kernel behavior is relative to
  the current instant. Models whose behavior depends on *absolute* time
  (hierarchical server windows are ``now // period`` aligned) must set
  ``include_now=True``.
* **Declared extra state**: the kernel cannot see model-level state
  (logs, counters) or enumerate events that currently pend with no
  waiter. Pruning assumes two states with equal fingerprints have
  identical continuations *and* identical invariant verdicts, so a
  model whose invariants read such state must surface it through
  ``events=`` / ``state_extra`` — see :class:`repro.explore.models.Model`.
"""

import hashlib

from repro.kernel.process import ProcessState
from repro.kernel.waitcore import timer_label

_TERMINATED = ProcessState.TERMINATED


def event_pending(sim, event):
    """Whether ``event`` currently pends (kernel or RTOS semantics).

    Kernel events pend for the current delta (stamp identity); RTOS
    events pend for the remainder of the current timestep.
    """
    stamp = getattr(event, "_pending_stamp", _MISSING)
    if stamp is not _MISSING:
        return stamp is sim._stamp
    return event.pending_time == sim.now


_MISSING = object()


def _timer_entries(sim):
    """Pending live timers as ``(time - now, label)`` in fire order.

    The timer heap stores ``(time, seq, Timer)`` tuples, so sorting them
    yields fire order; an entry is live while it is its timer's
    ``entry``.
    """
    now = sim.now
    return tuple(
        (entry[0] - now, timer_label(entry[2]))
        for entry in sorted(sim._timers.heap)
        if entry[2].entry is entry
    )


def kernel_fingerprint(sim, include_now=False, events=(), extra=None):
    """Canonical digest of ``sim``'s scheduling-relevant state.

    ``events`` are event objects (kernel or RTOS) whose pending state
    the model's behavior depends on; ``extra`` is an opaque hashable of
    model-level state (pass ``repr``-stable values only). Returns a hex
    digest string.
    """
    now = sim.now
    parts = []
    if include_now:
        parts.append(("now", now))
    for process in sorted(sim._live, key=lambda p: (p.name, p.uid)):
        timer = process.timer
        due = timer.time - now if timer.entry is not None else None
        parts.append((
            process.name,
            process.state.value,
            tuple(sorted(e.name for e in process.waiting_events)),
            due,
            process.pending_children,
        ))
    parts.append((
        "run",
        tuple(p.name for p in sim._run_queue if p.state is not _TERMINATED),
    ))
    parts.append(("next", tuple(p.name for p in sim._next_delta)))
    parts.append(("timers", _timer_entries(sim)))
    if events:
        parts.append((
            "events",
            tuple((e.name, event_pending(sim, e)) for e in events),
        ))
    if extra is not None:
        parts.append(("extra", extra))
    blob = repr(parts).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()
