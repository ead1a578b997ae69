"""Exception hierarchy of the SLDL kernel."""

from repro.kernel.process import ProcessState


class KernelError(Exception):
    """Base class for all kernel-level errors."""


class SimulationError(KernelError):
    """An error occurred inside a simulated process.

    Wraps the original exception so the failing process can be identified.
    """

    def __init__(self, process_name, original):
        super().__init__(f"process {process_name!r} raised {original!r}")
        self.process_name = process_name
        self.original = original


def _blocked_on(process):
    """Human-readable description of what ``process`` is blocked on."""
    events = getattr(process, "waiting_events", ())
    if events:
        names = ", ".join(sorted(e.name for e in events))
        label = "events" if len(events) > 1 else "event"
        return f"waiting on {label} [{names}]"
    pending = getattr(process, "pending_children", 0)
    if pending:
        return f"waiting on {pending} unfinished par child(ren)"
    if getattr(process, "state", None) is ProcessState.PARKED:
        return "parked, waiting to be resumed"
    return "blocked (no waited event recorded)"


#: decision-path steps shown in full before the message truncates to
#: the most recent ones (exploration paths can run to thousands)
_PATH_SHOWN = 10


def _format_decision_path(path):
    """Render an oracle decision trail for the deadlock message."""
    path = tuple(path)
    if len(path) <= _PATH_SHOWN:
        steps = " -> ".join(path)
    else:
        shown = " -> ".join(path[-_PATH_SHOWN:])
        steps = f"... {len(path) - _PATH_SHOWN} earlier -> {shown}"
    return f" [decision path: {steps}]"


class DeadlockError(KernelError):
    """Simulation ended with processes still blocked and no pending events.

    The message names every blocked process and what it is waiting on
    (event names carry the owning channel's name for channel waits), so
    a deadlock report alone usually pinpoints the cycle.

    When the simulation ran under an installed
    :class:`~repro.kernel.oracle.ScheduleOracle` — e.g. mid-exploration
    in :mod:`repro.explore` — ``decision_path`` carries the oracle's
    decision trail (``"kind:label"`` per decision) that reached the
    deadlock, and the message appends it, so a violation is diagnosable
    from the exception alone without re-running the schedule.
    """

    def __init__(self, blocked, decision_path=None):
        blocked = tuple(blocked)
        details = "; ".join(
            f"{p.name!r} {_blocked_on(p)}"
            for p in sorted(blocked, key=lambda p: p.name)
        )
        count = len(blocked)
        plural = "es" if count != 1 else ""
        message = (
            f"deadlock: {count} process{plural} still blocked: {details}"
        )
        self.decision_path = tuple(decision_path or ())
        if self.decision_path:
            message += _format_decision_path(self.decision_path)
        super().__init__(message)
        self.blocked = blocked


class UnboundPortError(KernelError):
    """A behavior accessed a port that was never bound to a channel."""
