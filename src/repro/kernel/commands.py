"""Commands yielded by simulated processes.

A process is a Python generator. Each ``yield`` hands a command object to
the kernel, which executes it and (for blocking commands) suspends the
process until the command completes. The commands map one-to-one onto the
SpecC primitives the paper builds on:

==================  =========================================
SpecC               command
==================  =========================================
``waitfor(d)``      ``yield WaitFor(d)``
``wait(e1, e2)``    ``yield Wait(e1, e2)`` (wait-any)
``notify(e)``       ``yield Notify(e)``
``par { ... }``     ``yield Par(child1, child2, ...)``
spawn/join          ``yield Fork(child)`` / ``yield Join(proc)``
(hand-off)          ``yield PARK`` / ``yield Park(timeout=d)``
==================  =========================================

``Park`` has no SpecC counterpart: it is the kernel half of the RTOS
model's direct task hand-off. A parked process sleeps until another
party calls :meth:`~repro.kernel.simulator.Simulator.resume` on it (the
dispatcher handing it the CPU, a preemption aborting its delay) or
until its optional timeout elapses: one kernel round trip per
hand-off, and no SLDL event.

Commands are plain data objects; the refinement layer
(:mod:`repro.refinement.auto`) relies on this to intercept and translate
them into RTOS-model calls without changing application code.
"""


class _Timeout:
    """Sentinel returned by :class:`Wait` when its timeout fired first."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TIMEOUT"


#: Singleton sentinel: a :class:`Wait` with a timeout returns this when the
#: timeout expired before any of the awaited events was notified.
TIMEOUT = _Timeout()


class Command:
    """Base class of all kernel commands.

    Every concrete command class carries a class-level ``tag``; the
    simulator uses it to register an ``_execute_<tag>`` handler in its
    type-keyed dispatch table (no per-command ``isinstance`` chain on the
    hot path). Subclasses of a concrete command inherit the tag and are
    dispatched to the same handler.
    """

    __slots__ = ()

    #: dispatch key — set by each concrete command class
    tag = None


class WaitFor(Command):
    """Advance simulated time by ``delay`` time units (SpecC ``waitfor``).

    ``delay`` must be a non-negative integer. ``WaitFor(0)`` yields control
    to the other runnable processes of the current timestep without
    advancing time; the singleton :data:`YIELD_CONTROL` is a reusable
    instance of it for allocation-free cooperative yields.
    """

    __slots__ = ("delay",)

    tag = "waitfor"

    def __init__(self, delay):
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.delay = delay

    def __repr__(self):
        return f"WaitFor({self.delay})"


#: Reusable ``WaitFor(0)`` — yield the processor for the rest of the
#: current timestep without allocating a command object.
YIELD_CONTROL = WaitFor(0)


class Wait(Command):
    """Block until any of the given events is notified (SpecC ``wait``).

    The command evaluates to the :class:`~repro.kernel.events.Event` that
    woke the process, i.e. ``fired = yield Wait(e1, e2)``.

    A ``timeout`` (integer time units) may be supplied; if it elapses before
    any event fires, the command evaluates to :data:`TIMEOUT`. This
    extension is used by the RTOS model's *immediate* preemption mode.
    """

    __slots__ = ("events", "timeout")

    tag = "wait"

    def __init__(self, *events, timeout=None):
        if not events and timeout is None:
            raise ValueError("Wait() needs at least one event or a timeout")
        if timeout is not None:
            timeout = int(timeout)
            if timeout < 0:
                raise ValueError(f"negative timeout: {timeout}")
        self.events = events
        self.timeout = timeout

    def __repr__(self):
        names = ", ".join(repr(e) for e in self.events)
        if self.timeout is not None:
            return f"Wait({names}, timeout={self.timeout})"
        return f"Wait({names})"


class Park(Command):
    """Block until resumed by :meth:`Simulator.resume`, or until ``timeout``.

    The command evaluates to ``None`` when the process was resumed and
    to :data:`TIMEOUT` when ``timeout`` (integer time units) elapsed
    first. A parked process waits on no event, so nothing but a
    ``resume`` call or its own timeout wakes it. :data:`PARK` is a
    reusable untimed instance; a timed park may reuse one instance too,
    setting ``timeout`` before each yield — the kernel reads it
    synchronously.
    """

    __slots__ = ("timeout",)

    tag = "park"

    def __init__(self, timeout=None):
        if timeout is not None:
            timeout = int(timeout)
            if timeout < 0:
                raise ValueError(f"negative timeout: {timeout}")
        self.timeout = timeout

    def __repr__(self):
        if self.timeout is not None:
            return f"Park(timeout={self.timeout})"
        return "Park()"


#: Reusable untimed ``Park()``.
PARK = Park()


class Notify(Command):
    """Notify events (SpecC ``notify``); the process continues immediately.

    Delivery follows delta-cycle semantics, see
    :meth:`repro.kernel.events.Event.notify`.
    """

    __slots__ = ("events",)

    tag = "notify"

    def __init__(self, *events):
        if not events:
            raise ValueError("Notify() needs at least one event")
        self.events = events

    def __repr__(self):
        return f"Notify({', '.join(repr(e) for e in self.events)})"


class Now(Command):
    """Read the current simulated time; never blocks.

    Evaluates to the integer timestamp: ``t = yield Now()``. Lets
    sim-agnostic library code (channel timeout loops, instrumentation)
    observe time without holding a simulator reference; the reusable
    singleton :data:`NOW` avoids per-query allocation.
    """

    __slots__ = ()

    tag = "now"

    def __repr__(self):
        return "Now()"


#: Reusable ``Now()`` — query the simulation clock without allocating.
NOW = Now()


class Par(Command):
    """Fork child processes and block until all of them terminate.

    Children may be generators, :class:`~repro.kernel.behavior.Behavior`
    instances (their ``main()`` is used) or ``(name, generator)`` tuples.
    This is SpecC's ``par { ... }`` composition.
    """

    __slots__ = ("children",)

    tag = "par"

    def __init__(self, *children):
        if not children:
            raise ValueError("Par() needs at least one child")
        self.children = children

    def __repr__(self):
        return f"Par(<{len(self.children)} children>)"


class Fork(Command):
    """Spawn an independent child process; evaluates to its Process handle.

    Unlike :class:`Par` the caller does not block. Combine with
    :class:`Join` for explicit fork/join control.
    """

    __slots__ = ("child", "name")

    tag = "fork"

    def __init__(self, child, name=None):
        self.child = child
        self.name = name

    def __repr__(self):
        return f"Fork({self.name or self.child!r})"


class Join(Command):
    """Block until the given :class:`~repro.kernel.process.Process` ends."""

    __slots__ = ("process",)

    tag = "join"

    def __init__(self, process):
        self.process = process

    def __repr__(self):
        return f"Join({self.process!r})"
