"""Task control blocks and the task state machine.

Task management in the RTOS model follows the customary design the paper
cites (Buttazzo, *Hard Real-Time Computing Systems*): tasks transition
between states and a queue is associated with each state. The states:

::

              task_create              task_activate
      (none) ------------->  NEW  ----------------->  READY <---------+
                                                        |  ^          |
                                          dispatch      |  | preempt  |
                                                        v  |          |
       TERMINATED <------- task_terminate/kill ------ RUNNING         |
                                                        |             |
          event_wait / task_sleep / par_start /         |   notify /  |
          task_endcycle                                 v   activate/ |
                                                     {WAITING,        |
                                                      SLEEPING,       |
                                                      PARENT_WAIT,  --+
                                                      IDLE_PERIOD}

Priorities are integers with **lower value = higher priority** (0 is the
highest), the convention of most fixed-priority kernels.
"""

import enum
import itertools

from repro.kernel.events import Event

#: aperiodic real-time task with a fixed priority (paper's non-periodic)
APERIODIC = 0
#: periodic hard real-time task with an implicit deadline (= period)
PERIODIC = 1

#: priority assigned when the creator does not specify one
DEFAULT_PRIORITY = 100

# fallback uid source for tasks constructed outside a TaskManager (the
# manager owns a per-model counter, so multi-model runs get
# construction-order-independent uids)
_task_seq = itertools.count()


class TaskState(enum.Enum):
    NEW = "new"  # created, not yet activated
    READY = "ready"  # in the ready queue, waiting for the CPU
    RUNNING = "running"  # occupying the (single) CPU of its PE
    WAITING = "waiting"  # blocked on an RTOS event
    SLEEPING = "sleeping"  # suspended via task_sleep
    PARENT_WAIT = "parent_wait"  # suspended in par_start .. par_end
    IDLE_PERIOD = "idle_period"  # periodic task waiting for next release
    TERMINATED = "terminated"


class Task:
    """Task control block (the paper's ``proc`` handle).

    Created by :meth:`repro.rtos.model.RTOSModel.task_create`; all fields
    are managed by the RTOS model.
    """

    __slots__ = (
        "name",
        "uid",
        "tasktype",
        "period",
        "wcet",
        "priority",
        "rel_deadline",
        "state",
        "kill_evt",
        "process",
        "ready_seq",
        "sched_key",
        "release_time",
        "release_seq",
        "release_timer",
        "abs_deadline",
        "activation_time",
        "run_start",
        "slice_start",
        "worked_since_release",
        "killed",
        "stats",
        "waiting_events",
        "wait_timer",
        "wake_value",
        "joiners",
        "join_target",
        "base_priority",
        "pi_locks",
        "criticality",
        "wcet_levels",
    )

    def __init__(self, name, tasktype, period, wcet, priority, rel_deadline=None,
                 uid=None):
        self.name = name
        self.uid = next(_task_seq) if uid is None else uid
        self.tasktype = tasktype
        self.period = int(period)
        self.wcet = int(wcet)
        self.priority = priority
        #: relative deadline (EDF); defaults to the period for periodic tasks
        self.rel_deadline = rel_deadline
        self.state = TaskState.NEW
        #: SLDL event fired when the task is killed, for blocking code
        #: outside the RTOS model that must notice the kill (bus
        #: arbitration with ``owner=``). Inside the model the task's
        #: process never waits on an SLDL event to get or lose the CPU:
        #: it parks, and the dispatcher resumes it
        self.kill_evt = Event(f"{name}.kill")
        #: kernel Process bound at first activation
        self.process = None
        #: FIFO tie-break within equal scheduler keys
        self.ready_seq = 0
        #: ``(policy key, ready_seq)`` stored by the scheduler when the
        #: task entered its ready queue (``Scheduler.rekey`` updates it)
        self.sched_key = None
        #: release time of the current periodic instance
        self.release_time = 0
        #: monotonically increasing release id: bumped on every
        #: ``_set_release``, so watchdog timers can detect staleness even
        #: across same-instant or fast-forwarded re-releases (release
        #: *times* are not unique under skip-cycle / overrun releases)
        self.release_seq = 0
        #: periodic tasks: the timer of the next release, owned for life
        #: (armed by ``task_endcycle``, and by the MC controller while it
        #: drops releases)
        self.release_timer = None
        #: absolute deadline of the current instance (EDF)
        self.abs_deadline = None
        self.activation_time = None
        #: time this task last acquired the CPU (trace segments)
        self.run_start = None
        #: time of last dispatch (round-robin slicing)
        self.slice_start = None
        #: did this task consume execution time / block since its
        #: current release? (final-cycle response-time accounting)
        self.worked_since_release = False
        self.killed = False
        self.stats = TaskStats()
        #: RTOS events this task is currently enrolled on (wait-any set)
        self.waiting_events = ()
        #: armed timeout timer of the current event wait, if any
        self.wait_timer = None
        #: what woke the last event wait: the fired RTOSEvent or TIMEOUT
        self.wake_value = None
        #: tasks blocked in task_join on this task's termination
        self.joiners = []
        #: the task this task is blocked joining on, if any
        self.join_target = None
        #: pre-inheritance priority while boosted by a PI mutex (None
        #: when the task holds no priority-inheritance locks)
        self.base_priority = None
        #: priority-inheritance mutexes currently held; unlock recomputes
        #: the inherited priority over the waiters of the remaining ones
        self.pi_locks = []
        #: mixed-criticality level, ``"LO"`` or ``"HI"`` (``None``
        #: outside MC models), and the ``(lo, hi)`` execution budget
        #: pair, managed by ``repro.rtos.mc``
        self.criticality = None
        self.wcet_levels = None

    # -- scheduler helpers --------------------------------------------------

    @property
    def is_periodic(self):
        return self.tasktype == PERIODIC

    def effective_deadline(self):
        """Absolute deadline used by EDF; +inf when none applies."""
        if self.abs_deadline is None:
            return float("inf")
        return self.abs_deadline

    def __repr__(self):
        return f"Task({self.name!r}, prio={self.priority}, {self.state.value})"


class TaskStats:
    """Per-task counters maintained by the RTOS model."""

    __slots__ = (
        "activations",
        "cycles_completed",
        "deadline_misses",
        "preemptions",
        "dispatches",
        "exec_time",
        "response_times",
    )

    def __init__(self):
        self.activations = 0
        self.cycles_completed = 0
        self.deadline_misses = 0
        self.preemptions = 0
        self.dispatches = 0
        self.exec_time = 0
        #: completion − release, one entry per completed periodic cycle
        #: (or activation→termination for aperiodic tasks)
        self.response_times = []

    @property
    def worst_response(self):
        return max(self.response_times) if self.response_times else None

    @property
    def avg_response(self):
        if not self.response_times:
            return None
        return sum(self.response_times) / len(self.response_times)
