"""Declarative fault plans: what to break, where, and when.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries.
Each spec names one fault *kind* (a hook point in the simulation stack)
plus kind-specific parameters — which task/line/event/channel it applies
to, a time window, a probability, a magnitude. Plans are pure data:
they validate eagerly, round-trip through JSON (``to_dict`` /
``from_dict`` / ``from_json``) and carry no simulator state, so the
same plan object can arm many independent runs.

All randomness lives in the :class:`~repro.faults.inject.FaultInjector`
that executes a plan (one ``random.Random(seed)`` stream, consumed in
deterministic simulation order); specs with ``prob == 1.0`` never draw
from the stream, so fully deterministic plans stay deterministic no
matter the seed.

Fault kinds
-----------
``exec_jitter``
    Scale and/or offset the delays a task requests via ``time_wait``
    (execution-time jitter / systematic overrun).
``task_crash``
    Forcibly terminate a task at simulated time ``at`` (as if the
    firmware crashed; the RTOS reaps it like ``task_kill``).
``task_hang``
    At its first ``time_wait`` at or after ``at``, the task stops
    making progress but never yields the CPU — a livelock/while(1)
    hang only a watchdog ``kill`` policy can recover from.
``drop_irq``
    Lose raised interrupts on a platform ``IrqLine`` (the assertion
    never reaches the controller).
``spurious_irq``
    Raise extra interrupts on a line at explicit simulated times.
``lost_notify``
    An ``event_notify`` happens but wakes nobody (delivery lost).
``dup_notify``
    An ``event_notify`` delivers twice (glitching edge).
``stuck_channel``
    From time ``at`` on, the given channel operation blocks forever.
``slow_channel``
    The given channel operation is delayed by ``delay`` time units
    before it proceeds.
"""

import json


#: per-kind parameter tables: required names, optional name -> default
_KINDS = {
    "exec_jitter": (
        (),
        {"task": None, "scale": 1.0, "offset": 0, "prob": 1.0,
         "start": 0, "end": None},
    ),
    "task_crash": (("task", "at"), {}),
    "task_hang": (("task", "at"), {}),
    "drop_irq": (
        (),
        {"line": None, "prob": 1.0, "start": 0, "end": None},
    ),
    "spurious_irq": (("times",), {"line": None}),
    "lost_notify": (
        (),
        {"event": None, "prob": 1.0, "start": 0, "end": None},
    ),
    "dup_notify": (
        (),
        {"event": None, "prob": 1.0, "start": 0, "end": None},
    ),
    "stuck_channel": ((), {"channel": None, "op": None, "at": 0}),
    "slow_channel": (
        ("delay",),
        {"channel": None, "op": None, "prob": 1.0, "start": 0, "end": None},
    ),
}

FAULT_KINDS = tuple(sorted(_KINDS))


class FaultPlanError(ValueError):
    """A fault spec or plan failed validation."""


class FaultSpec:
    """One validated fault description (see module doc for the kinds).

    Construct with the kind plus keyword parameters::

        FaultSpec("exec_jitter", task="t3", scale=1.5, prob=0.3)
        FaultSpec("task_crash", task="t1", at=2_000_000)

    Unknown kinds, unknown parameters, missing required parameters,
    out-of-range values and ``None`` for a field whose default is not
    ``None`` raise :class:`FaultPlanError` eagerly. Every
    field of the spec's kind, defaults included, is a plain attribute
    (``spec.task``); :attr:`params` is the same fields as a dict.
    """

    # the fields live in the instance dict, so an attribute read is an
    # ordinary lookup and a field of another kind is simply missing
    __slots__ = ("kind", "__dict__")

    def __init__(self, kind, **params):
        if kind not in _KINDS:
            raise FaultPlanError(
                f"unknown fault kind {kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        required, optional = _KINDS[kind]
        for name in required:
            if name not in params:
                raise FaultPlanError(f"{kind}: missing required field {name!r}")
        merged = dict(optional)
        for name, value in params.items():
            if name not in required and name not in optional:
                raise FaultPlanError(f"{kind}: unknown field {name!r}")
            # None means "any" or "no end" only where it is the default
            if value is None and (name in required or optional[name] is not None):
                raise FaultPlanError(f"{kind}: field {name!r} must not be None")
            merged[name] = value
        self.kind = kind
        self.__dict__ = merged
        self._validate()

    @property
    def params(self):
        """The spec's fields by name (the dict its attributes read)."""
        return self.__dict__

    def __setattr__(self, name, value):
        # fields are read-only attributes, and no attribute can add one
        if name not in FaultSpec.__slots__:
            raise AttributeError(f"FaultSpec attribute {name!r} is read-only")
        object.__setattr__(self, name, value)

    def _validate(self):
        p = self.params
        prob = p.get("prob")
        if prob is not None and not 0.0 <= prob <= 1.0:
            raise FaultPlanError(f"{self.kind}: prob must be in [0, 1], got {prob}")
        for field in ("at", "start", "delay"):
            value = p.get(field)
            if value is not None and value < 0:
                raise FaultPlanError(
                    f"{self.kind}: {field} must be >= 0, got {value}"
                )
        end = p.get("end")
        if end is not None and end < p.get("start", 0):
            raise FaultPlanError(
                f"{self.kind}: end ({end}) precedes start ({p.get('start', 0)})"
            )
        if self.kind == "exec_jitter":
            if p["scale"] < 0:
                raise FaultPlanError(f"exec_jitter: scale must be >= 0, got {p['scale']}")
        if self.kind == "spurious_irq":
            times = p["times"]
            if not times or any(t < 0 for t in times):
                raise FaultPlanError(
                    "spurious_irq: times must be a non-empty list of times >= 0"
                )
            p["times"] = sorted(int(t) for t in times)
        if self.kind in ("stuck_channel", "slow_channel"):
            op = p["op"]
            if op is not None and not isinstance(op, str):
                raise FaultPlanError(f"{self.kind}: op must be a string or None")

    def in_window(self, now):
        """True when ``now`` falls inside this spec's [start, end] window."""
        if now < self.params.get("start", 0):
            return False
        end = self.params.get("end")
        return end is None or now <= end

    def to_dict(self):
        data = {"kind": self.kind}
        for name, value in self.params.items():
            if value is not None:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        try:
            kind = data.pop("kind")
        except KeyError:
            raise FaultPlanError(f"fault spec without a 'kind': {data!r}") from None
        return cls(kind, **data)

    def __repr__(self):
        fields = ", ".join(
            f"{k}={v!r}" for k, v in self.params.items() if v is not None
        )
        return f"FaultSpec({self.kind!r}, {fields})" if fields else f"FaultSpec({self.kind!r})"

    def __eq__(self, other):
        return (
            isinstance(other, FaultSpec)
            and self.kind == other.kind
            and self.params == other.params
        )


class FaultPlan:
    """An ordered, validated collection of :class:`FaultSpec`.

    Accepts specs, dicts (``{"kind": ..., ...}``) or a mix::

        FaultPlan([
            {"kind": "exec_jitter", "scale": 1.3, "prob": 0.5},
            FaultSpec("task_crash", task="t1", at=2_000_000),
        ])
    """

    __slots__ = ("specs", "_by_kind")

    def __init__(self, specs=()):
        normalized = []
        for spec in specs:
            if isinstance(spec, FaultSpec):
                normalized.append(spec)
            elif isinstance(spec, dict):
                normalized.append(FaultSpec.from_dict(spec))
            else:
                raise FaultPlanError(
                    f"fault spec must be a FaultSpec or dict, got {type(spec).__name__}"
                )
        self.specs = tuple(normalized)
        by_kind = {}
        for spec in self.specs:
            by_kind.setdefault(spec.kind, []).append(spec)
        self._by_kind = {kind: tuple(v) for kind, v in by_kind.items()}

    def of_kind(self, kind):
        """All specs of one kind, in plan order (empty tuple if none)."""
        return self._by_kind.get(kind, ())

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __bool__(self):
        return bool(self.specs)

    def __eq__(self, other):
        return isinstance(other, FaultPlan) and self.specs == other.specs

    def to_dict(self):
        return {"faults": [spec.to_dict() for spec in self.specs]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        if isinstance(data, (list, tuple)):
            return cls(data)
        try:
            specs = data["faults"]
        except (TypeError, KeyError):
            raise FaultPlanError(
                f"fault plan must be a list or {{'faults': [...]}}, got {data!r}"
            ) from None
        return cls(specs)

    @classmethod
    def from_json(cls, payload):
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid fault-plan JSON: {exc}") from None
        return cls.from_dict(data)

    def __repr__(self):
        return f"FaultPlan({list(self.specs)!r})"
