"""Declarative experiment-sweep specifications.

A sweep is a *target* (a callable resolvable by dotted path, so worker
processes can import it) plus a parameter space: fixed base parameters,
grid axes (cartesian product) and explicit extra points. :meth:`SweepSpec.
expand` turns it into a list of hashable :class:`RunConfig` objects, each
identified by a stable content hash.

Example — the vocoder scheduler x preemption sweep of the paper's
Section 4.3 discussion::

    spec = (
        SweepSpec("repro.farm.workloads:vocoder_architecture_run",
                  base={"n_frames": 10})
        .axis("sched", ["priority", "rr", "edf"])
        .axis("preemption", ["step", "immediate"])
        .axis("switch_overhead", [0, 20_000])
    )
    configs = spec.expand()          # 12 RunConfigs
"""

import hashlib
import importlib
import itertools
import json


def resolve_target(target):
    """Resolve a ``"module:callable"`` dotted path to the callable."""
    name = target_name(target)
    module_name, _, attr_path = name.partition(":")
    obj = importlib.import_module(module_name)
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"target {name!r} is not callable")
    return obj


def target_name(target):
    """Canonical ``"module:qualname"`` name for a sweep target.

    Accepts either a dotted-path string or a module-level callable (any
    callable factory — functions, classes). Lambdas, closures and bound
    methods are rejected: worker processes must be able to re-import
    the target by name.
    """
    if isinstance(target, str):
        if ":" not in target:
            raise ValueError(
                f"target {target!r} must be a 'module:callable' path"
            )
        return target
    module = getattr(target, "__module__", None)
    qualname = getattr(target, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise TypeError(
            f"target {target!r} is not importable by name; use a "
            "module-level callable or a 'module:callable' string"
        )
    return f"{module}:{qualname}"


def _canonical(value):
    """Canonical JSON for hashing: sorted keys, tuples as lists."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_jsonify)


def _jsonify(value):
    if isinstance(value, (tuple, set, frozenset)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    raise TypeError(f"unhashable sweep parameter: {value!r}")


class RunConfig:
    """One point of a sweep: target + keyword parameters.

    Hashable and order-insensitive in its parameters; :meth:`key` is a
    stable content hash, the identity of its result.
    """

    __slots__ = ("target", "params", "_key")

    def __init__(self, target, params=None):
        self.target = target_name(target)
        items = tuple(sorted((params or {}).items()))
        self.params = items
        self._key = None

    @property
    def kwargs(self):
        return dict(self.params)

    def key(self):
        if self._key is None:
            payload = _canonical(
                {"target": self.target, "params": self.kwargs}
            )
            self._key = hashlib.sha256(payload.encode()).hexdigest()[:24]
        return self._key

    def label(self, varying=None):
        """Short human label; with ``varying`` only those params show."""
        kwargs = self.kwargs
        names = varying if varying is not None else sorted(kwargs)
        inner = ",".join(f"{n}={kwargs[n]}" for n in names if n in kwargs)
        base = self.target.rpartition(":")[2]
        return f"{base}({inner})"

    def __hash__(self):
        return hash((self.target, self.params))

    def __eq__(self, other):
        return (
            isinstance(other, RunConfig)
            and self.target == other.target
            and self.params == other.params
        )

    def __repr__(self):
        return f"RunConfig({self.label()})"


class SweepSpec:
    """Declarative sweep: base params + grid axes + explicit points."""

    def __init__(self, target, base=None):
        self.target = target_name(target)
        self.base = dict(base or {})
        self._axes = []  # (name, [values...])
        self._points = []  # explicit param dicts (merged over base)

    def axis(self, name, values):
        """Add a grid axis; returns self for chaining."""
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        self._axes.append((name, values))
        return self

    def point(self, **params):
        """Add one explicit configuration (merged over the base)."""
        self._points.append(dict(params))
        return self

    @property
    def varying(self):
        """Names of parameters that differ across the sweep."""
        names = [name for name, _ in self._axes]
        for point in self._points:
            for name in point:
                if name not in names:
                    names.append(name)
        return names

    def expand(self):
        """All run configs: the axis grid, then the explicit points."""
        configs = []
        seen = set()
        axis_names = [name for name, _ in self._axes]
        axis_values = [values for _, values in self._axes]
        # the empty product is one bare-base config; suppress it when the
        # sweep is defined purely by explicit points
        grid = (
            itertools.product(*axis_values)
            if self._axes or not self._points else ()
        )
        for combo in grid:
            params = dict(self.base)
            params.update(zip(axis_names, combo))
            config = RunConfig(self.target, params)
            if config not in seen:
                seen.add(config)
                configs.append(config)
        for point in self._points:
            params = dict(self.base)
            params.update(point)
            config = RunConfig(self.target, params)
            if config not in seen:
                seen.add(config)
                configs.append(config)
        return configs

    def __len__(self):
        if not self._axes and self._points:
            return len(self._points)
        n = 1
        for _, values in self._axes:
            n *= len(values)
        return n + len(self._points)

    @classmethod
    def from_dict(cls, data):
        """Build a spec from a JSON-style dict::

            {"target": "module:callable",
             "base": {...}, "axes": {"param": [v1, v2]},
             "points": [{...}, ...]}
        """
        spec = cls(data["target"], base=data.get("base"))
        for name, values in (data.get("axes") or {}).items():
            spec.axis(name, values)
        for point in data.get("points") or []:
            spec.point(**point)
        return spec

    def __repr__(self):
        return (
            f"SweepSpec({self.target}, {len(self)} configs, "
            f"axes={[n for n, _ in self._axes]})"
        )
