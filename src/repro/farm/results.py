"""Sweep results: machine-readable JSON/CSV + report tables.

Each run produces a :class:`RunResult`; a whole sweep is a
:class:`SweepResult`, which flattens per-run metric dicts into rows
(one column per metric key, in first-seen order) for CSV export and a
``schedule_report``-style fixed-width table.
"""

import csv
import io
import json


#: terminal statuses a run can end in
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"


class RunResult:
    """Outcome of one sweep point."""

    __slots__ = ("config", "status", "value", "error", "elapsed")

    def __init__(self, config, status, value=None, error=None, elapsed=0.0):
        self.config = config
        self.status = status
        self.value = value
        self.error = error
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.status == STATUS_OK

    def as_dict(self):
        return {
            "target": self.config.target,
            "params": self.config.kwargs,
            "key": self.config.key(),
            "status": self.status,
            "result": self.value if self.ok else None,
            "error": self.error,
            "elapsed": self.elapsed,
        }

    def __repr__(self):
        return f"RunResult({self.config.label()}, {self.status})"


class SweepResult:
    """Ordered collection of :class:`RunResult` for one sweep."""

    def __init__(self, results, varying=None, wall_seconds=0.0):
        self.results = list(results)
        #: parameter names that differ across the sweep (table columns)
        self.varying = list(varying) if varying is not None else None
        #: wall-clock time of the whole sweep execution
        self.wall_seconds = wall_seconds

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def ok(self):
        return [r for r in self.results if r.ok]

    @property
    def failed(self):
        return [r for r in self.results if not r.ok]

    def values(self):
        """The successful runs' metric dicts, in sweep order."""
        return [r.value for r in self.ok]

    # -- tabulation --------------------------------------------------------

    def _param_columns(self):
        if self.varying is not None:
            return list(self.varying)
        names = []
        for result in self.results:
            for name in result.config.kwargs:
                if name not in names:
                    names.append(name)
        return names

    def _metric_columns(self):
        names = []
        for result in self.ok:
            if isinstance(result.value, dict):
                for name in result.value:
                    if name not in names and not isinstance(
                        result.value[name], (dict, list)
                    ):
                        names.append(name)
        return names

    def rows(self):
        """Flat dict rows: varying params + scalar metrics + status."""
        params = self._param_columns()
        metrics = self._metric_columns()
        rows = []
        for result in self.results:
            row = {}
            kwargs = result.config.kwargs
            for name in params:
                row[name] = kwargs.get(name)
            for name in metrics:
                value = None
                if result.ok and isinstance(result.value, dict):
                    value = result.value.get(name)
                row[name] = value
            row["status"] = result.status
            row["elapsed"] = round(result.elapsed, 4)
            rows.append(row)
        return rows

    def format_table(self, title="sweep report"):
        """Fixed-width table in the style of ``schedule_report``."""
        rows = self.rows()
        if not rows:
            return f"{title}\n{'=' * len(title)}\n(no runs)"
        columns = list(rows[0])
        widths = {}
        for name in columns:
            cells = [_fmt(row[name]) for row in rows]
            widths[name] = max(len(name), *(len(c) for c in cells)) + 2
        lines = [title, "=" * len(title)]
        lines.append("".join(f"{name:>{widths[name]}}" for name in columns))
        for row in rows:
            lines.append(
                "".join(f"{_fmt(row[name]):>{widths[name]}}" for name in columns)
            )
        lines.append("")
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self):
        parts = [f"{len(self.results)} runs", f"{len(self.ok)} ok"]
        if self.failed:
            parts.append(f"{len(self.failed)} failed")
        parts.append(f"wall {self.wall_seconds:.3f}s")
        return ", ".join(parts)

    # -- export ------------------------------------------------------------

    def as_dict(self):
        return {
            "wall_seconds": self.wall_seconds,
            "n_runs": len(self.results),
            "n_ok": len(self.ok),
            "runs": [r.as_dict() for r in self.results],
        }

    def to_json(self, path=None):
        payload = json.dumps(self.as_dict(), indent=1, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(payload + "\n")
        return payload

    def to_csv(self, path=None):
        rows = self.rows()
        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        payload = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(payload)
        return payload


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
