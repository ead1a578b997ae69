"""Sweep result aggregation: machine-readable JSON/CSV + report tables.

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

    def aggregate(self):
        """Cross-run aggregate of the successful runs' metrics.

        Top-level scalar metrics are summarized as min/mean/max under
        ``"scalars"``. Runs carrying an observability-registry snapshot
        under ``"metrics"`` (see ``MetricsRegistry.snapshot``) get those
        merged metric-by-metric — counters summed, gauges min/max'd,
        histograms merged as latency digests with p50/p95/p99
        recomputed — under ``"metrics"``. Runs
        carrying a span-analytics payload under ``"spans"`` (the
        workloads' ``with_spans=True``) get their per-task latency
        digests merged (order-insensitive, byte-identical across run
        orders), summarized to p50/p95/p99 percentiles, and their job
        censuses summed, under ``"spans"``.
        """
        values = [v for v in self.values() if isinstance(v, dict)]
        scalars = {}
        for value in values:
            for name, metric in value.items():
                if isinstance(metric, bool) or not isinstance(
                    metric, (int, float)
                ):
                    continue
                scalars.setdefault(name, []).append(metric)
        aggregate = {
            "runs": len(values),
            "scalars": {
                name: {
                    "min": min(samples),
                    "max": max(samples),
                    "mean": sum(samples) / len(samples),
                }
                for name, samples in scalars.items()
            },
        }
        snapshots = [
            v["metrics"] for v in values if isinstance(v.get("metrics"), dict)
        ]
        if snapshots:
            from repro.obs.metrics import MetricsRegistry

            aggregate["metrics"] = MetricsRegistry.aggregate(snapshots)
        span_dumps = [
            v["spans"] for v in values if isinstance(v.get("spans"), dict)
        ]
        if span_dumps:
            from repro.obs.analyzers import LatencyAnalyzer

            latency = LatencyAnalyzer.merge_dicts(
                [d["latency"] for d in span_dumps if "latency" in d]
            )
            census = {}
            for dump in span_dumps:
                tasks = dump.get("misses", {}).get("tasks", {})
                for task, row in tasks.items():
                    out = census.setdefault(task, {})
                    for key, count in row.items():
                        out[key] = out.get(key, 0) + count
            totals = {}
            for row in census.values():
                for key, count in row.items():
                    totals[key] = totals.get(key, 0) + count
            aggregate["spans"] = {
                "latency": latency,
                "percentiles": LatencyAnalyzer.summarize_dump(latency),
                "misses": {
                    "tasks": {
                        task: dict(sorted(census[task].items()))
                        for task in sorted(census)
                    },
                    "totals": dict(sorted(totals.items())),
                },
            }
        return aggregate

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
