#!/usr/bin/env python
"""Diff two ``BENCH_kernel.json`` files and fail on perf regressions.

Usage::

    python benchmarks/compare_bench.py OLD.json NEW.json [--threshold 0.15]

Compares ``steps_per_sec`` per bench. Exits non-zero if any bench in NEW
is more than ``threshold`` (default 15%) slower than in OLD — the
regression gate every future PR runs against the checked-in baseline.
Benches present in only one file are reported but do not fail the gate.
"""

import argparse
import json
import pathlib
import sys


def load(path):
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})")
    if "benches" not in data:
        raise SystemExit(f"{path}: not a run_bench.py result file")
    return data


def compare(old, new, threshold):
    """Return (report_lines, regressions) for two result payloads.

    A bench fails when ``speedup < 1.0 - threshold``.
    """
    required = 1.0 - threshold
    lines = [
        f"{'bench':>18}{'old steps/s':>15}{'new steps/s':>15}"
        f"{'speedup':>9}{'required':>10}  status"
    ]
    regressions = []
    old_benches = old["benches"]
    new_benches = new["benches"]
    for name in sorted(set(old_benches) | set(new_benches)):
        if name not in old_benches:
            lines.append(f"{name:>18}{'-':>15}"
                         f"{new_benches[name]['steps_per_sec']:>15,.0f}"
                         f"{'':>19}  new bench")
            continue
        if name not in new_benches:
            lines.append(f"{name:>18}{old_benches[name]['steps_per_sec']:>15,.0f}"
                         f"{'-':>15}{'':>19}  removed")
            continue
        old_rate = old_benches[name]["steps_per_sec"]
        new_rate = new_benches[name]["steps_per_sec"]
        speedup = new_rate / max(old_rate, 1e-9)
        regressed = speedup < required
        status = "REGRESSION" if regressed else "ok"
        if regressed:
            regressions.append((name, speedup, required))
        lines.append(
            f"{name:>18}{old_rate:>15,.0f}{new_rate:>15,.0f}"
            f"{speedup:>8.2f}x{required:>9.2f}x  {status}"
        )
    return lines, regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline result JSON")
    parser.add_argument("new", help="candidate result JSON")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional slowdown (default 0.15)")
    args = parser.parse_args(argv)

    old, new = load(args.old), load(args.new)
    lines, regressions = compare(old, new, args.threshold)
    print("\n".join(lines))
    if regressions:
        worst = ", ".join(
            f"{n} ({s:.2f}x < required {r:.2f}x)" for n, s, r in regressions
        )
        print(f"\nFAIL: below required speedup: {worst}")
        return 1
    print("\nOK: every bench met its required speedup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
