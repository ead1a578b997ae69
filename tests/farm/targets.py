"""Module-level run targets for farm tests (importable from workers)."""

import os
import time


def add(a=0, b=0):
    return {"sum": a + b, "pid": os.getpid()}


def boom(message="boom"):
    raise RuntimeError(message)


def _mark(marker):
    """Append one line to `marker`: one line per execution."""
    with open(marker, "a") as fh:
        fh.write("attempt\n")


def flaky(marker, fail_times=1):
    """Fail until `marker` has been appended `fail_times` times."""
    _mark(marker)
    with open(marker) as fh:
        attempts = len(fh.readlines())
    if attempts <= fail_times:
        raise RuntimeError(f"flaky failure #{attempts}")
    return {"attempts": attempts}


def sleeper(seconds=10.0, marker=None):
    if marker is not None:
        _mark(marker)
    time.sleep(seconds)
    return {"slept": seconds}


def crasher(code=3, marker=None):
    if marker is not None:
        _mark(marker)
    os._exit(code)


def generator_result():
    """Result that cannot cross a process boundary."""
    return (i for i in range(3))
