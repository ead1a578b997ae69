"""Argument types shared by the package's command-line entry points."""

import argparse


def positive_int(text):
    """``argparse`` type of a count or a length: an integer >= 1, so a
    value that would run nothing (or fail mid-run) exits 2 at parse
    time."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1: {text!r}")
    return value
