"""Fixtures shared by the whole test suite."""

import pytest


@pytest.fixture(params=["reference"])
def kernel_engine(request):
    """Name of the kernel engine a kernel-level suite runs on.

    The reference :class:`~repro.kernel.Simulator` is the only engine;
    the suites that pin kernel behavior (golden traces, delta
    semantics, tie-breaks, spans, mode and fault timelines) request
    this fixture so their test ids name the engine they checked.
    """
    return request.param
