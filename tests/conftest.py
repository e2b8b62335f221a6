"""Fixtures shared by the pair-count table tests."""

import dataclasses

import numpy as np
import pytest

from gvbound import numeric


class _CountingAdd:
    """numpy.add that records each call in `calls`, accumulate included."""

    def __init__(self, calls):
        self.calls = calls

    def __call__(self, *args, **kwargs):
        self.calls.append(None)
        return np.add(*args, **kwargs)

    def accumulate(self, *args, **kwargs):
        self.calls.append(None)
        return np.add.accumulate(*args, **kwargs)


@pytest.fixture
def linear_adds(monkeypatch):
    """A list that grows by one for every add a DP kernel makes on linear log2 counts."""
    calls = []
    modes = numeric._modes()
    add = _CountingAdd(calls)
    monkeypatch.setitem(modes, "linear", dataclasses.replace(modes["linear"], add=add))
    return calls
