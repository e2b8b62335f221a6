"""Fixtures shared by the pair-count table tests."""

import dataclasses

import numpy as np
import pytest

from gvbound import numeric


@pytest.fixture
def linear_adds(monkeypatch):
    """A list that grows by one for every add a DP kernel makes on linear log2 counts."""
    calls = []
    modes = numeric._modes()

    def add(*args, **kwargs):
        calls.append(None)
        return np.add(*args, **kwargs)

    monkeypatch.setitem(modes, "linear", dataclasses.replace(modes["linear"], add=add))
    return calls
