"""Fixtures shared by the pair-count table tests."""

import pytest

from gvbound import synthesis


@pytest.fixture
def step_adds(monkeypatch):
    """A list that gets the add ufunc of every synthesis._step call, one per DP step."""
    adds = []
    step = synthesis._step

    def recorded(add, *args):
        adds.append(add)
        return step(add, *args)

    monkeypatch.setattr(synthesis, "_step", recorded)
    return adds
