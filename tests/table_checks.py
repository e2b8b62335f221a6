"""Comparisons of log2 pair-count tables with exact ones, shared by the kernel tests."""

import math

import numpy as np


def log2_of(entries):
    """Elementwise float64 log2 of an exact table, -inf for zero counts."""
    with np.errstate(divide="ignore"):
        return np.log2(entries.astype(np.float64))


def worst_log2_error(logs, exact):
    """Largest |log2 entry - log2(exact count)|; a zero count must read -inf."""
    worst = 0.0
    for count, value in zip(exact.ravel().tolist(), logs.ravel().tolist()):
        if count == 0:
            assert value == -math.inf
        else:
            worst = max(worst, abs(value - math.log2(count)))
    return worst
