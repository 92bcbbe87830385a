"""Shared fixtures and helpers for the test suite."""

import os

import numpy as np
import pytest

from proxdeg import PointSet


def uniform_points(seed: int, n: int, scale: float = 1.0) -> PointSet:
    """A reproducible uniform point set in [0, scale]^2 for oracle tests."""
    rng = np.random.default_rng(seed)
    return PointSet(rng.random((n, 2)) * scale)


def die_in_worker(config, trial):
    """Stands in for the per-trial function of a pool worker that dies
    mid-trial; importable by name, so a worker can unpickle it."""
    os._exit(3)


def unpicklable_result(config, trial):
    """Stands in for the per-trial function of a pool worker whose result
    cannot be pickled back: a measure value that is a lambda."""
    from proxdeg import TrialResult

    return TrialResult(trial=trial, n=config.n, values={"max_degree": lambda: 0})


@pytest.fixture
def square_corners() -> PointSet:
    return PointSet([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
