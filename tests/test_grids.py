"""GridFunction carrier invariants."""

import math

import numpy as np
import pytest

from fractime import ConfigError, GridFunction, log_grid


def test_lengths_must_match():
    with pytest.raises(ConfigError):
        GridFunction(np.array([1.0, 2.0]), np.array([1.0]))


def test_strictly_increasing_required():
    with pytest.raises(ConfigError):
        GridFunction(np.array([1.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ConfigError):
        GridFunction(np.array([-1.0, 1.0]), np.zeros(2))


def test_zero_abscissa_allowed():
    g = GridFunction(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    assert len(g) == 2


def test_finite_values_required():
    with pytest.raises(ConfigError):
        GridFunction(np.array([1.0, 2.0]), np.array([1.0, np.inf]))


def test_restriction():
    g = GridFunction(np.array([1.0, 10.0, 100.0]), np.array([1.0, 2.0, 3.0]))
    sub = g.restricted(5.0)
    assert sub.abscissae.tolist() == [10.0, 100.0]
    with pytest.raises(ConfigError):
        g.restricted(1000.0)


def test_log_grid():
    g = log_grid(0.1, 100.0, 4)
    assert g[0] == pytest.approx(0.1)
    assert g[-1] == pytest.approx(100.0)
    assert np.all(np.diff(np.log(g)) > 0)
    # reversed or infinite bounds, and a point count that is no integer
    for args in [(10.0, 1.0, 5), (1.0, math.inf, 4), (1.0, 10.0, 2.5)]:
        with pytest.raises(ConfigError):
            log_grid(*args)
