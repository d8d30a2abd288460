"""Sampled-function carrier used by solvers, inversion, and rate fitting."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on a strictly increasing grid.

    Abscissae must be nonnegative and strictly increasing (t=0 is allowed so
    relaxation solves can carry their initial value); values must be finite
    and of matching length.
    """

    abscissae: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.abscissae, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ConfigError("abscissae and values must be 1-d arrays of equal length")
        if t.size == 0:
            raise ConfigError("empty grid")
        if t[0] < 0.0 or np.any(np.diff(t) <= 0.0):
            raise ConfigError("abscissae must be nonnegative and strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ConfigError("grid values must be finite")
        object.__setattr__(self, "abscissae", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.abscissae.size

    def restricted(self, t_min: float) -> "GridFunction":
        """Sub-grid with t >= t_min."""
        m = self.abscissae >= t_min
        if not np.any(m):
            raise ConfigError("restriction leaves no grid points")
        return GridFunction(self.abscissae[m], self.values[m])


def log_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    """Logarithmically spaced abscissae on a finite [t_min, t_max]; points is an integer >= 2."""
    if not (0.0 < t_min < t_max < np.inf and isinstance(points, numbers.Integral) and points >= 2):
        raise ConfigError("need finite 0 < t_min < t_max and an integer of at least 2 points")
    return np.logspace(np.log10(t_min), np.log10(t_max), points)
