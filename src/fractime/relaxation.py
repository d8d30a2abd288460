"""Relaxation equations driven by a memory kernel, by convolution quadrature.

The problem solved is the kernel-convolution analogue of u' = -a u: the
time derivative is replaced by d/dt (k * u) - k(t) u(0) with the model's
tail kernel k.  The equation is integrated once before discretization so
only the weakly singular convolution (k * u) remains, handled with
product-rectangle weights (exact cell integrals of k); the damping term is
treated implicitly.

A starting correction repairs the first-cell quadrature against the t^g
leading behavior of the solution (g = the model's short-time power), which
is what limits plain product integration on uniform grids.  Any model that
states a short-time power has the time-domain kernel the scheme needs;
models that state none (transform-only kernels) are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedModelError
from .grids import GridFunction
from .models import SubordinatorModel


@dataclass(frozen=True)
class RelaxationProblem:
    """Kernel relaxation u' (in the convolution sense) = -a u, u(0) = u0."""

    model: SubordinatorModel
    a: float
    u0: float = 1.0
    h: float = 1e-3
    horizon: float = 5.0

    def __post_init__(self):
        if self.model.short_time_power is None:
            raise UnsupportedModelError(
                "relaxation solves need a model with an integrable kernel"
            )
        if self.a < 0.0:
            raise ConfigError("damping rate a must be nonnegative")
        if not (0.0 < self.h <= self.horizon):
            raise ConfigError("need 0 < h <= horizon")


def _scheme_arrays(prob: RelaxationProblem):
    """Grid, cumulative-kernel values, cell weights, and starting corrections."""
    steps = int(round(prob.horizon / prob.h))
    if steps < 1:
        raise ConfigError("horizon shorter than one step")
    t = prob.h * np.arange(steps + 1)
    cumulative = np.zeros(steps + 1)
    cumulative[1:] = prob.model.kernel_integral(t[1:])
    weights = np.diff(cumulative)  # weights[i] = integral of k over (ih, (i+1)h)

    g = prob.model.short_time_power
    tg = t ** g
    # row corrections b_m on (u1 - u0): make each row's convolution quadrature
    # exact on s^g as well as on constants
    exact = prob.model.kernel_conv_power(g, t[1:])
    approx = np.convolve(weights, tg[1:])[:steps]
    b = np.zeros(steps + 1)
    b[1:] = (exact - approx) / tg[1]
    return t, cumulative, weights, b


def solve_relaxation(prob: RelaxationProblem) -> GridFunction:
    """Solve on {0, h, 2h, ..., horizon}; the initial value is prepended.

    One implicit product-rectangle step per node; the per-row system is a
    scalar division with denominator W_0 + a h (+ first-row correction),
    positive whenever h > 0.
    """
    t, cumulative, weights, b = _scheme_arrays(prob)
    steps = t.size - 1
    u = np.empty(steps + 1)
    u[0] = prob.u0
    ah = prob.a * prob.h
    running = 0.0  # sum of u_1..u_{m-1}
    for m in range(1, steps + 1):
        conv = float(np.dot(weights[m - 1:0:-1], u[1:m])) if m > 1 else 0.0
        if m == 1:
            denom = weights[0] + b[1] + ah
            if denom <= 0.0:
                raise ConfigError("singular first step; is h positive?")
            u[1] = prob.u0 * (cumulative[1] + b[1]) / denom
        else:
            rhs = (
                prob.u0 * cumulative[m]
                - conv
                - b[m] * (u[1] - prob.u0)
                - ah * running
            )
            u[m] = rhs / (weights[0] + ah)
        running += u[m]
    return GridFunction(t, u)


def residual_check(solution: GridFunction, prob: RelaxationProblem) -> float:
    """Max defect of the solution in the assembled integrated equation.

    Rebuilds the quadrature independently of the stepping recurrence
    (full convolutions instead of running sums) and returns the largest
    absolute row defect; a correct solve leaves only roundoff.
    """
    t, cumulative, weights, b = _scheme_arrays(prob)
    if solution.abscissae.size != t.size or not np.allclose(solution.abscissae, t):
        raise ConfigError("solution grid does not match the problem grid")
    u = solution.values
    steps = t.size - 1
    conv = np.convolve(weights, u[1:])[:steps]
    integral = prob.h * np.cumsum(u[1:])
    defect = (
        conv
        + b[1:] * (u[1] - prob.u0)
        - prob.u0 * cumulative[1:]
        + prob.a * integral
    )
    return float(np.max(np.abs(defect)))
