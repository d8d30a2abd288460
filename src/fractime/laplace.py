"""Numerical inversion of Laplace transforms.

Two independent fixed rules are provided and cross-checked in the test
suite; for both the node count is part of the rule, not a setting:

* fixed-contour Talbot summation on 32 complex points of a deformed
  Bromwich contour, accurate to ~1e-11 relative for transforms analytic
  off the negative real axis (the Mittag-Leffler contour in ``special``
  takes 24);
* Gaver-Stehfest (Salzer) summation on 16 real points, which needs only
  real evaluations of the transform and reaches ~1e-6..1e-7 relative in
  double precision.

Talbot is the workhorse; Gaver-Stehfest is retained as the independent
real-axis cross-check.  ``InversionConfig`` picks between them and holds
nothing else.

The transform contract: each inversion calls ``transform`` once, with the
ndarray of all its nodes (complex contour points for Talbot, long-double
reals for Gaver-Stehfest), and sums the array it returns.  Every transform
in the package -- the model kernel transforms, the dynamics' transforms and
their composition ``subordinated_transform`` -- is elementwise on arrays;
a transform written for one scalar belongs in ``UserTransform``, which
applies it entry by entry; given to an inverter directly, a transform that
cannot take the array raises ConfigError.  ``invert_on_grid`` still inverts one t at a
time.

The node-value contract: every inversion reads its transform's values
through ``_evaluate``, which vouches for them.  A non-finite value raises
InversionError, and so does one that underflowed below the normal doubles
(tiny t puts the nodes far out); exact zeros computed without underflow
pass.  The weighted sum is vouched for too: one that overflows or turns
NaN (huge t, where exp(t p) leaves the doubles) raises InversionError
instead of returning it.  Every InversionError carries the t it failed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, FractimeError, InversionError
from .grids import GridFunction

TALBOT = "talbot"
GAVER_STEHFEST = "gaver-stehfest"

_LN2 = math.log(2.0)
# Talbot contour base point r = _TALBOT_SHAPE * terms / t (the classic
# fixed-Talbot rule)
_TALBOT_SHAPE = 0.4
_STEHFEST_TERMS = 16


@dataclass(frozen=True)
class InversionConfig:
    """The inversion method: Talbot (the default) or Gaver-Stehfest."""

    method: str = TALBOT

    def __post_init__(self):
        if self.method not in (TALBOT, GAVER_STEHFEST):
            raise ConfigError(f"unknown inversion method {self.method!r}")


def gaver_stehfest_config() -> InversionConfig:
    """The Gaver-Stehfest configuration (always 16 terms)."""
    return InversionConfig(method=GAVER_STEHFEST)


@lru_cache(maxsize=8)
def _talbot_nodes(terms: int):
    """Angle-dependent contour factors; the t-dependent scale comes later."""
    theta = np.arange(terms) * np.pi / terms
    cot = np.zeros(terms)
    cot[1:] = 1.0 / np.tan(theta[1:])
    # p(theta)/r and the quadrature factor without the exp(t p) part
    path = theta * (cot + 1j)
    path[0] = 1.0
    sigma = np.empty(terms, dtype=complex)
    sigma[0] = 0.5
    sigma[1:] = 1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
    return path, sigma


def _salzer_weights(terms: int) -> np.ndarray:
    """Salzer summation weights, computed in exact rational arithmetic.

    Held in extended precision: the weights reach ~4e9 at 16 terms and the
    weighted sum cancels down to order one, so accumulating in double would
    cost ~1e-7 of the result.
    """
    half = terms // 2
    weights = []
    for k in range(1, terms + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += Fraction(
                j ** half * math.factorial(2 * j),
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k),
            )
        acc *= (-1) ** (k + half)
        weights.append(np.longdouble(acc.numerator) / np.longdouble(acc.denominator))
    return np.array(weights, dtype=np.longdouble)


_STEHFEST_WEIGHTS = _salzer_weights(_STEHFEST_TERMS)


def _require_time(t: float) -> None:
    """ConfigError unless 0 < t < inf; the comparison itself refuses NaN."""
    if not 0.0 < t < math.inf:
        raise ConfigError(f"inversion requires a finite t > 0, got {t}")


def _evaluate(transform, nodes: np.ndarray, t: float) -> np.ndarray:
    """transform(nodes) as an array of the nodes' shape, vouched for at time t.

    A transform that cannot take the array (a scalar function in math or
    cmath, or one that branches on its argument) raises ConfigError.
    """
    try:
        try:
            with np.errstate(under="raise", over="ignore"):
                vals = np.broadcast_to(transform(nodes), nodes.shape)
        except FloatingPointError:
            with np.errstate(under="ignore", over="ignore"):
                vals = np.broadcast_to(transform(nodes), nodes.shape)
            if np.any(abs(vals) < np.finfo(vals.dtype).tiny):
                raise InversionError(f"the transform underflows the doubles at t={t}", t=t)
    except FractimeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            "transform must be elementwise on an ndarray of nodes; "
            "wrap a scalar function in UserTransform"
        ) from exc
    bad = ~np.isfinite(vals)
    if bad.any():
        raise InversionError(
            f"transform returned non-finite value at node {nodes[bad][0]!r} for t={t}", t=t)
    return vals


def _finite_sum(value: float, t: float) -> float:
    """The inversion's weighted sum; InversionError unless it is finite."""
    if not math.isfinite(value):
        raise InversionError(f"the inversion sum is not finite at t={t}", t=t)
    return value


def talbot_invert(
    transform: Callable[[np.ndarray], np.ndarray],
    t: float,
    terms: int = 32,
) -> float:
    """Invert a Laplace transform at time t on the fixed Talbot contour.

    transform is called once, with the complex array of the contour's
    ``terms`` nodes (at least 16).  It must be analytic in the right
    half-plane and along the deformed contour (no poles or cuts crossed);
    this holds for every transform built from the model kernel transforms
    here, whose only singularities sit on the closed negative real axis.
    """
    _require_time(t)
    if terms < 16:
        raise ConfigError("talbot needs at least 16 terms")
    r = _TALBOT_SHAPE * terms / t
    path, sigma = _talbot_nodes(terms)
    p = r * path
    fv = _evaluate(transform, p, t)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_sum(float((r / terms) * (np.exp(t * p) * sigma * fv).real.sum()), t)


def gaver_stehfest_invert(
    transform: Callable[[np.ndarray], np.ndarray],
    t: float,
) -> float:
    """Invert a Laplace transform at time t by 16-term Gaver-Stehfest summation.

    transform is called once, with the long-double array of the 16 real
    nodes.  Needs only real-axis evaluations; the inverse must be smooth
    near t.  A value with a nonzero imaginary part raises InversionError.
    """
    _require_time(t)
    # Extended-precision nodes flow through transforms built from numpy
    # math, keeping node roundoff out of the weight amplification;
    # transforms that compute in double degrade gracefully.
    scale = np.longdouble(_LN2) / np.longdouble(t)
    nodes = scale * np.arange(1, _STEHFEST_TERMS + 1, dtype=np.longdouble)
    vals = _evaluate(transform, nodes, t)
    bad = vals.imag != 0.0
    if bad.any():
        raise InversionError(
            f"transform returned non-real value at node {nodes[bad][0]} for t={t}", t=t)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_sum(float(scale * np.dot(_STEHFEST_WEIGHTS, vals.real)), t)


def invert(transform, t: float, cfg: InversionConfig | None = None) -> float:
    """Dispatch on cfg.method."""
    if cfg is None or cfg.method == TALBOT:
        return talbot_invert(transform, t)
    return gaver_stehfest_invert(transform, t)


def invert_on_grid(
    transform,
    grid: Sequence[float],
    cfg: InversionConfig | None = None,
) -> GridFunction:
    """Pointwise inversion over a strictly increasing, finite positive grid.

    One inversion, and so one transform call, per t.
    """
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or np.any(np.diff(ts) <= 0.0):
        raise ConfigError("grid must be strictly increasing")
    if not np.all((0.0 < ts) & (ts < math.inf)):
        raise ConfigError("inversion grid requires finite t > 0")
    out = np.empty_like(ts)
    for i, t in enumerate(ts):
        out[i] = invert(transform, float(t), cfg)
    return GridFunction(ts, out)
