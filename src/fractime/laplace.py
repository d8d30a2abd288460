"""Numerical inversion of Laplace transforms.

Two independent fixed rules are provided and cross-checked in the test
suite; for both the node count is part of the rule, not a setting:

* fixed-contour Talbot summation on 32 complex points of a deformed
  Bromwich contour, for transforms analytic off the negative real axis
  (the Mittag-Leffler contour in ``special`` takes 24).  Against 30-digit
  references for the stable clock over index 0.05-0.95 and t from 1e-6
  to 1e12, its u_E is within 8e-11 relative for monomials of degree 1-8
  and within 9e-10 for exponentials of rate 0.05-20 (6.2e-10 for index
  at most 0.9), the larger errors where u_E is small;
* Gaver-Stehfest (Salzer) summation on 16 real points, which needs only
  real evaluations of the transform and reaches ~1e-6..1e-7 relative in
  double precision.

Talbot is the workhorse; Gaver-Stehfest is retained as the independent
real-axis cross-check.  ``InversionConfig`` picks between them and holds
nothing else.

The Talbot rule is written at unit time: f(t) = Re sum_k W_k F(q_k/t) / t
with fixed nodes q = 0.4 terms path and fixed weights W = 0.4 e^q sigma,
built once per node count at 40 digits and rounded once.  Nothing in the
sum depends on t but the nodes q/t and the final 1/t, so it holds from
tiny to huge t.  Both inverters can also return the running integral
int_0^t f, the inverse of F(lam)/lam, without the transform dividing by
lam: Talbot then sums (W_k/q_k) F(q_k/t), whose terms stay the size of F.

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
pass.  A Talbot value so large that the weighted sum could leave the
doubles (max |F| above DBL_MAX / (2 sum |W|), scaled by t below t = 1)
raises InversionError too, so the sum itself needs no check, and so does
a t so small that the nodes q/t leave the doubles (below 4.5e-306 at 32
terms).  The Gaver-Stehfest sum, taken in long double, raises
InversionError when it does not fit a double.  Every InversionError
carries the t it failed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import mpmath
import numpy as np

from .errors import ConfigError, FractimeError, InversionError
from .grids import GridFunction

TALBOT = "talbot"
GAVER_STEHFEST = "gaver-stehfest"

_LN2 = math.log(2.0)
_STEHFEST_TERMS = 16
# half the largest double: room for the roundoff of the weighted sum's bound
_SUM_LIMIT = float(np.finfo(float).max) / 2.0


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


class _TalbotRule(NamedTuple):
    nodes: np.ndarray       # q, unit-time contour points
    weights: np.ndarray     # W, or W/q for the running integral
    limit: float            # largest node value modulus the sum admits
    t_min: float            # below it some q/t leaves the doubles


@lru_cache(maxsize=8)
def _talbot_rule(terms: int, integrate: bool) -> _TalbotRule:
    """Unit-time nodes q, weights w and bounds of the fixed Talbot rule.

    f(t) = Re(w . F(q/t)) / t with w = 0.4 e^q sigma on the classic
    contour q = 0.4 terms theta (cot theta + i); with integrate, w is
    divided by q and Re(w . F(q/t)) is the integral of f over [0, t].
    Formed at 40 digits and rounded once: e^q reaches e^(0.4 terms), and
    computed in double it would amplify the roundoff of q by |q|.  Since
    |Re(w . F)| <= sum |w| max |F|, node values of modulus at most the
    returned bound keep the sum below half the largest double.
    """
    ctx = mpmath.MPContext()
    ctx.dps = 40
    shape = ctx.mpf(2) / 5
    nodes, weights = [], []
    for k in range(terms):
        if k == 0:
            path, sigma = ctx.mpf(1), ctx.mpf(1) / 2
        else:
            theta = ctx.pi * k / terms
            cot = ctx.cot(theta)
            path = theta * ctx.mpc(cot, 1)
            sigma = ctx.mpc(1, theta * (1 + cot ** 2) - cot)
        q = shape * terms * path
        w = shape * ctx.exp(q) * sigma
        nodes.append(complex(q))
        weights.append(complex(w / q if integrate else w))
    q = np.array(nodes)
    w = np.array(weights)
    q.flags.writeable = w.flags.writeable = False
    return _TalbotRule(q, w, _SUM_LIMIT / float(np.abs(w).sum()),
                       float(np.abs(q).max()) / _SUM_LIMIT)


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


def _evaluate(transform, nodes: np.ndarray, t: float, limit: float = math.inf) -> np.ndarray:
    """transform(nodes) as an array of the nodes' shape, vouched for at time t.

    Every value must be finite and at most limit in modulus.  A transform
    that cannot take the array (a scalar function in math or cmath, or one
    that branches on its argument) raises ConfigError.
    """
    try:
        try:
            with np.errstate(under="raise", over="ignore"):
                vals = transform(nodes)
            underflowed = False
        except FloatingPointError:
            with np.errstate(under="ignore", over="ignore"):
                vals = transform(nodes)
            underflowed = True
        if getattr(vals, "shape", None) != nodes.shape:
            vals = np.broadcast_to(vals, nodes.shape)
        if underflowed and np.any(abs(vals) < np.finfo(vals.dtype).tiny):
            raise InversionError(f"the transform underflows the doubles at t={t}", t=t)
    except FractimeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            "transform must be elementwise on an ndarray of nodes; "
            "wrap a scalar function in UserTransform"
        ) from exc
    within = abs(vals) <= limit     # NaN fails the comparison too
    if not within.all():
        node, value = nodes[~within][0], vals[~within][0]
        if np.isfinite(value):
            raise InversionError(
                f"transform value {value} at node {node!r} for t={t} exceeds {limit:.3g}, "
                "past which the inversion sum could leave the doubles", t=t)
        raise InversionError(
            f"transform returned non-finite value at node {node!r} for t={t}", t=t)
    return vals


def talbot_invert(
    transform: Callable[[np.ndarray], np.ndarray],
    t: float,
    terms: int = 32,
    integrate: bool = False,
) -> float:
    """Invert a Laplace transform at time t on the fixed Talbot contour.

    transform is called once, with the complex array of the contour's
    ``terms`` nodes q/t (at least 16), and the result is Re(W . F(q/t))/t
    with the rule's fixed unit-time weights W.  It must be analytic in the
    right half-plane and along the deformed contour (no poles or cuts
    crossed); this holds for every transform built from the model kernel
    transforms here, whose only singularities sit on the closed negative
    real axis.  With integrate, the result is instead the integral of the
    inverse over [0, t], the inverse of transform(lam)/lam, summed as
    Re((W/q) . F(q/t)).
    """
    _require_time(t)
    if terms < 16:
        raise ConfigError("talbot needs at least 16 terms")
    q, w, limit, t_min = _talbot_rule(terms, integrate)
    if t < t_min:
        raise InversionError(f"the contour's nodes leave the doubles at t={t}", t=t)
    # the sum is divided by t, which grows it below t = 1, unless it is the
    # running integral
    scale = 1.0 if integrate else t
    fv = _evaluate(transform, q / t, t, limit * min(scale, 1.0))
    return float(np.dot(w, fv).real) / scale


def gaver_stehfest_invert(
    transform: Callable[[np.ndarray], np.ndarray],
    t: float,
    integrate: bool = False,
) -> float:
    """Invert a Laplace transform at time t by 16-term Gaver-Stehfest summation.

    transform is called once, with the long-double array of the 16 real
    nodes.  Needs only real-axis evaluations; the inverse must be smooth
    near t.  A value with a nonzero imaginary part raises InversionError.
    With integrate, the result is the integral of the inverse over [0, t]:
    the values are divided by their long-double nodes before the sum.
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
        vals = vals.real / nodes if integrate else vals.real
        total = float(scale * np.dot(_STEHFEST_WEIGHTS, vals))
    if not math.isfinite(total):
        raise InversionError(f"the inversion sum is not finite at t={t}", t=t)
    return total


def invert(
    transform,
    t: float,
    cfg: InversionConfig | None = None,
    integrate: bool = False,
) -> float:
    """Dispatch on cfg.method; integrate as in the inverters."""
    if cfg is None or cfg.method == TALBOT:
        return talbot_invert(transform, t, integrate=integrate)
    return gaver_stehfest_invert(transform, t, integrate=integrate)


def invert_on_grid(
    transform,
    grid: Sequence[float],
    cfg: InversionConfig | None = None,
    integrate: bool = False,
) -> GridFunction:
    """Pointwise inversion over a strictly increasing, finite positive grid.

    One inversion, and so one transform call, per t; integrate as in the
    inverters.
    """
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or np.any(np.diff(ts) <= 0.0):
        raise ConfigError("grid must be strictly increasing")
    if not np.all((0.0 < ts) & (ts < math.inf)):
        raise ConfigError("inversion grid requires finite t > 0")
    out = np.empty_like(ts)
    for i, t in enumerate(ts):
        out[i] = invert(transform, float(t), cfg, integrate)
    return GridFunction(ts, out)
