"""Random-time-changed curves u^E(t) by three independent routes.

The workhorse route goes through the t-Laplace transform of u^E, which for
a kernel transform K and a dynamic with Laplace transform w reads
K(l) * w(l K(l)); it is inverted numerically and works for every model,
including the log-kernel families for which no density formula exists.
subordinated_value and subordinated_curve take this route.  For a stable
index alpha two independent routes exist besides, each a function of
(alpha, dynamic, t): stable_closed_form (monomials and the Mittag-Leffler
relaxation) and stable_quadrature, a dot product of the dynamic with a
table of Wright-density weights per index, assembled from cached panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, UnsupportedDynamicError
from .grids import GridFunction
from .laplace import InversionConfig, invert, invert_on_grid
from .models import (
    Dynamic,
    Exponential,
    Monomial,
    SubordinatorModel,
    StableSubordinator,
    UserTransform,
)
from .special import (density_tail_cutoff, inverse_stable_density, inverse_stable_moment,
                      mittag_leffler)


@dataclass(frozen=True)
class SubordinatedCurve:
    """Samples of u^E over a grid, by transform inversion."""

    model: SubordinatorModel
    dynamic: Dynamic
    samples: GridFunction


def subordinated_transform(model: SubordinatorModel, dynamic: Dynamic, lam):
    """t-Laplace transform K(lam) w(lam K(lam)) of the subordinated dynamic (Re lam > 0).

    Elementwise: lam is a scalar or an array of nodes (the inverters pass
    all of theirs at once), and a scalar gives a scalar.  w is the
    dynamic's own transform; degree 0 cancels exactly to 1/lam.  Any
    entry that overflows raises DomainError; underflow is the inverter's to refuse.
    """
    if not isinstance(dynamic, (Monomial, Exponential, UserTransform)):
        raise UnsupportedDynamicError(f"unknown dynamic {dynamic!r}")
    if isinstance(dynamic, Monomial) and dynamic.n == 0:
        return 1.0 / lam
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kt = model.kernel_transform(lam)
        try:
            val = kt * dynamic.transform(lam * kt)
        except OverflowError as exc:  # a UserTransform callable in math or cmath
            raise DomainError(f"transform overflowed for {dynamic!r}") from exc
    bad = ~np.isfinite(val)
    if bad.any():
        raise DomainError(f"transform overflowed for {dynamic!r} at {np.asarray(lam)[bad][0]!r}")
    return val


def subordinated_value(
    model: SubordinatorModel,
    dynamic: Dynamic,
    t: float,
    cfg: InversionConfig | None = None,
) -> float:
    """u^E(t) through transform inversion; t > 0 (InversionError where that underflows)."""
    return invert(partial(subordinated_transform, model, dynamic), t, cfg)


def subordinated_curve(
    model: SubordinatorModel,
    dynamic: Dynamic,
    grid: Sequence[float],
    cfg: InversionConfig | None = None,
) -> SubordinatedCurve:
    """Sample u^E over a grid by transform inversion, one inversion per t."""
    samples = invert_on_grid(partial(subordinated_transform, model, dynamic), grid, cfg)
    return SubordinatedCurve(model, dynamic, samples)


def stable_closed_form(alpha: float, dynamic: Dynamic, t: float) -> float:
    """Exact u^E(t) for the stable time change.

    Monomial(n) -> n! t^(alpha n)/Gamma(alpha n + 1); Exponential(a) ->
    E_alpha(-a t^alpha).  Defined for finite t >= 0; a monomial value
    beyond the doubles raises DomainError.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"stable index must lie in (0,1), got {alpha}")
    if not (0.0 <= t < math.inf):
        raise DomainError(f"need a finite t >= 0, got {t}")
    if isinstance(dynamic, Monomial):
        return 1.0 if dynamic.n == 0 else inverse_stable_moment(alpha, dynamic.n, t)
    if isinstance(dynamic, Exponential):
        return mittag_leffler(alpha, dynamic.a * t ** alpha)
    raise UnsupportedDynamicError("closed forms exist for monomial and exponential dynamics only")


def stable_quadrature(alpha: float, dynamic: Dynamic, t: float) -> float:
    """u^E(t) as a dot product with the density table of alpha.

    Self-similarity gives u^E(t) = int u(t^alpha v) W_{-alpha,1-alpha}(-v) dv,
    so Monomial(n) reads t^(alpha n) sum w v^n and Exponential(a) reads
    sum w exp(-a t^alpha v).  The table is assembled from cached panels of
    Wright-density weights.  For exponentials it is refined toward v = 0
    until its head panel is narrower than 16/(a t^alpha); it is then
    doubled outward until the closed-form tail bound is below 1e-9 of the
    value (a tenth of the 1e-8 relative target).  A bound still unmet after
    a fixed number of doublings, or a Wright value the series cannot reach,
    raises ConvergenceError.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"stable index must lie in (0,1), got {alpha}")
    if not (0.0 < t < math.inf):
        raise DomainError(f"need a finite t > 0, got {t}")
    if isinstance(dynamic, Monomial):
        n, rate, scale = dynamic.n, 0.0, t ** (alpha * dynamic.n)
    elif isinstance(dynamic, Exponential):
        n, rate, scale = 0, dynamic.a * t ** alpha, 1.0
    else:
        raise UnsupportedDynamicError("quadrature route supports monomial and exponential dynamics")

    cutoff = density_tail_cutoff(alpha, 1.0, _TABLE_FLOOR)
    head = _HEAD
    while rate * math.ldexp(cutoff, head) > 16.0:
        head -= 1
        if head < _HEAD - 64:
            raise ConvergenceError(f"exponential rate {rate:g} outruns the density table")
    for top in range(_MAX_DOUBLINGS + 1):
        nodes, wts = _table(alpha, head, top)
        total = float(np.dot(wts, nodes ** n * np.exp(-rate * nodes)))
        if not math.isfinite(total * scale):
            raise ConvergenceError(f"quadrature returned non-finite value at t={t}")
        if _tail_bound(alpha, n, rate, math.ldexp(cutoff, top)) <= 0.1 * _REL_TOL * abs(total):
            return total * scale
    raise ConvergenceError(f"density tail bound unmet after {_MAX_DOUBLINGS} doublings at t={t}")


def double_transform_residual(alpha: float, p: float, lam: float) -> float:
    """Defect of the double (tau, t)-Laplace transform identity of the density.

    Computes |iint exp(-p tau - lam t) G_t(tau) dtau dt - K(lam)/(lam K(lam) + p)|
    for the stable density.  By self-similarity (v = tau t^-alpha) the inner
    integral is a dot product of exp(-p t^alpha v) with the base density
    table.  The outer integral over t in [0, 30/lam] is a fixed rule in
    s = (lam t / 30)^alpha (see ``_outer_rule``), so all inner integrals are
    one matrix product.
    """
    alpha, p, lam = float(alpha), float(p), float(lam)
    if not (0.0 < alpha < 1.0 and 0.0 < p < math.inf and 0.0 < lam < math.inf):
        raise DomainError("need 0 < alpha < 1 and finite p, lam > 0")
    return abs(_double_transform(alpha, p, lam) - exact_double_transform(alpha, p, lam))


def _double_transform(alpha: float, p: float, lam: float) -> float:
    """Left side of the identity: the outer fixed rule over the inner dot products."""
    nodes, wts = _table(alpha, _HEAD, 0)
    s, w = _outer_rule(alpha)
    t_max = 30.0 / lam
    inner = np.exp(np.multiply.outer(-p * t_max ** alpha * s, nodes)) @ wts
    return float(t_max / alpha * np.dot(w * np.exp(-30.0 * s ** (1.0 / alpha)), inner))


# Outer rule of the double transform on the unit interval: a 16-node
# Gauss-Jacobi head panel [0, 2^-8] and 16-node Gauss-Legendre panels
# [2^-(k+1), 2^-k], k < 8.  Within 1.2e-10 of a converged rule for alpha in
# [0.25, 0.8] and (p, lam) near (1, 1), (0.5, 2) and (2, 0.5).
_OUTER_PANELS = 8
_OUTER_ORDER = 16
_OUTER_GAUSS = np.polynomial.legendre.leggauss(_OUTER_ORDER)


def _gauss_jacobi_head(b: float):
    """Gauss rule of _OUTER_ORDER nodes for the weight (1 + u)^b on [-1, 1], b > 0.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P^(0, b), and the weights are the weight's mass
    2^(b+1)/(b+1) times the squared first components of its eigenvectors.
    """
    k = np.arange(_OUTER_ORDER, dtype=float)
    diag = b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0))
    k, two_kb = k[1:], 2.0 * k[1:] + b
    off = 2.0 * k * (k + b) / (two_kb * np.sqrt((two_kb - 1.0) * (two_kb + 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (b + 1.0) / (b + 1.0) * vectors[0] ** 2


def _outer_rule(alpha: float):
    """Nodes s and weights w with int_0^1 s^(1/alpha - 1) f(s) ds ~ sum w f(s).

    With t = t_max s^(1/alpha) the outer integral over [0, t_max] becomes
    t_max/alpha times this integral of exp(-lam t) inner(t), and inner is
    analytic in s = (t/t_max)^alpha.  The Jacobian s^b, b = 1/alpha - 1, is
    the Jacobi weight of the head panel and a factor of the Legendre
    weights above it; the panels halve toward 0, where exp(-lam t) is a
    series in s^(1/alpha).
    """
    b = 1.0 / alpha - 1.0
    head = 0.5 ** _OUTER_PANELS
    u, wu = _gauss_jacobi_head(b)                        # weight (1 + u)^b on [-1, 1]
    s_parts = [0.5 * head * (u + 1.0)]
    w_parts = [(0.5 * head) ** (b + 1.0) * wu]
    x, wx = _OUTER_GAUSS
    for k in range(_OUTER_PANELS):
        lo = 0.5 ** (k + 1)
        nodes = 0.5 * lo * (x + 1.0) + lo                   # [lo, 2 lo]
        s_parts.append(nodes)
        w_parts.append(0.5 * lo * wx * nodes ** b)
    return np.concatenate(s_parts), np.concatenate(w_parts)


_REL_TOL = 1e-8  # relative accuracy a quadrature point aims for

# Density table: 32-node Gauss-Legendre panels [u 2^(k-1), u 2^k], head < k <= top,
# after a head panel [0, u 2^head]; u is the 1e-12 tail cutoff of the t = 1 density.
_TABLE_FLOOR = 1e-12
_HEAD = -11
_MAX_DOUBLINGS = 6
_GAUSS = np.polynomial.legendre.leggauss(32)


@lru_cache(maxsize=4096)
def _panel(alpha: float, k: int, is_head: bool):
    """Nodes v and Gauss weights times W_{-alpha,1-alpha}(-v) on one panel.

    The one cache of density values: wright itself is not memoized, and a
    table is a fresh concatenation of these panels.
    """
    hi = math.ldexp(density_tail_cutoff(alpha, 1.0, _TABLE_FLOOR), k)
    lo = 0.0 if is_head else 0.5 * hi
    nodes = 0.5 * (hi - lo) * (_GAUSS[0] + 1.0) + lo
    dens = np.array([inverse_stable_density(alpha, 1.0, v) for v in nodes])
    return nodes, 0.5 * (hi - lo) * _GAUSS[1] * dens


def _table(alpha: float, head: int, top: int):
    """(nodes, weights * W) of alpha's density table from panel head to top."""
    panels = [_panel(alpha, head, True)] + [_panel(alpha, k, False) for k in range(head + 1, top + 1)]
    return tuple(np.concatenate(part) for part in zip(*panels))


def _tail_bound(alpha: float, n: int, rate: float, upper: float) -> float:
    """Bound on int_upper^inf v^n exp(-rate v) W(-v) dv from |W(-v)| <~ exp(-c v^b):
    exp(-rate upper) Gamma((n+1)/b, c upper^b) / (b c^((n+1)/b)), b = 1/(1-alpha)."""
    b = 1.0 / (1.0 - alpha)
    c = (1.0 - alpha) * alpha ** (alpha * b)
    s = (n + 1.0) / b
    log_bound = (_log_upper_gamma_bound(s, c * upper ** b) - rate * upper
                 - math.log(b) - s * math.log(c))
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def _log_upper_gamma_bound(s: float, x: float) -> float:
    """log of a bound on Gamma(s, x): x^(s-1) e^-x max(1, x/(x - s + 1)) for x > s - 1,
    as t^(s-1) <= x^(s-1) max(1, e^((s-1)(t-x)/x)) on t >= x; else Gamma(s)."""
    if x > s - 1.0:
        return (s - 1.0) * math.log(x) - x + math.log(max(1.0, x / (x - s + 1.0)))
    return math.lgamma(s)


def exact_double_transform(alpha: float, p: float, lam: float) -> float:
    """Right side K(lam)/(lam K(lam) + p) of the double-transform identity."""
    kt = StableSubordinator(float(alpha)).kernel_transform(float(lam))
    return kt / (lam * kt + p)
