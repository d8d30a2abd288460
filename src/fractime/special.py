"""Special functions for the closed-form routes.

Everything here is an evaluation of one of three entire/analytic families:

* ``gamma_fn``      -- the gamma function with explicit pole errors;
* ``mittag_leffler``-- E_a(-x) for 0 < a <= 1, x >= 0, the completely
  monotone relaxation function of the power-kernel time change;
* ``wright``        -- W_{mu,nu}(z) for -1 < mu < 0, z <= 0, whose
  (-a, 1-a) slice gives the inverse-stable marginal density.

Accuracy targets: gamma 1e-13 relative; mittag_leffler 1e-10 relative on the
parameter band the toolkit exercises (a in [0.3, 0.7], x <= 1e6); wright is
summed in adaptive-precision arithmetic within a fixed budget of 400 nonzero
terms, and a pass at dps digits accepts its sum once |sum| exceeds
peak term * 10^-(dps-12), which leaves about 12 significant digits where the
terms cancel: wright(-0.5, 0.5, -12.7), whose peak term is 1e16 and value
1.7e-18, is 2.5e-13 relative from exp(-z^2/4)/sqrt(pi).

mittag_leffler has three routes, all in double precision, split at the two
thresholds of ``MLRegime``: the power series for x <= 1, a 24-term Talbot
contour integral for 1 < x < 50 and the divergent tail expansion from 50 on.
Only the Wright series needs adaptive precision; its z-independent
coefficients 1/Gamma(mu n + nu) are computed once per (index, precision) and
cached, so a density table of many arguments pays for them once.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import mpmath as mp
from functools import lru_cache

from .errors import ConfigError, ConvergenceError, DomainError, PoleError
from .laplace import talbot_invert

_LOG10 = math.log(10.0)

# mpmath working precision is process-global state; the Wright series passes
# serialize on this lock so the module stays safe under concurrent use (the
# double-precision paths never take it)
_MP_LOCK = threading.Lock()


def gamma_fn(x: float) -> float:
    """Gamma on the reals by ``math.gamma``, raising at its poles; +-inf past the doubles."""
    x = float(x)
    if not -math.inf < x <= math.inf:     # NaN fails the comparison too
        raise DomainError(f"gamma_fn requires a real x > -inf, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:       # x above 171.62, or |x| below about 5.6e-309
        return math.copysign(math.inf, x)


def _rgamma(x: float) -> float:
    """1/Gamma(x): exact 0 at the poles and where Gamma overflows, +-inf where it underflows."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


# ---------------------------------------------------------------------------
# Mittag-Leffler E_a(-x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MLRegime:
    """The switchover points of E_a(-x) evaluation.

    The series is used up to series_radius, where no term exceeds
    1/min Gamma ~ 1.13 and so cancellation costs no digits, the divergent
    tail expansion from asymptotic_threshold on, and a Talbot contour
    integral of l^(a-1)/(l^a + x) in between.  mittag_leffler uses the default
    instance.
    """

    series_radius: float = 1.0
    asymptotic_threshold: float = 50.0

    def __post_init__(self):
        if not (0.0 < self.series_radius < self.asymptotic_threshold):
            raise ConfigError("need 0 < series_radius < asymptotic_threshold")


_REGIME = MLRegime()


def _ml_series_double(alpha: float, x: float) -> float:
    terms = []
    for n in range(600):
        terms.append((-x) ** n * _rgamma(alpha * n + 1.0))
        if n > 3 and abs(terms[-1]) < 1e-18:
            break
    return math.fsum(terms)


def _ml_asymptotic(alpha: float, x: float) -> float:
    """Tail expansion sum_k (-1)^(k+1) x^-k / Gamma(1 - a k), optimally truncated.

    By reflection each term is the envelope x^-k Gamma(a k)/pi times
    sin(pi a k).  Both stopping tests read the envelope, so a term that
    vanishes (a k an integer) or nearly vanishes stops nothing.
    """
    total = 0.0
    prev = math.inf
    for k in range(1, 500):
        envelope = math.exp(math.lgamma(alpha * k) - k * math.log(x)) / math.pi
        if envelope > prev:
            break
        total += (-1) ** (k + 1) * envelope * math.sin(math.pi * alpha * k)
        prev = envelope
        if envelope < 1e-18 * abs(total):
            break
    return total


def mittag_leffler(alpha: float, x: float) -> float:
    """E_a(-x) for 0 < a <= 1 and x >= 0.

    Value lies in (0, 1] and decreases strictly in x.  Three routes, split
    at the thresholds of ``MLRegime()``:

    * the compensated power series for x <= ``series_radius`` (1);
    * Talbot inversion of l^(a-1)/(l^a + x) for x between the thresholds;
    * the divergent tail expansion from ``asymptotic_threshold`` (50) on.
    """
    alpha = float(alpha)
    x = float(x)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler requires 0 < alpha <= 1, got {alpha}")
    if not x >= 0.0:
        raise DomainError(f"mittag_leffler requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(-x)
    if x >= _REGIME.asymptotic_threshold:
        return _ml_asymptotic(alpha, x)
    if x <= _REGIME.series_radius:
        return _ml_series_double(alpha, x)
    # 24 terms, not the default 32: roundoff grows as e^(0.4 terms)*eps, so on
    # x in (1, 50) the worst relative error against 40-digit references is
    # 2.2e-12 at 24 terms and 1.3e-10 at 32 for a = 0.5 (3.1e-11, 1.6e-9 at 0.9).
    return talbot_invert(
        lambda lam: lam ** (alpha - 1.0) / (lam ** alpha + x), 1.0, 24
    )


# ---------------------------------------------------------------------------
# Wright function W_{mu,nu}(z), -1 < mu < 0, z <= 0
# ---------------------------------------------------------------------------

def _log10_abs_rgamma(arg: float) -> float:
    """log10 |1/Gamma(arg)| by lgamma, exact near far poles; -inf at the poles."""
    if arg <= 0.0 and arg == math.floor(arg):
        return -math.inf
    return -math.lgamma(arg) / _LOG10


def _wright_peak(mu: float, nu: float, z: float, n_scan: int):
    """Largest log10 term magnitude and its index, scanned in cheap doubles."""
    best, n_best = -math.inf, 0
    lz = math.log10(-z)
    n = 0
    while n < n_scan:
        lg = _log10_abs_rgamma(mu * n + nu)
        if lg != -math.inf:
            v = n * lz - math.lgamma(n + 1.0) / _LOG10 + lg
            if v > best:
                best, n_best = v, n
            elif n > n_best + 60 and v < best - 40.0:
                break
        n += 1
    return best, n_best


def _nonzero_terms(mu: float, nu: float, n_last: int) -> int:
    """Nonzero series terms among n = 0..n_last, counted from below.

    A term whose gamma argument lies within 1e-9 of a pole is left out even
    where it may be nonzero, so the count never exceeds the one an exact
    summation sees.
    """
    count = 0
    for n in range(n_last + 1):
        arg = mu * n + nu
        count += arg > 0.0 or abs(arg - round(arg)) > 1e-9
    return count


# Nonzero terms within which the Wright series must peak and start decaying:
# at the density table's 1e-12 cutoff 200 runs out near alpha 0.9
_WRIGHT_BUDGET = 400
_WRIGHT_HARD_CAP = 8 * _WRIGHT_BUDGET  # nonzero terms a pass may sum in all


def wright(mu: float, nu: float, z: float) -> float:
    """Wright function W_{mu,nu}(z) = sum_n z^n / (n! Gamma(mu n + nu)).

    Restricted to -1 < mu < 0 and z <= 0 (the inverse-subordinator density
    slice).  Terms whose gamma argument hits a pole are exactly zero and do
    not count against the budget.  The term magnitudes must peak and start
    decaying within 400 nonzero terms, otherwise ConvergenceError is
    raised; established decay is then summed to convergence.  For the
    density pair (mu, nu) = (-1/2, 1/2) the exact Gaussian closed form is
    used beyond |z| = 30, where the series cancellation is hopeless.

    Pure: values are not memoized (the quadrature route caches its density
    panels instead).  The coefficients 1/Gamma(mu n + nu) are cached per
    (mu, nu, precision) and shared by every z, so a value never depends on
    what was evaluated before it.
    """
    mu, nu, z = float(mu), float(nu), float(z)
    if not (-1.0 < mu < 0.0):
        raise DomainError(f"wright requires -1 < mu < 0, got {mu}")
    if not (-math.inf < z <= 0.0):
        raise DomainError(f"wright requires a finite z <= 0, got {z}")
    if not math.isfinite(nu):
        raise DomainError(f"wright requires a finite nu, got {nu}")
    if z == 0.0:
        return _rgamma(nu)
    if mu == -0.5 and nu == 0.5 and z < -30.0:
        return math.exp(-z * z / 4.0) / math.sqrt(math.pi)

    peak10, n_peak = _wright_peak(mu, nu, z, 4 * _WRIGHT_HARD_CAP)
    dps = int(30 + max(0.0, peak10))
    # A pass cannot see decay before the peak, so with budget nonzero terms
    # up to it the pass is bound to fail; skip its high-precision sum.
    ok = n_peak + 1 < _WRIGHT_BUDGET or _nonzero_terms(mu, nu, n_peak) < _WRIGHT_BUDGET
    # Retry with more digits when the sum lands near the roundoff floor
    # (result many orders below the largest term).
    for _ in range(4):
        if ok:
            result, ok = _wright_sum(mu, nu, z, n_peak, peak10, dps)
        if not ok:
            raise ConvergenceError(
                f"wright series failed to decay within {_WRIGHT_BUDGET} nonzero terms "
                f"(mu={mu}, nu={nu}, z={z})"
            )
        if result is not None:
            return result
        dps += int(0.6 * dps) + 20
    raise ConvergenceError(f"wright series precision escalation failed (z={z})")


@lru_cache(maxsize=16)
def _rgamma_series(a: float, b: float, dps: int) -> list:
    """1/Gamma(a n + b) for n = 0, 1, ... at dps digits, shared by every argument.

    Read by the Wright series only.  The list starts empty; a pass running
    under _MP_LOCK at dps digits appends term n's coefficient the first time
    it reaches n, so each entry is the value that pass would compute itself.
    """
    return []


def _wright_sum(mu, nu, z, n_peak, peak10, dps):
    """One fixed-precision pass.  Returns (value | None, decayed_ok)."""
    with _MP_LOCK, mp.workdps(dps):
        mz, mmu, mnu = mp.mpf(z), mp.mpf(mu), mp.mpf(nu)
        coefs = _rgamma_series(mu, nu, dps)
        noise_floor = mp.mpf(10) ** (-(dps - max(0.0, peak10) - 8))
        decay_mark = mp.mpf("1e-3")
        total = mp.mpf(0)
        peak = mp.mpf(0)
        zpow = mp.mpf(1)  # z^n / n!
        n = nonzero = small_run = 0
        decayed = False
        while True:
            if n == len(coefs):
                coefs.append(mp.rgamma(mmu * n + mnu))
            term = zpow * coefs[n]
            if term != 0:
                nonzero += 1
                total += term
                mag = abs(term)
                peak = max(peak, mag)
                if n > n_peak and mag <= peak * decay_mark:
                    decayed = True
                if not decayed and nonzero >= _WRIGHT_BUDGET:
                    return None, False
                if n > n_peak and mag <= abs(total) * noise_floor:
                    small_run += 1
                    if small_run >= 2:
                        # reject if the sum sits at the roundoff floor itself
                        if total != 0 and abs(total) > peak * mp.mpf(10) ** (-(dps - 12)):
                            return float(total), True
                        return None, True
                else:
                    small_run = 0
            zpow = zpow * mz / (n + 1)
            n += 1
            if nonzero > _WRIGHT_HARD_CAP:
                return None, False


# ---------------------------------------------------------------------------
# Inverse-stable density
# ---------------------------------------------------------------------------

def inverse_stable_density(alpha: float, t: float, tau: float) -> float:
    """Marginal density at tau of the inverse stable time change at time t.

    Equals t^(-a) W_{-a,1-a}(-tau t^(-a)); integrates to 1 over tau.  The
    tau=0 value is the (finite) limit t^(-a)/Gamma(1-a).
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"inverse_stable_density requires 0 < alpha < 1, got {alpha}")
    if not (0.0 < t < math.inf):
        raise DomainError(f"inverse_stable_density requires a finite t > 0, got {t}")
    if not (0.0 <= tau < math.inf):
        raise DomainError(f"inverse_stable_density requires a finite tau >= 0, got {tau}")
    scale = t ** (-alpha)
    return scale * wright(-alpha, 1.0 - alpha, -tau * scale)


def inverse_stable_moment(alpha: float, n: int, t: float) -> float:
    """E[E(t)^n] = n! t^(alpha n) / Gamma(alpha n + 1) for the inverse stable time change.

    Taken in doubles where t^(alpha n) and the result are normal doubles and
    n! fits one; elsewhere (high degrees, extreme t) in 30-digit mpmath and
    rounded once, so a value below the doubles underflows to 0.0 and one
    above them raises DomainError.
    """
    if t == 0.0:
        return 0.0
    tiny = sys.float_info.min
    if n <= 170:    # 171! exceeds the doubles
        try:
            power = t ** (alpha * n)
        except OverflowError:
            power = math.inf
        if tiny <= power < math.inf:
            value = math.factorial(n) * power / gamma_fn(alpha * n + 1.0)
            if tiny <= value < math.inf:
                return value
    with _MP_LOCK, mp.workdps(30):
        order = mp.mpf(alpha) * n
        value = float(mp.factorial(n) * mp.power(t, order) / mp.gamma(order + 1))
    if value == math.inf:
        raise DomainError(f"moment {n} of E({t}) at index {alpha} exceeds the doubles")
    return value


def density_tail_cutoff(alpha: float, t: float, floor: float = 1e-10) -> float:
    """Tau beyond which the density falls below ~floor (stretched-Gaussian bound).

    Uses |W_{-a,1-a}(-u)| <~ exp(-c u^(1/(1-a))) with c = (1-a) a^(a/(1-a)),
    the generalization of the a=1/2 Gaussian tail.
    """
    if not (0.0 < alpha < 1.0 and t > 0.0 and 0.0 < floor < 1.0):
        raise DomainError("bad arguments for density_tail_cutoff")
    c = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    u = (-math.log(floor) / c) ** (1.0 - alpha)
    return u * t ** alpha
