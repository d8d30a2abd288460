"""Reference values that do not go through the code the benchmark times.

* Transform route (every family): ``mpmath.invertlaplace(..., method='talbot')``
  at 30 digits, applied to kernel transforms K(l) written here from the
  paper, not taken from ``fractime.models``.
* Stable clock: the closed forms n! t^(an)/Gamma(an+1) and, for the running
  mean, n! t^(an)/Gamma(an+2); E_a(-x) from ``fractime.verify.ml_reference``
  (scipy spectral quadrature) or ``erfcx`` at a = 1/2.
* Rate fits: a least-squares fit written here with numpy.

Models are plain tuples: ("stable", a), ("two-stable", a, b),
("distributed-order",), ("c3", s, scale).  Dynamics are ("mono", n) or
("exp", a).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import erfcx

REF_DPS = 30


def kernel_transform(model: tuple, lam):
    """K(l) in mpmath arithmetic."""
    tag = model[0]
    if tag == "stable":
        return lam ** (model[1] - 1)
    if tag == "two-stable":
        return lam ** (model[1] - 1) + lam ** (model[2] - 1)
    if tag == "distributed-order":
        return (lam - 1) / (lam * mp.log(lam))
    if tag == "c3":
        s, scale = model[1], model[2]
        return scale * (1 + mp.log(1 + 1 / lam)) ** (-1 - s) / lam
    raise ValueError(f"unknown model {model!r}")


def _ue_transform(model: tuple, dynamic: tuple, lam):
    k = kernel_transform(model, lam)
    if dynamic[0] == "mono":
        n = dynamic[1]
        return mp.factorial(n) * lam ** (-(1 + n)) * k ** (-n)
    return k / (dynamic[1] + lam * k)


def _invert(model: tuple, dynamic: tuple, t: float, cesaro: bool) -> float:
    with mp.workdps(REF_DPS):
        if cesaro:
            val = mp.invertlaplace(lambda lam: _ue_transform(model, dynamic, lam) / lam,
                                   t, method="talbot") / t
        else:
            val = mp.invertlaplace(lambda lam: _ue_transform(model, dynamic, lam),
                                   t, method="talbot")
        return float(val)


def gaver_stehfest(model: tuple, dynamic: tuple, t: float, terms: int = 16) -> float:
    """The 16-term Gaver-Stehfest sum for u_E(t), evaluated at 30 digits.

    Gaver-Stehfest truncation error on these transforms reaches 1e-3
    relative, so the inverter is checked against its own formula, not
    against u_E.
    """
    half = terms // 2
    with mp.workdps(REF_DPS):
        scale = mp.log(2) / t
        total = mp.mpf(0)
        for k in range(1, terms + 1):
            weight = mp.fsum(
                mp.mpf(j) ** half * mp.factorial(2 * j)
                / (mp.factorial(half - j) * mp.factorial(j) * mp.factorial(j - 1)
                   * mp.factorial(k - j) * mp.factorial(2 * j - k))
                for j in range((k + 1) // 2, min(k, half) + 1))
            total += (-1) ** (k + half) * weight * _ue_transform(model, dynamic, k * scale)
        return float(scale * total)


def ml(alpha: float, x: float) -> float:
    """E_alpha(-x) by a route independent of ``fractime.special``.

    ``ml_reference`` integrates with an absolute tolerance of 1e-12, so
    beyond x = 50 (values below ~1e-2) it gives way to the 30-digit
    inversion of l^(a-1)/(l^a + x) at t = 1.
    """
    if alpha == 0.5:
        return float(erfcx(x))
    if x <= 50.0:
        from fractime.verify import ml_reference
        return ml_reference(alpha, x)
    with mp.workdps(REF_DPS):
        return float(mp.invertlaplace(lambda lam: lam ** (alpha - 1) / (lam ** alpha + x),
                                      1, method="talbot"))


def stable_closed(alpha: float, dynamic: tuple, t: float) -> float:
    """u_E(t) for the stable clock from closed forms."""
    if dynamic[0] == "mono":
        n = dynamic[1]
        return math.factorial(n) * t ** (alpha * n) / math.gamma(alpha * n + 1.0)
    return ml(alpha, dynamic[1] * t ** alpha)


def ue(model: tuple, dynamic: tuple, t: float) -> float:
    """Reference u_E(t)."""
    if model[0] == "stable":
        return stable_closed(model[1], dynamic, t)
    return _invert(model, dynamic, t, cesaro=False)


def cesaro(model: tuple, dynamic: tuple, t: float) -> float:
    """Reference running mean (1/t) int_0^t u_E."""
    if model[0] == "stable":
        alpha = model[1]
        if dynamic[0] == "mono":
            n = dynamic[1]
            return math.factorial(n) * t ** (alpha * n) / math.gamma(alpha * n + 2.0)
        if alpha == 0.5:
            # int_0^t erfcx(a sqrt(s)) ds = (erfcx(x) - 1 + 2x/sqrt(pi)) / a^2, x = a sqrt(t)
            a = dynamic[1]
            x = a * math.sqrt(t)
            return (float(erfcx(x)) - 1.0 + 2.0 * x / math.sqrt(math.pi)) / (a * a * t)
    return _invert(model, dynamic, t, cesaro=True)


def predicted_rate(model: tuple, dynamic: tuple) -> tuple:
    """Predicted (p, q) of C t^p (log t)^q for the running mean, from the paper."""
    tag = model[0]
    if tag in ("stable", "two-stable"):
        alpha = model[1]
        return (alpha * dynamic[1], 0.0) if dynamic[0] == "mono" else (-alpha, 0.0)
    scale = 1.0 if tag == "distributed-order" else 1.0 + model[1]
    return (0.0, scale * dynamic[1]) if dynamic[0] == "mono" else (0.0, -scale)


def fit(t: np.ndarray, f: np.ndarray, pin_p=None, pin_q=None) -> tuple:
    """(log C, p, q) of the least-squares fit of log f = log C + p log t + q log log t."""
    log_t = np.log(t)
    log_log_t = np.log(log_t)
    y = np.log(f)
    ones = np.ones_like(log_t)
    if pin_p is not None:
        (c, q), *_ = np.linalg.lstsq(np.column_stack([ones, log_log_t]), y - pin_p * log_t,
                                     rcond=None)
        return float(c), float(pin_p), float(q)
    if pin_q is not None:
        (c, p), *_ = np.linalg.lstsq(np.column_stack([ones, log_t]), y - pin_q * log_log_t,
                                     rcond=None)
        return float(c), float(p), float(pin_q)
    (c, p, q), *_ = np.linalg.lstsq(np.column_stack([ones, log_t, log_log_t]), y, rcond=None)
    return float(c), float(p), float(q)
