"""Cesaro means, asymptotic rate fitting, and predicted-vs-fitted checks.

The running mean M_t = (1/t) * integral of u^E over [0, t] is computed from
the transform of u^E divided by the frequency variable (the transform of
the running integral) and inverted -- reaching t = 1e12 costs the same as
t = 10, which is what makes slowly converging log-rate fits feasible.

Rates are fitted as log f = log C + p log t + q log log t; because log t
and log log t are nearly collinear on short windows, fits refuse spans
under four decades rather than return ill-conditioned exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .grids import GridFunction, log_grid
from .laplace import InversionConfig, invert, invert_on_grid
from .models import Dynamic, RatePrediction, SubordinatorModel
from .subordinate import subordinated_transform

__all__ = [
    "GridFunction",
    "log_grid",
    "AsymptoticFit",
    "cesaro_mean",
    "cesaro_curve",
    "fit_rate",
    "rate_grid_for",
    "verify_class",
    "ClassVerification",
]


def rate_grid_for(model: SubordinatorModel) -> np.ndarray:
    """25-point fitting grid for a model's rate family.

    Power-law rates (models with a nonzero power_index) are converged well
    before 1e8; log corrections need abscissae out to 1e12 (transform
    inversion reaches them at constant cost, which is the reason the
    fitting route goes through transforms).
    """
    if model.power_index:
        return log_grid(1e2, 1e8, 25)
    return log_grid(1e4, 1e12, 25)


def cesaro_mean(
    model: SubordinatorModel,
    dynamic: Dynamic,
    t: float,
    cfg: InversionConfig | None = None,
) -> float:
    """Running time-average of the subordinated dynamic at time t > 0."""
    if t <= 0.0:
        raise DomainError("cesaro_mean requires t > 0")
    running = invert(
        lambda lam: subordinated_transform(model, dynamic, lam) / lam, t, cfg
    )
    return running / t


def cesaro_curve(
    model: SubordinatorModel,
    dynamic: Dynamic,
    grid: Sequence[float],
    cfg: InversionConfig | None = None,
) -> GridFunction:
    samples = invert_on_grid(
        lambda lam: subordinated_transform(model, dynamic, lam) / lam, grid, cfg
    )
    return GridFunction(samples.abscissae, samples.values / samples.abscissae)


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of C t^p (log t)^q in log space."""

    log_C: float
    p: float
    q: float
    rms_residual: float
    grid_range: tuple
    pinned: str = "none"   # which exponent was held fixed: none | p | q

    def describe(self) -> dict:
        return {
            "log_C": self.log_C,
            "p": self.p,
            "q": self.q,
            "rms_residual": self.rms_residual,
            "t_min": self.grid_range[0],
            "t_max": self.grid_range[1],
            "pinned": self.pinned,
        }


_MIN_SAMPLES = 8
_MIN_DECADES = 4.0
_MIN_ABSCISSA = 10.0


def fit_rate(
    samples: GridFunction,
    pin_p: float | None = None,
    pin_q: float | None = None,
) -> AsymptoticFit:
    """Fit log f = log C + p log t + q log log t.

    Requires at least 8 positive samples with abscissae >= 10 spanning at
    least four decades (below that, log t and log log t are too collinear
    to separate).  Either exponent may be pinned, in which case only the
    remaining pair is estimated.
    """
    t = samples.abscissae
    f = samples.values
    if t.size < _MIN_SAMPLES:
        raise ConfigError(f"rate fits need at least {_MIN_SAMPLES} samples, got {t.size}")
    if t[0] < _MIN_ABSCISSA:
        raise ConfigError(f"rate fits need abscissae >= {_MIN_ABSCISSA}")
    decades = math.log10(t[-1] / t[0])
    if decades < _MIN_DECADES:
        raise ConfigError(
            f"rate fits need >= {_MIN_DECADES} decades of abscissae, got {decades:.2f}"
        )
    if np.any(f <= 0.0):
        raise DomainError("rate fits need strictly positive sample values")
    if pin_p is not None and pin_q is not None:
        raise ConfigError("pin at most one exponent")

    log_t = np.log(t)
    log_log_t = np.log(log_t)
    y = np.log(f)

    if pin_p is not None:
        design = np.column_stack([np.ones_like(log_t), log_log_t])
        target = y - pin_p * log_t
    elif pin_q is not None:
        design = np.column_stack([np.ones_like(log_t), log_t])
        target = y - pin_q * log_log_t
    else:
        design = np.column_stack([np.ones_like(log_t), log_t, log_log_t])
        target = y

    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise ConfigError("degenerate (rank-deficient) fit design")
    resid = target - design @ coeffs
    rms = float(np.sqrt(np.mean(resid ** 2)))

    if pin_p is not None:
        out = AsymptoticFit(float(coeffs[0]), float(pin_p), float(coeffs[1]),
                            rms, (float(t[0]), float(t[-1])), pinned="p")
    elif pin_q is not None:
        out = AsymptoticFit(float(coeffs[0]), float(coeffs[1]), float(pin_q),
                            rms, (float(t[0]), float(t[-1])), pinned="q")
    else:
        out = AsymptoticFit(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]),
                            rms, (float(t[0]), float(t[-1])), pinned="none")
    return out


@dataclass(frozen=True)
class ClassVerification:
    """Predicted vs fitted Cesaro exponents for one model/dynamic pair.

    ``free_fit`` estimates both exponents; ``constrained_fit`` pins the one
    the model family forecloses (q = 0 for power-family models, p = 0 for
    log-family models).  The decisive comparison uses the free fit's p for
    power families and the constrained fit's q for log families; both fits
    are kept in the report.
    """

    model: SubordinatorModel
    dynamic: Dynamic
    predicted: RatePrediction
    free_fit: AsymptoticFit
    constrained_fit: AsymptoticFit
    p_deviation: float
    q_deviation: float
    p_ok: bool
    q_ok: bool

    @property
    def passed(self) -> bool:
        return self.p_ok and self.q_ok

    def describe(self) -> dict:
        return {
            "model": self.model.describe(),
            "predicted": {"p": self.predicted.power, "q": self.predicted.log_power},
            "free_fit": self.free_fit.describe(),
            "constrained_fit": self.constrained_fit.describe(),
            "p_deviation": self.p_deviation,
            "q_deviation": self.q_deviation,
            "passed": self.passed,
        }


def verify_class(
    model: SubordinatorModel,
    dynamic: Dynamic,
    grid: Sequence[float],
    cfg: InversionConfig | None = None,
    tol_p: float = 0.05,
    tol_q: float = 0.2,
) -> ClassVerification:
    """Fit the Cesaro curve on the grid and compare with the predicted rate.

    Power-family models (nonzero power_index) are judged on the time
    exponent p of the free fit with |p - predicted| <= tol_p (their log
    exponent is structurally 0); log-family models are judged on the log
    exponent q of the p=0 constrained fit with |q - predicted| <= tol_q.
    Both fits are reported.
    """
    predicted = model.predict_rate(dynamic)
    curve = cesaro_curve(model, dynamic, grid, cfg)
    free = fit_rate(curve)
    if model.power_index:
        constrained = fit_rate(curve, pin_q=0.0)
        p_dev = abs(free.p - predicted.power)
        q_dev = abs(free.q - predicted.log_power)
        p_ok = p_dev <= tol_p
        q_ok = True
    else:
        constrained = fit_rate(curve, pin_p=0.0)
        p_dev = abs(free.p - predicted.power)
        q_dev = abs(constrained.q - predicted.log_power)
        p_ok = True
        q_ok = q_dev <= tol_q
    return ClassVerification(
        model=model,
        dynamic=dynamic,
        predicted=predicted,
        free_fit=free,
        constrained_fit=constrained,
        p_deviation=p_dev,
        q_deviation=q_dev,
        p_ok=p_ok,
        q_ok=q_ok,
    )
