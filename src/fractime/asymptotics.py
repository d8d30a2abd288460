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
from functools import partial
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


def _running_transform(model: SubordinatorModel, dynamic: Dynamic, lam):
    """u^E's transform over lam, that of its running integral."""
    return subordinated_transform(model, dynamic, lam) / lam


def cesaro_mean(
    model: SubordinatorModel,
    dynamic: Dynamic,
    t: float,
    cfg: InversionConfig | None = None,
) -> float:
    """Running time-average of the subordinated dynamic at a finite time t > 0.

    The inversion refuses any other t with ConfigError, and a t so small that
    the transform underflows (below about 1e-150 for exp:1) with InversionError.
    """
    return invert(partial(_running_transform, model, dynamic), t, cfg) / t


def cesaro_curve(
    model: SubordinatorModel,
    dynamic: Dynamic,
    grid: Sequence[float],
    cfg: InversionConfig | None = None,
) -> GridFunction:
    samples = invert_on_grid(partial(_running_transform, model, dynamic), grid, cfg)
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
    target = np.log(f)
    # one column per free exponent, in the order log C, p, q
    design = [np.ones_like(log_t)]
    for pin, column in ((pin_p, log_t), (pin_q, np.log(log_t))):
        if pin is None:
            design.append(column)
        else:
            target = target - pin * column
    design = np.column_stack(design)

    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise ConfigError("degenerate (rank-deficient) fit design")
    rms = float(np.sqrt(np.mean((target - design @ coeffs) ** 2)))
    fitted = iter(coeffs[1:])
    p = float(next(fitted) if pin_p is None else pin_p)
    q = float(next(fitted) if pin_q is None else pin_q)
    pinned = "p" if pin_p is not None else "q" if pin_q is not None else "none"
    return AsymptoticFit(float(coeffs[0]), p, q, rms, (float(t[0]), float(t[-1])), pinned)


@dataclass(frozen=True)
class ClassVerification:
    """Predicted vs fitted Cesaro exponents for one model/dynamic pair.

    ``curve`` is the inverted Cesaro curve both fits read.  ``free_fit``
    estimates both exponents; ``constrained_fit`` pins the one the model
    family forecloses (q = 0 for power-family models, p = 0 for log-family
    models).  ``passed`` is the verdict: on the free fit's p for power
    families and on the constrained fit's q for log families.
    """

    predicted: RatePrediction
    curve: GridFunction
    free_fit: AsymptoticFit
    constrained_fit: AsymptoticFit
    p_deviation: float
    q_deviation: float
    passed: bool


def verify_class(
    model: SubordinatorModel,
    dynamic: Dynamic,
    grid: Sequence[float],
    tol_p: float = 0.05,
    tol_q: float = 0.2,
) -> ClassVerification:
    """Fit the Cesaro curve on the grid and judge it against the predicted rate.

    This is the one verdict on a Cesaro rate: the acceptance criteria C3-C6
    call it with their own tolerances.  Power-family models (nonzero
    power_index) pass when the free fit's time exponent p is within tol_p
    of the prediction (their log exponent is structurally 0); log-family
    models pass when the p = 0 constrained fit's log exponent q is within
    tol_q.  Both fits and both deviations are reported.
    """
    predicted = model.predict_rate(dynamic)
    curve = cesaro_curve(model, dynamic, grid)
    free = fit_rate(curve)
    p_dev = abs(free.p - predicted.power)
    if model.power_index:
        constrained = fit_rate(curve, pin_q=0.0)
        q_dev = abs(free.q - predicted.log_power)
        passed = p_dev <= tol_p
    else:
        constrained = fit_rate(curve, pin_p=0.0)
        q_dev = abs(constrained.q - predicted.log_power)
        passed = q_dev <= tol_q
    return ClassVerification(predicted, curve, free, constrained, p_dev, q_dev, passed)
