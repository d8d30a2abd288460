"""Subordinator models and the dynamics they are applied to.

A model bundles the Laplace exponent of an increasing Levy process, the
tail kernel of its Levy measure, and that kernel's Laplace transform.  The
three families implemented are distinguished by the small-frequency
behavior of the kernel transform, which is what drives their long-time
Cesaro rates:

* power-kernel models (stable, sum of two stables): transform ~ l^(a-1);
* the distributed-order model: transform ~ 1/(l log(1/l));
* a parametric log-kernel family: transform ~ (1/l) (log(1/l))^(-1-s).

All models are immutable; every method is pure.
"""

from __future__ import annotations

import cmath
import inspect
import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Union

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as _gamma, rgamma as _rgamma

from .errors import ConfigError, DomainError, UnsupportedDynamicError, UnsupportedModelError

Complex = Union[float, complex]

# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """The dynamic u(t) = t^n, n a nonnegative integer."""

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 0:
            raise ConfigError(f"monomial degree must be a nonnegative integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def value(self, t):
        return np.asarray(t, dtype=float) ** self.n if self.n else np.ones_like(np.asarray(t, dtype=float))

    def transform(self, z: Complex) -> Complex:
        """Laplace transform n! / z^(n+1)."""
        return math.factorial(self.n) * z ** (-(self.n + 1))


@dataclass(frozen=True)
class Exponential:
    """The dynamic u(t) = exp(-a t), a > 0."""

    a: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ConfigError(f"exponential rate must be positive, got {self.a}")
        object.__setattr__(self, "a", float(self.a))

    def value(self, t):
        return np.exp(-self.a * np.asarray(t, dtype=float))

    def transform(self, z: Complex) -> Complex:
        return 1.0 / (z + self.a)


@dataclass(frozen=True)
class UserTransform:
    """A dynamic given only through its Laplace transform."""

    fn: Callable[[Complex], Complex]

    def transform(self, z: Complex) -> Complex:
        return self.fn(z)


Dynamic = Union[Monomial, Exponential, UserTransform]


def parse_dynamic(text: str) -> Dynamic:
    """Parse 'mono:<n>' or 'exp:<a>'."""
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind in ("mono", "monomial"):
            return Monomial(int(arg))
        if kind in ("exp", "exponential"):
            return Exponential(float(arg))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad dynamic argument in {text!r}") from exc
    raise ConfigError(f"unknown dynamic {text!r} (expected mono:<n> or exp:<a>)")


# ---------------------------------------------------------------------------
# Rate predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePrediction:
    """Long-time Cesaro rate C * t^power * (log t)^log_power."""

    power: float
    log_power: float


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _require_right_half(lam: Complex, strict: bool) -> complex:
    """Domain guard for exponent/transform evaluation.

    Real arguments must lie in the right half-line (strictly positive for
    kernel transforms, which diverge at zero).  Complex arguments may sit
    anywhere off the branch cut: inversion contours bend into the left
    half-plane but keep a nonzero imaginary part, so principal branches
    are never crossed.
    """
    z = complex(lam)
    if z.imag == 0.0:
        if z.real < 0.0 or (strict and z.real == 0.0):
            kind = "positive" if strict else "nonnegative"
            raise DomainError(f"real argument must be {kind}, got {lam!r}")
    elif strict and z == 0.0:
        raise DomainError("kernel transform diverges at zero")
    return z


def _as_output(value: complex, lam: Complex) -> Complex:
    """Return a plain float for real input, complex otherwise."""
    if isinstance(lam, complex) and lam.imag != 0.0:
        return value
    return value.real


class _FrozenOnReturn(type):
    """Freezes a model once its whole constructor chain has returned."""

    def __call__(cls, *args, **kwargs):
        model = type.__call__(cls, *args, **kwargs)
        object.__setattr__(model, "_frozen", True)
        return model


class SubordinatorModel(metaclass=_FrozenOnReturn):
    """Common surface of the subordinator families.

    Subclasses provide ``laplace_exponent``/``kernel_transform`` (everywhere)
    and kernel-side methods where a kernel is defined.  Each model states
    what its kernel allows in attributes set once by its constructor:

    * ``stable_indices``: the indices of the independent stable subordinators
      the model is the sum of, () if it is no such sum.  One index gives
      closed forms and density quadrature; any number gives exact Monte
      Carlo draws of the inverse time, with no time steps.
    * ``short_time_power``: the exponent g with u(t) ~ u0 (1 - c t^g) near
      zero for the kernel relaxation, None when the model has no
      time-domain kernel (transform routes only).
    * ``power_index`` and ``log_rate_scale``: the Cesaro exponents, so that
      t^n has running mean ~ t^(power_index n) (log t)^(log_rate_scale n)
      and exp(-a t) the same with n = -1; each is 0 where it does not apply.

    Constructors set attributes freely; once the outermost one returns, the
    model is frozen and setting or deleting an attribute raises
    FrozenInstanceError, so the stated capabilities cannot drift from the
    parameters the kernel methods read.
    """

    config_tag: str = ""
    _frozen = False

    def __init__(self, *, stable_indices: tuple = (), short_time_power: float | None = None,
                 power_index: float = 0.0, log_rate_scale: float = 0.0):
        # one dict update, not four __setattr__ calls: models are built per operation
        vars(self).update(stable_indices=stable_indices, short_time_power=short_time_power,
                          power_index=power_index, log_rate_scale=log_rate_scale)

    def __setattr__(self, name, value):
        if self._frozen:
            raise FrozenInstanceError(
                f"cannot assign {name!r}: {type(self).__name__} is immutable")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if self._frozen:
            raise FrozenInstanceError(
                f"cannot delete {name!r}: {type(self).__name__} is immutable")
        object.__delattr__(self, name)

    # -- transform side -----------------------------------------------------
    def laplace_exponent(self, lam: Complex) -> Complex:
        """Exponent in E[exp(-l S(t))] = exp(-t * exponent(l)); Re l >= 0."""
        raise NotImplementedError

    def kernel_transform(self, lam: Complex) -> Complex:
        """Laplace transform of the tail kernel; Re l > 0."""
        raise NotImplementedError

    # -- kernel side (power + distributed-order families) --------------------
    def kernel(self, t: float) -> float:
        """Tail kernel k(t) = levy_measure((t, inf)); t > 0."""
        raise UnsupportedModelError(f"{type(self).__name__} defines no kernel")

    def kernel_integral(self, t: float):
        """Cumulative kernel integral over [0, t]."""
        raise UnsupportedModelError(f"{type(self).__name__} defines no kernel")

    def kernel_conv_power(self, gamma: float, t: float):
        """Convolution of the kernel with s^gamma over [0, t] (closed form)."""
        raise UnsupportedModelError(f"{type(self).__name__} defines no kernel")

    def levy_density(self, tau: float) -> float:
        raise UnsupportedModelError(f"{type(self).__name__} exposes no Levy density")

    def predict_rate(self, dynamic: Dynamic) -> RatePrediction:
        """Predicted Cesaro-mean exponents for a monomial or decaying exponential."""
        if isinstance(dynamic, Monomial):
            return RatePrediction(self.power_index * dynamic.n, self.log_rate_scale * dynamic.n)
        if isinstance(dynamic, Exponential):
            # 0.0 - x, not -x: an exponent that does not apply stays +0.0
            return RatePrediction(0.0 - self.power_index, 0.0 - self.log_rate_scale)
        raise UnsupportedDynamicError("rate predictions need a monomial or exponential dynamic")

    def describe(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        params = ", ".join(f"{k}={v}" for k, v in self.describe().items() if k != "class")
        return f"{type(self).__name__}({params})"


class StableSubordinator(SubordinatorModel):
    """Driftless stable subordinator: exponent l^alpha, kernel t^-alpha/Gamma(1-alpha)."""

    config_tag = "stable"

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if not (0.0 < alpha < 1.0):
            raise ConfigError(f"stable index must lie in (0,1), got {alpha}")
        super().__init__(stable_indices=(alpha,), short_time_power=alpha, power_index=alpha)
        self.alpha = alpha

    def laplace_exponent(self, lam):
        z = _require_right_half(lam, strict=False)
        if z == 0.0:
            return _as_output(0j, lam)
        return _as_output(z ** self.alpha, lam)

    def kernel_transform(self, lam):
        z = _require_right_half(lam, strict=True)
        return _as_output(z ** (self.alpha - 1.0), lam)

    def kernel(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise DomainError("kernel requires t > 0")
        out = t ** (-self.alpha) * _rgamma(1.0 - self.alpha)
        return float(out) if out.ndim == 0 else out

    def kernel_integral(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("kernel_integral requires t >= 0")
        out = t ** (1.0 - self.alpha) * _rgamma(2.0 - self.alpha)
        return float(out) if out.ndim == 0 else out

    def kernel_conv_power(self, gamma, t):
        t = np.asarray(t, dtype=float)
        c = _gamma(1.0 + gamma) * _rgamma(2.0 + gamma - self.alpha)
        out = c * t ** (1.0 + gamma - self.alpha)
        return float(out) if out.ndim == 0 else out

    def levy_density(self, tau):
        tau = np.asarray(tau, dtype=float)
        if np.any(tau <= 0.0):
            raise DomainError("levy_density requires tau > 0")
        out = self.alpha * tau ** (-1.0 - self.alpha) * _rgamma(1.0 - self.alpha)
        return float(out) if out.ndim == 0 else out

    def describe(self):
        return {"class": self.config_tag, "alpha": self.alpha}


class TwoStableSubordinator(SubordinatorModel):
    """Sum of two independent stable subordinators with indices alpha < beta.

    The smaller index controls the small-frequency behavior, so long-time
    rates match a pure stable model of index alpha; the larger one
    dominates small times.
    """

    config_tag = "two-stable"

    def __init__(self, alpha: float, beta: float):
        alpha, beta = float(alpha), float(beta)
        if not (0.0 < alpha < beta < 1.0):
            raise ConfigError(f"need 0 < alpha < beta < 1, got alpha={alpha}, beta={beta}")
        super().__init__(stable_indices=(alpha, beta), short_time_power=beta, power_index=alpha)
        self.alpha = alpha
        self.beta = beta
        self._parts = (StableSubordinator(alpha), StableSubordinator(beta))

    def laplace_exponent(self, lam):
        a, b = self._parts
        return a.laplace_exponent(lam) + b.laplace_exponent(lam)

    def kernel_transform(self, lam):
        a, b = self._parts
        return a.kernel_transform(lam) + b.kernel_transform(lam)

    def kernel(self, t):
        a, b = self._parts
        return a.kernel(t) + b.kernel(t)

    def kernel_integral(self, t):
        a, b = self._parts
        return a.kernel_integral(t) + b.kernel_integral(t)

    def kernel_conv_power(self, gamma, t):
        a, b = self._parts
        return a.kernel_conv_power(gamma, t) + b.kernel_conv_power(gamma, t)

    def levy_density(self, tau):
        a, b = self._parts
        return a.levy_density(tau) + b.levy_density(tau)

    def describe(self):
        return {"class": self.config_tag, "alpha": self.alpha, "beta": self.beta}


# Gauss-Legendre rule on (0,1) for the distributed-order kernel integrals;
# the integrands are entire in the order variable, so 96 nodes give ~1e-14.
_GL_NODES, _GL_WEIGHTS = leggauss(96)
_DO_NODES = 0.5 * (_GL_NODES + 1.0)
_DO_WEIGHTS = 0.5 * _GL_WEIGHTS
_DO_KERNEL_W = _DO_WEIGHTS * _rgamma(_DO_NODES)          # w_i / Gamma(a_i)
_DO_CUM_W = _DO_WEIGHTS * _rgamma(1.0 + _DO_NODES)       # w_i / Gamma(1 + a_i)
_POWER_BLOCK = 512  # rows of the power table formed at once; 512 x 96 doubles stay in cache


def _power_sum(t: np.ndarray, exponents: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * t**exponents[i] for each t >= 0, without a pow per term.

    With c the midpoint of the exponents, the sum is t**c times
    exp(outer(log t, exponents - c)) @ weights; centering keeps the
    exponentials' arguments, and so their roundoff, small.  The table is
    formed a block of rows at a time in one reused buffer.  t == 0 never
    reaches the log or the power and gives 0 (the exponents are positive
    wherever the callers allow t = 0).
    """
    flat = t.reshape(-1)
    positive = flat > 0.0
    c = 0.5 * (exponents.min() + exponents.max())
    shifted = exponents - c
    log_t = np.log(flat, where=positive, out=np.zeros(flat.size))
    out = np.power(flat, c, where=positive, out=np.zeros(flat.size))
    table = np.empty((min(_POWER_BLOCK, flat.size), exponents.size))
    for s in range(0, flat.size, _POWER_BLOCK):
        rows = table[:min(_POWER_BLOCK, flat.size - s)]
        np.multiply.outer(log_t[s:s + _POWER_BLOCK], shifted, out=rows)
        np.exp(rows, out=rows)
        out[s:s + rows.shape[0]] *= rows @ weights
    return out.reshape(t.shape)


class DistributedOrderSubordinator(SubordinatorModel):
    """Kernel averaged uniformly over power orders in (0,1).

    k(t) = int_0^1 t^(a-1)/Gamma(a) da, with kernel transform
    (l - 1)/(l log l) -- a removable singularity at l = 1 evaluated by a
    short Taylor expansion to dodge catastrophic cancellation.
    """

    config_tag = "distributed-order"

    _TAYLOR_RADIUS = 1e-4

    def __init__(self):
        # the solution behaves like t log(1/t) at small times, close to linear
        super().__init__(short_time_power=1.0, log_rate_scale=1.0)

    def laplace_exponent(self, lam):
        z = _require_right_half(lam, strict=False)
        if z == 0.0:
            return _as_output(0j, lam)
        w = z - 1.0
        if abs(w) < self._TAYLOR_RADIUS:
            val = 1.0 + w * (0.5 + w * (-1.0 / 12.0 + w / 24.0))
        else:
            val = w / cmath.log(z)
        return _as_output(val, lam)

    def kernel_transform(self, lam):
        z = _require_right_half(lam, strict=True)
        w = z - 1.0
        if abs(w) < self._TAYLOR_RADIUS:
            val = 1.0 + w * (-0.5 + w * (5.0 / 12.0 - 3.0 * w / 8.0))
        else:
            val = w / (z * cmath.log(z))
        return _as_output(val, lam)

    def kernel(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise DomainError("kernel requires t > 0")
        out = _power_sum(t, _DO_NODES - 1.0, _DO_KERNEL_W)
        return float(out) if out.ndim == 0 else out

    def kernel_integral(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("kernel_integral requires t >= 0")
        out = _power_sum(t, _DO_NODES, _DO_CUM_W)
        return float(out) if out.ndim == 0 else out

    def kernel_conv_power(self, gamma, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("kernel_conv_power requires t >= 0")
        w = _DO_WEIGHTS * _gamma(1.0 + gamma) * _rgamma(1.0 + gamma + _DO_NODES)
        out = _power_sum(t, gamma + _DO_NODES, w)
        return float(out) if out.ndim == 0 else out

    def describe(self):
        return {"class": self.config_tag}


class ParametricLogSubordinator(SubordinatorModel):
    """Parametric family with kernel transform ~ (1/l) (log(1/l))^(-1-s).

    Defined directly through the transform
    K(l) = scale * (1 + log(1 + 1/l))^(-1-s) / l; the shifts keep the
    transform finite and positive on (0, inf) without changing the
    small-frequency behavior.  No kernel or Levy density is exposed, so the
    model is usable on transform-side routes only.
    """

    config_tag = "c3"

    def __init__(self, s: float, scale: float = 1.0):
        s, scale = float(s), float(scale)
        if s <= 0.0:
            raise ConfigError(f"log exponent s must be positive, got {s}")
        if scale <= 0.0:
            raise ConfigError(f"scale must be positive, got {scale}")
        super().__init__(log_rate_scale=1.0 + s)
        self.s = s
        self.scale = scale

    def laplace_exponent(self, lam):
        z = _require_right_half(lam, strict=False)
        if z == 0.0:
            return _as_output(0j, lam)
        val = self.scale * (1.0 + _log1p_recip(z)) ** (-1.0 - self.s)
        return _as_output(val, lam)

    def kernel_transform(self, lam):
        z = _require_right_half(lam, strict=True)
        val = self.scale * (1.0 + _log1p_recip(z)) ** (-1.0 - self.s) / z
        return _as_output(val, lam)

    def describe(self):
        return {"class": self.config_tag, "s": self.s, "scale": self.scale}


def _log1p_recip(z: complex) -> complex:
    """log(1 + 1/z) on the principal branch, stable for tiny and huge |z|."""
    if z.imag == 0.0:
        return complex(math.log1p(1.0 / z.real))
    return cmath.log(1.0 + 1.0 / z)


# ---------------------------------------------------------------------------
# Rate predictions and configuration
# ---------------------------------------------------------------------------

def predict_cesaro_exponents(model: SubordinatorModel, dynamic: Dynamic) -> RatePrediction:
    return model.predict_rate(dynamic)


def _constructor_parameters(cls) -> tuple:
    """(required, accepted) parameter names of a model class's constructor."""
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return {p.name for p in params if p.default is p.empty}, {p.name for p in params}


_MODEL_CLASSES = {
    cls.config_tag: (cls, *_constructor_parameters(cls))
    for cls in (StableSubordinator, TwoStableSubordinator, DistributedOrderSubordinator,
                ParametricLogSubordinator)
}


def model_from_config(config) -> SubordinatorModel:
    """Build a model from a mapping or `key = value` text.

    Recognized keys: ``class`` (stable | two-stable | distributed-order | c3)
    plus exactly the numeric parameters that class's constructor takes
    (``alpha``; ``alpha``, ``beta``; none; ``s`` and optionally ``scale``).
    A missing or extra parameter raises ConfigError.
    """
    if isinstance(config, str):
        mapping = {}
        for line in config.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(f"bad config line {line!r}")
            mapping[key.strip()] = val.strip().strip("'\"")
    else:
        mapping = dict(config)

    try:
        tag = str(mapping.pop("class")).lower()
    except KeyError:
        raise ConfigError("model config needs a 'class' key") from None
    try:
        cls, required, accepted = _MODEL_CLASSES[tag]
    except KeyError:
        raise ConfigError(
            f"unknown model class {tag!r}; expected one of {sorted(_MODEL_CLASSES)}"
        ) from None

    missing, extra = required - mapping.keys(), mapping.keys() - accepted
    if missing or extra:
        raise ConfigError(f"model class {tag!r} takes parameters {sorted(accepted)}; "
                          f"missing {sorted(map(str, missing))}, extra {sorted(map(str, extra))}")
    params = {}
    for key, val in mapping.items():
        try:
            params[key] = float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {key} must be numeric, got {val!r}") from None
    return cls(**params)
