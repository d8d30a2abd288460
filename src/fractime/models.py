"""Subordinator models and the dynamics they are applied to.

A model is a frozen dataclass whose fields are the parameters of an
increasing Levy process.  Each family states its kernel transform K, the
Laplace transform of the tail kernel of the Levy measure, and, where it has
one, that kernel and its convolution with the powers s^g; the cumulative
kernel (g = 0) is derived once, in the common base.  The distributed-order
exponent l K(l) = int_0^1 l^a da is a mixture of stable exponents; a 16-node
Gauss-Legendre rule in the order states it as a sum of 16 stables, which
Monte Carlo draws exactly.  The stable, two-stable and distributed-order
models share one kernel and convolution formula, summed over those terms.
The three kinds of family are distinguished by the small-frequency
behavior of K, which is what drives their long-time Cesaro rates:

* power-kernel models (stable, sum of two stables): transform ~ l^(a-1);
* the distributed-order model: transform ~ 1/(l log(1/l));
* a parametric log-kernel family: transform ~ (1/l) (log(1/l))^(-1-s).

Models are immutable and compare and hash by their parameters; every method
is pure.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import reduce
from operator import add
from typing import Callable, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DomainError, UnsupportedDynamicError, UnsupportedModelError
from .special import _rgamma, gamma_fn

Complex = Union[float, complex]

# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """The dynamic u(t) = t^n, n a nonnegative integer."""

    n: int

    def __post_init__(self):
        if not (0 <= self.n < math.inf and int(self.n) == self.n):
            raise ConfigError(f"monomial degree must be a nonnegative integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def value(self, t):
        return np.asarray(t, dtype=float) ** self.n if self.n else np.ones_like(np.asarray(t, dtype=float))

    def transform(self, z):
        """Laplace transform n! / z^(n+1), elementwise; n! past the doubles (n > 170) is inf."""
        coef = float(math.factorial(self.n)) if self.n <= 170 else math.inf
        return coef * z ** (-(self.n + 1))


@dataclass(frozen=True)
class Exponential:
    """The dynamic u(t) = exp(-a t), a > 0."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ConfigError(f"exponential rate must be positive and finite, got {self.a}")
        object.__setattr__(self, "a", float(self.a))

    def value(self, t):
        return np.exp(-self.a * np.asarray(t, dtype=float))

    def transform(self, z):
        """Laplace transform 1 / (z + a), elementwise."""
        return 1.0 / (z + self.a)


@dataclass(frozen=True)
class UserTransform:
    """A dynamic given only through its Laplace transform.

    fn takes and returns one scalar; ``transform`` applies it to each entry
    of an array of nodes, so a callable written with ``cmath`` works as it is.
    Gaver-Stehfest reads its real part on the real axis, where its imaginary
    part must be exactly 0 (InversionError otherwise).
    """

    fn: Callable[[Complex], Complex]

    def transform(self, z):
        return np.vectorize(self.fn)(z)[()]


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

def _transform_nodes(lam) -> np.ndarray:
    """lam as a float or complex array for a kernel transform.

    Real entries must be strictly positive (NaN is refused too): the kernel
    transforms diverge at zero.  Complex entries may sit anywhere off the
    branch cut: inversion contours bend into the left half-plane but keep a
    nonzero imaginary part, so principal branches are never crossed.  The
    array keeps lam's dtype, so real nodes give real values and complex
    nodes complex ones.
    """
    z = np.asarray(lam)
    if z.dtype.kind not in "fc":
        z = z.astype(float)
    bad = (z.imag == 0.0) & ~(z.real > 0.0)
    if bad.any():
        raise DomainError(f"real argument must be positive, got {z[bad][0]!r}")
    return z


def _kernel_times(t, method: str, positive: bool = False) -> np.ndarray:
    """t as a float array for a kernel method; DomainError unless every entry
    is >= 0 (> 0 if positive).  The test is the comparison itself, so NaN
    fails it too."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0 if positive else t >= 0.0):
        raise DomainError(f"{method} requires t {'>' if positive else '>='} 0")
    return t


def _check_conv_exponent(gamma) -> None:
    """DomainError unless -1 < gamma < inf, where the convolution with s^gamma converges."""
    if not -1.0 < gamma < math.inf:
        raise DomainError(f"kernel_conv_power requires -1 < gamma < inf, got {gamma!r}")


def _finite_kernel_values(out: np.ndarray, method: str):
    """out as a float (0-d) or the array; DomainError unless every value is finite."""
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{method} overflows the doubles")
    return float(out) if out.ndim == 0 else out


class SubordinatorModel:
    """Common surface of the subordinator families.

    Each family is a frozen dataclass whose fields are its parameters.  It
    states its kernel transform K (everywhere) and, where one is defined,
    its time-domain kernel k and the convolution of k with s^g; the
    cumulative kernel (the convolution with s^0), ``describe`` and the repr,
    equality and hash are derived once, from those and from the fields.
    Each model also states what its kernel allows, as class constants or as
    attributes set once from its parameters:

    * ``stable_terms``: the (index, weight) pairs (a_i, w_i) of the
      independent stable subordinators the model is the sum of, so that
      l K(l) = sum_i w_i l^(a_i); () if it is no such sum.  Any number of
      terms gives exact Monte Carlo draws of the inverse time, with no
      time steps.
    * ``short_time_power``: the exponent g with u(t) ~ u0 (1 - c t^g) near
      zero for the kernel relaxation, None when the model has no
      time-domain kernel (transform routes only).
    * ``power_index`` and ``log_rate_scale``: the Cesaro exponents, so that
      t^n has running mean ~ t^(power_index n) (log t)^(log_rate_scale n)
      and exp(-a t) the same with n = -1; each is 0 where it does not apply.

    Setting or deleting an attribute of a family's model raises
    FrozenInstanceError, so the stated capabilities cannot drift from the
    parameters the kernel methods read.
    """

    config_tag = ""
    stable_terms = ()
    short_time_power = None
    power_index = 0.0
    log_rate_scale = 0.0

    # -- transform side -----------------------------------------------------
    def kernel_transform(self, lam):
        """Laplace transform of the tail kernel, elementwise; Re l > 0.

        lam is a scalar or an array of nodes; a scalar gives a scalar.
        """
        raise UnsupportedModelError(f"{type(self).__name__} states no kernel transform")

    # -- kernel side (power + distributed-order families) --------------------
    def kernel(self, t: float) -> float:
        """Tail kernel k(t) = levy_measure((t, inf)); t > 0."""
        raise UnsupportedModelError(f"{type(self).__name__} defines no kernel")

    def kernel_integral(self, t: float):
        """Cumulative kernel integral over [0, t]: the convolution with s^0."""
        return self.kernel_conv_power(0.0, t)

    def kernel_conv_power(self, gamma: float, t: float):
        """Convolution of the kernel with s^gamma over [0, t] (closed form); -1 < gamma < inf."""
        raise UnsupportedModelError(f"{type(self).__name__} defines no kernel")

    def predict_rate(self, dynamic: Dynamic) -> RatePrediction:
        """Predicted Cesaro-mean exponents for a monomial or decaying exponential."""
        if isinstance(dynamic, Monomial):
            return RatePrediction(self.power_index * dynamic.n, self.log_rate_scale * dynamic.n)
        if isinstance(dynamic, Exponential):
            # 0.0 - x, not -x: an exponent that does not apply stays +0.0
            return RatePrediction(0.0 - self.power_index, 0.0 - self.log_rate_scale)
        raise UnsupportedDynamicError("rate predictions need a monomial or exponential dynamic")

    def describe(self) -> dict:
        """The config mapping that `model_from_config` turns back into this model."""
        return {"class": self.config_tag, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class StableSubordinator(SubordinatorModel):
    """Driftless stable subordinator: exponent l^alpha, kernel t^-alpha/Gamma(1-alpha)."""

    alpha: float
    config_tag = "stable"

    def __post_init__(self):
        alpha = float(self.alpha)
        if not (0.0 < alpha < 1.0):
            raise ConfigError(f"stable index must lie in (0,1), got {alpha}")
        # one dict update past the frozen __setattr__: models are built per operation
        vars(self).update(alpha=alpha, stable_terms=((alpha, 1.0),), short_time_power=alpha,
                          power_index=alpha)

    # Written for any sum of stables, in term order; TwoStableSubordinator binds them too.
    def kernel_transform(self, lam):
        z = _transform_nodes(lam)
        return reduce(add, (w * z ** (a - 1.0) for a, w in self.stable_terms))

    def kernel(self, t):
        t = _kernel_times(t, "kernel", positive=True)
        with np.errstate(over="ignore"):
            out = reduce(add, (w * t ** (-a) * _rgamma(1.0 - a) for a, w in self.stable_terms))
        return _finite_kernel_values(out, "kernel")

    def kernel_conv_power(self, gamma, t):
        _check_conv_exponent(gamma)
        t = _kernel_times(t, "kernel_conv_power")
        # where=: the integral over [0, 0] is 0, also for exponents <= 0
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 where Gamma overflows
            out = reduce(add, (w * gamma_fn(1.0 + gamma) * _rgamma(2.0 + gamma - a)
                               * np.power(t, 1.0 + gamma - a, where=t > 0.0,
                                          out=np.zeros_like(t))
                               for a, w in self.stable_terms))
        return _finite_kernel_values(out, "kernel_conv_power")


@dataclass(frozen=True)
class TwoStableSubordinator(SubordinatorModel):
    """Sum of two independent stable subordinators with indices alpha < beta.

    The smaller index controls the small-frequency behavior, so long-time
    rates match a pure stable model of index alpha; the larger one
    dominates small times.
    """

    alpha: float
    beta: float
    config_tag = "two-stable"

    def __post_init__(self):
        alpha, beta = float(self.alpha), float(self.beta)
        if not (0.0 < alpha < beta < 1.0):
            raise ConfigError(f"need 0 < alpha < beta < 1, got alpha={alpha}, beta={beta}")
        vars(self).update(alpha=alpha, beta=beta, stable_terms=((alpha, 1.0), (beta, 1.0)),
                          short_time_power=beta, power_index=alpha)

    # bound here rather than inherited: perfbench's tracer wraps each class's own methods
    kernel_transform = StableSubordinator.kernel_transform
    kernel = StableSubordinator.kernel
    kernel_conv_power = StableSubordinator.kernel_conv_power


@dataclass(frozen=True)
class DistributedOrderSubordinator(SubordinatorModel):
    """Kernel averaged uniformly over power orders in (0,1).

    k(t) = int_0^1 t^(a-1)/Gamma(a) da, with kernel transform
    (l - 1)/(l log l) -- a removable singularity at l = 1, where nodes within
    _TAYLOR_RADIUS take a short Taylor expansion to dodge catastrophic
    cancellation.  K keeps that closed form, whose exact 1/(l log(1/l)) sets
    the long-time rates; the kernel and its convolutions are those of its 16
    ``stable_terms``, within 1e-12 relative of the exact ones on [1e-6, 1e12].
    """

    config_tag = "distributed-order"
    # l K(l) = int_0^1 l^a da by 16-node Gauss-Legendre on (0,1): within
    # 5.6e-14 of (l - 1)/log l on every Talbot node for t in [1e-6, 1e12]
    stable_terms = tuple((float(0.5 * (x + 1.0)), float(0.5 * w)) for x, w in zip(*leggauss(16)))
    # the solution behaves like t log(1/t) at small times, close to linear
    short_time_power = 1.0
    log_rate_scale = 1.0

    _TAYLOR_RADIUS = 1e-4

    def kernel_transform(self, lam):
        z = _transform_nodes(lam)
        w = z - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at l = 1, masked
            val = np.where(np.abs(w) < self._TAYLOR_RADIUS,
                           1.0 + w * (-0.5 + w * (5.0 / 12.0 - 3.0 * w / 8.0)),
                           w / (z * np.log(z)))
        return val[()]

    kernel = StableSubordinator.kernel
    kernel_conv_power = StableSubordinator.kernel_conv_power


@dataclass(frozen=True)
class ParametricLogSubordinator(SubordinatorModel):
    """Parametric family with kernel transform ~ (1/l) (log(1/l))^(-1-s).

    Defined directly through the transform
    K(l) = scale * (1 + log(1 + 1/l))^(-1-s) / l; the shifts keep the
    transform finite and positive on (0, inf) without changing the
    small-frequency behavior.  No kernel or Levy density is exposed, so the
    model is usable on transform-side routes only.

    It is a subordinator only for s <~ 0.986: beyond, its Levy density
    changes sign (near x = 3.1, for every scale, since the density scales
    with it), and from s ~ 1.466 the tail kernel itself turns negative.
    Such s is accepted all the same, since no proven bound on s exists yet.
    """

    s: float
    scale: float = 1.0
    config_tag = "c3"

    def __post_init__(self):
        s, scale = float(self.s), float(self.scale)
        if not 0.0 < s < math.inf:
            raise ConfigError(f"log exponent s must be positive and finite, got {s}")
        if not 0.0 < scale < math.inf:
            raise ConfigError(f"scale must be positive and finite, got {scale}")
        vars(self).update(s=s, scale=scale, log_rate_scale=1.0 + s)

    def kernel_transform(self, lam):
        z = _transform_nodes(lam)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self.scale * (1.0 + _log1p_recip(z)) ** (-1.0 - self.s) / z


def _log1p_recip(z: np.ndarray) -> np.ndarray:
    """log(1 + 1/z) on the principal branch, elementwise.

    Real entries, also those of a complex array (a contour's node on the
    positive axis), take the real log1p, which keeps tiny 1/z exact.
    """
    w = 1.0 / z
    return np.where(z.imag == 0.0, np.log1p(w.real), np.log(1.0 + w))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# tag -> (class, required parameter names, accepted parameter names)
_MODEL_CLASSES = {
    cls.config_tag: (cls, {f.name for f in fields(cls) if f.default is MISSING},
                     {f.name for f in fields(cls)})
    for cls in (StableSubordinator, TwoStableSubordinator, DistributedOrderSubordinator,
                ParametricLogSubordinator)
}


def model_from_config(config) -> SubordinatorModel:
    """Build a model from a mapping or `key = value` text.

    Recognized keys: ``class`` (stable | two-stable | distributed-order | c3)
    plus exactly the numeric parameters that are the class's fields
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
