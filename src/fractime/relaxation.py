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

Past the first step the rows form one lower-triangular Toeplitz system,
the kind of convolution-quadrature system of Hairer, Lubich & Schlichte
(SIAM J. Sci. Stat. Comput. 1985).  Its inverse is lower-triangular
Toeplitz too, with first column the power series reciprocal of the
weights, which Newton's iteration builds with FFT products (Lin, Ching &
Ng, Theoret. Comput. Sci. 2004); the solution is that reciprocal
convolved with the right-hand side, plus one refinement step.  Every
convolution, the starting correction's and the residual check's too, is
taken by numpy's real FFT, so a problem costs O(N log N) time and O(N)
memory, with no Python per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, UnsupportedModelError
from .grids import GridFunction
from .models import SubordinatorModel


# Tables and FFT buffers take a few MB at this bound, so a tiny h cannot ask
# for gigabytes; a solve here takes about 50 ms on two shared cores.  The
# largest step count the package itself uses is 5000.
_MAX_STEPS = 100_000


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
        if not (0.0 <= self.a < math.inf):
            raise ConfigError(f"damping rate a must be finite and nonnegative, got {self.a!r}")
        if not math.isfinite(self.u0):
            raise ConfigError(f"initial value u0 must be finite, got {self.u0!r}")
        if not (0.0 < self.h <= self.horizon < math.inf):
            raise ConfigError("need 0 < h <= horizon < inf")
        if self.horizon / self.h > _MAX_STEPS:
            raise ConfigError(f"horizon / h exceeds {_MAX_STEPS} steps")


def _fast_len(n: int) -> int:
    """The smallest 5-smooth number 2^i 3^j 5^k >= n, a length the FFT splits fully."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _causal_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first n = a.size terms of the convolution a * b, by real FFT.

    Both inputs are zero-padded to a fast length of at least 2n - 1, so no
    term wraps around into the n kept.
    """
    n = a.size
    size = _fast_len(2 * n - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


@lru_cache(maxsize=1)
def _scheme_arrays(prob: RelaxationProblem):
    """Grid, cumulative-kernel values, cell weights, and starting corrections.

    Cached for the last problem, so a solve and its residual check build
    the tables once; the arrays are read-only.
    """
    steps = int(round(prob.horizon / prob.h))
    if steps < 1:
        raise ConfigError("horizon shorter than one step")
    t = prob.h * np.arange(steps + 1)
    cumulative = prob.model.kernel_integral(t)
    weights = np.diff(cumulative)  # weights[i] = integral of k over (ih, (i+1)h)

    g = prob.model.short_time_power
    tg = t ** g
    # row corrections b_m on (u1 - u0): make each row's convolution quadrature
    # exact on s^g as well as on constants
    exact = prob.model.kernel_conv_power(g, t[1:])
    approx = _causal_convolve(weights, tg[1:])
    b = np.zeros(steps + 1)
    b[1:] = (exact - approx) / tg[1]
    for arr in (t, cumulative, weights, b):
        arr.flags.writeable = False
    return t, cumulative, weights, b


_HEAD = 64  # at most this many leading coefficients of the reciprocal come from a dense solve


def _series_reciprocal(c: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of the power series 1/c(z), c[0] != 0.

    They are the first column of the inverse of the lower-triangular
    Toeplitz matrix with first column c.  The leading ones, at most _HEAD,
    come from one dense triangular solve; Newton's iteration
    g <- g - g (c g - 1) then doubles the number known, with real FFT
    products, up to n (Lin, Ching & Ng, Theoret. Comput. Sci. 2004).  The
    counts are n halved (rounding up) until at most _HEAD remain, so no
    step forms more coefficients than the next one keeps.  With m known,
    c g - 1 vanishes below z^m, so only its coefficients m..k-1 are formed:
    the cyclic wrap of the product lands below m, where it is not read,
    and one spectrum of g serves both products of a step.
    """
    counts = [n]
    while counts[-1] > _HEAD:
        counts.append((counts[-1] + 1) // 2)
    m = counts.pop()
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    head = np.where(lag >= 0, c[np.maximum(lag, 0)], 0.0)
    g = np.linalg.solve(head, np.eye(m, 1)[:, 0])
    for k in reversed(counts):
        size = _fast_len(k)
        spectrum = np.fft.rfft(g, size)
        excess = np.fft.irfft(np.fft.rfft(c[:k], size) * spectrum, size)[m:k]
        step = np.fft.irfft(np.fft.rfft(excess, size) * spectrum, size)[:k - m]
        g = np.concatenate((g, -step))
        m = k
    return g


def _toeplitz_forward(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve sum_{j <= i} c[i - j] x[j] = rhs[i] as x = g * rhs, g = 1/c.

    One step of refinement, x += g * (rhs - c * x), takes the residual
    left by the reciprocal's own roundoff (up to 3e-11 for small stable
    indices) back to that of the products; one spectrum of g serves both
    products with g.
    """
    n = rhs.size
    size = _fast_len(2 * n - 1)
    spectrum = np.fft.rfft(_series_reciprocal(c, n), size)
    x = np.fft.irfft(np.fft.rfft(rhs, size) * spectrum, size)[:n]
    r = rhs - _causal_convolve(c[:n], x)
    x += np.fft.irfft(np.fft.rfft(r, size) * spectrum, size)[:n]
    return x


def solve_relaxation(prob: RelaxationProblem) -> GridFunction:
    """Solve on {0, h, 2h, ..., horizon}; the initial value is prepended.

    The first step carries the starting correction and is a scalar division.
    Rows 2..N then form one lower-triangular Toeplitz system in u_2..u_N,
    with c_0 = W_0 + a h and c_k = W_k + a h (the implicit damping sum
    folded into the convolution weights); it is solved in O(N log N) by
    the series reciprocal of c and one refinement step.
    """
    t, cumulative, weights, b = _scheme_arrays(prob)
    steps = t.size - 1
    u = np.empty(steps + 1)
    u[0] = prob.u0
    ah = prob.a * prob.h
    c = weights + ah
    denom = weights[0] + b[1] + ah
    if not (denom > 0.0 and c[0] > 0.0):
        raise ConfigError("singular step; is h positive?")
    u[1] = prob.u0 * (cumulative[1] + b[1]) / denom
    if steps > 1:
        rhs = prob.u0 * cumulative[2:] - b[2:] * (u[1] - prob.u0) - c[1:steps] * u[1]
        u[2:] = _toeplitz_forward(c, rhs)
    return GridFunction(t.copy(), u)


def residual_check(solution: GridFunction, prob: RelaxationProblem) -> float:
    """Max defect of the solution in the assembled integrated equation.

    Shares the scheme's tables with the solve but assembles every row
    from full convolutions, independently of the Toeplitz solve,
    and returns the largest absolute row defect; a correct solve leaves
    only roundoff.
    """
    t, cumulative, weights, b = _scheme_arrays(prob)
    if solution.abscissae.size != t.size or not np.allclose(solution.abscissae, t):
        raise ConfigError("solution grid does not match the problem grid")
    u = solution.values
    conv = _causal_convolve(weights, u[1:])
    integral = prob.h * np.cumsum(u[1:])
    defect = (
        conv
        + b[1:] * (u[1] - prob.u0)
        - prob.u0 * cumulative[1:]
        + prob.a * integral
    )
    return float(np.max(np.abs(defect)))
