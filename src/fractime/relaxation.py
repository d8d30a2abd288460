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
solved by blocked forward substitution (Hairer, Lubich & Schlichte, SIAM
J. Sci. Stat. Comput. 1985): each block of rows takes the solved rows'
share in one matrix-vector product and then applies the precomputed
inverse of the small triangular diagonal block, so no Python runs per row.
The two full convolution sums, the starting correction's and the residual
check's, are taken by numpy's real FFT, so outside the solve a problem
costs O(N log N).  Only numpy is used: scipy.linalg and scipy.fft stay
unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, UnsupportedModelError
from .grids import GridFunction
from .models import SubordinatorModel


# The blocked solve holds a _BLOCK x steps slab of doubles (25.6 MB at this
# bound, next to tables and FFT buffers of a few MB), so a tiny h cannot ask
# for gigabytes; the largest step count the package itself uses is 5000.
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


_BLOCK = 32  # rows per block of the triangular solve; the slab holds _BLOCK x steps doubles


def _toeplitz_forward(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve sum_{j <= i} c[i - j] x[j] = rhs[i] by blocked forward substitution.

    Each block of _BLOCK rows first takes off the solved rows' share in one
    matrix-vector product with the slab G[p, k] = c[p + k], read against
    the solution stored in reverse, then applies the inverse of the fixed
    lower-triangular Toeplitz diagonal block, computed once.  The leading
    m x m corner of that inverse is the inverse of the block's corner, so
    a short last block uses it too.
    """
    n = rhs.size
    padded = np.zeros(n + _BLOCK - 1)
    padded[:n] = c[:n]
    slab = np.lib.stride_tricks.sliding_window_view(padded, n)[:_BLOCK].copy()
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    inverse = np.linalg.inv(np.where(lag >= 0, padded[np.maximum(lag, 0)], 0.0))
    rev = np.empty(n)  # rev[n - 1 - j] = x[j]
    for s in range(0, n, _BLOCK):
        m = min(_BLOCK, n - s)
        part = rhs[s:s + m] - slab[:m, 1:s + 1] @ rev[n - s:]
        rev[n - s - m:n - s] = (inverse[:m, :m] @ part)[::-1]
    return rev[::-1]


def solve_relaxation(prob: RelaxationProblem) -> GridFunction:
    """Solve on {0, h, 2h, ..., horizon}; the initial value is prepended.

    The first step carries the starting correction and is a scalar division.
    Rows 2..N then form one lower-triangular Toeplitz system in u_2..u_N,
    with c_0 = W_0 + a h and c_k = W_k + a h (the implicit damping sum
    folded into the convolution weights); it is solved by blocked forward
    substitution, two matrix-vector products per block of rows.
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
    from full convolutions, independently of the blocked substitution,
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
