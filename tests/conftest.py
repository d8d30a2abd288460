"""Shared oracles for the test suite.

Everything here is computed by a route independent of the implementation
it checks: high-precision series/quadrature/Talbot inversion in mpmath,
scipy's erfcx and stable density, or plain closed-form arithmetic.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfcx
from scipy.stats import levy_stable


def ml_series_oracle(alpha: float, x: float) -> float:
    """E_alpha(-x) by brute high-precision summation of the defining series.

    Working precision adapts to the largest term so cancellation never
    costs accuracy; impractical for small alpha at large x (term count
    blows up) -- use ml_spectral_oracle there.
    """
    peak_digits = 0.0
    if x > 1.0:
        n_peak = max(1, int(round(x ** (1.0 / alpha) / alpha)))
        for n in {max(1, n_peak // 2), n_peak, 2 * n_peak}:
            peak_digits = max(
                peak_digits, (n * math.log(x) - math.lgamma(alpha * n + 1)) / math.log(10)
            )
    dps = int(40 + peak_digits)
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        total = mp.mpf(0)
        peak = mp.mpf(1)
        n = 0
        while True:
            term = mp.mpf(-x) ** n / mp.gamma(a * n + 1)
            total += term
            peak = max(peak, abs(term))
            if n > 4 and abs(term) < peak * mp.mpf(10) ** (-(dps - 5)):
                return float(total)
            n += 1


def ml_spectral_oracle(alpha: float, x: float, dps: int = 40) -> float:
    """E_alpha(-x) through its completely monotone spectral representation.

    E_a(-x) = int_0^inf exp(-u) r^(a-1) sin(pi a) / (pi t (r^2a + 2 r^a cos(pi a) + 1)) du
    with t = x^(1/a), r = u/t.  At small a the integrand spreads over tens of
    decades of u, so it is integrated in s = log(u/t) on equal knots from
    -60/a (where r^a = e^-60) to log(200/t) (where exp(-u) = e^-200).
    """
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        t = mp.mpf(x) ** (1 / a)
        sa, ca = mp.sin(a * mp.pi), mp.cos(a * mp.pi)

        def f(s):
            ra = mp.e ** (a * s)
            return mp.e ** (-t * mp.e ** s) * ra * sa / (ra * ra + 2 * ra * ca + 1) / mp.pi

        return float(mp.quad(f, mp.linspace(-60 / a, mp.log(200 / t), 12)))


def ml_talbot_oracle(alpha: float, x: float, dps: int = 40) -> float:
    """E_alpha(-x) by mpmath's Talbot inversion of l^(alpha-1)/(l^alpha + x) at t = 1."""
    with mp.workdps(dps):
        a, xx = mp.mpf(alpha), mp.mpf(x)
        return float(mp.invertlaplace(lambda l: l ** (a - 1) / (l ** a + xx), 1, method="talbot"))


def inverse_stable_levy_oracle(alpha: float, t: float, tau: float) -> float:
    """Inverse-stable density from scipy's one-sided stable density (Nolan's integral).

    G_t(tau) = t / (alpha tau^(1+1/alpha)) g(t tau^(-1/alpha)), g the density with
    Laplace transform exp(-l^alpha): beta = 1, scale cos(pi alpha/2)^(1/alpha)
    in scipy's default S1 parameterization.
    """
    g = levy_stable(alpha, 1.0, loc=0.0, scale=math.cos(0.5 * math.pi * alpha) ** (1.0 / alpha))
    return t / (alpha * tau ** (1.0 + 1.0 / alpha)) * float(g.pdf(t * tau ** (-1.0 / alpha)))


def ml_erfcx_oracle(x: float) -> float:
    """E_{1/2}(-x) = exp(x^2) erfc(x), scipy's scaled complementary error function."""
    return float(erfcx(x))


def wright_series_oracle(mu: float, nu: float, z: float, dps: int = 120) -> float:
    """W_{mu,nu}(z) by brute high-precision summation."""
    with mp.workdps(dps):
        mz, mmu, mnu = mp.mpf(z), mp.mpf(mu), mp.mpf(nu)
        total = mp.mpf(0)
        peak = mp.mpf(1)
        n = 0
        while True:
            term = mz ** n / mp.factorial(n) * mp.rgamma(mmu * n + mnu)
            total += term
            peak = max(peak, abs(term))
            if n > 8 and abs(term) < peak * mp.mpf(10) ** (-(dps - 10)):
                return float(total)
            n += 1


def distributed_order_oracle(t: float, gamma: float | None = None, dps: int = 30) -> float:
    """Distributed-order kernel (gamma None) or its convolution with s^gamma at t > 0.

    mpmath quadrature over the order a of the per-order closed forms:
    k(t) = int_0^1 t^(a-1)/Gamma(a) da and
    int_0^t k(t-s) s^gamma ds = int_0^1 Gamma(1+gamma) t^(gamma+a)/Gamma(1+gamma+a) da.
    """
    with mp.workdps(dps):
        tt = mp.mpf(t)
        if gamma is None:
            return float(mp.quad(lambda a: tt ** (a - 1) * mp.rgamma(a), [0, 1]))
        g = mp.mpf(gamma)
        return float(mp.gamma(1 + g) * mp.quad(lambda a: tt ** (g + a) * mp.rgamma(1 + g + a), [0, 1]))


def half_gaussian_density(t: float, tau: float) -> float:
    """Closed-form inverse-stable density at index 1/2."""
    return math.exp(-tau * tau / (4.0 * t)) / math.sqrt(math.pi * t)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987654321)
