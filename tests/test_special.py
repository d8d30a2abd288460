"""Special-function evaluation against independent oracles.

Oracles live in conftest: scipy's erfcx for the index-1/2 identity,
high-precision mpmath summation, quadrature and Talbot inversion for general
orders, closed-form Gaussians for the index-1/2 density and scipy's stable
density for general indices.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fractime import (
    ConvergenceError,
    DomainError,
    MLRegime,
    PoleError,
    density_tail_cutoff,
    gamma_fn,
    inverse_stable_density,
    mittag_leffler,
    wright,
)
from fractime.verify import ml_reference
from conftest import (
    half_gaussian_density,
    inverse_stable_levy_oracle,
    ml_erfcx_oracle,
    ml_series_oracle,
    ml_spectral_oracle,
    ml_talbot_oracle,
    wright_series_oracle,
)


class TestGamma:
    def test_unity(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_factorial(self):
        assert gamma_fn(4.0) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    def test_rgamma_against_mpmath(self):
        # the package's one 1/Gamma, on math.gamma: a grid over every argument
        # whose Gamma is a normal double, plus points within 1e-6 of the poles
        from fractime.special import _rgamma

        xs = np.concatenate([np.linspace(-170.5, 171.5, 3421),
                             np.arange(-170, 1) + 1e-6, np.arange(-170, 1) - 1e-6])
        xs = xs[xs != np.round(xs)]
        with mp.workdps(40):
            worst = max(abs(_rgamma(x) / float(mp.rgamma(mp.mpf(x))) - 1.0) for x in xs)
        assert worst <= 1e-14

    def test_rgamma_at_the_poles_and_past_the_doubles(self):
        from fractime.special import _rgamma

        for k in range(0, 400, 7):
            assert _rgamma(-float(k)) == 0.0
        # Gamma overflows above 171.62 (1/Gamma is 0) and underflows below -171.5
        for x in (171.7, 200.0, 1e6):
            assert _rgamma(x) == 0.0
            assert gamma_fn(x) == math.inf
        for x, sign in ((-171.5, 1.0), (-180.5, -1.0), (-301.5, 1.0)):
            assert _rgamma(x) == sign * math.inf


class TestMittagLeffler:
    def test_at_zero(self):
        assert mittag_leffler(0.5, 0.0) == 1.0

    def test_classical_exponential(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_half_at_one(self):
        # frozen from the series oracle; equals e * erfc(1)
        assert mittag_leffler(0.5, 1.0) == pytest.approx(0.4275835761558070, rel=1e-12)

    # points within reach of the series oracle: the double series serves
    # x <= 1, and the contour the rest, down to just above 1
    SERIES_BAND = {
        0.1: (0.01, 0.3, 1.0, 1.3),
        0.2: (0.01, 0.3, 1.0, 1.8, 2.0),
        0.3: (0.01, 0.3, 1.0, 2.7, 3.5, 4.9),
        0.5: (0.01, 0.3, 1.0, 2.7, 3.5, 4.9),
        0.7: (0.01, 0.3, 1.0, 2.7, 4.9),
        0.99: (0.01, 0.3, 1.0, 1.01, 2.7, 4.8),
    }

    @pytest.mark.parametrize("alpha", sorted(SERIES_BAND))
    def test_series_band_against_oracle(self, alpha):
        for x in self.SERIES_BAND[alpha]:
            ref = ml_series_oracle(alpha, x)
            assert mittag_leffler(alpha, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_contour_band_against_oracle(self, alpha):
        for x in (5.5, 9.0, 20.0, 49.0):
            ref = ml_erfcx_oracle(x) if alpha == 0.5 else ml_spectral_oracle(alpha, x)
            assert mittag_leffler(alpha, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.4, 0.499, 0.5, 0.6, 2.0 / 3.0])
    @pytest.mark.parametrize("x", [50.0, 1e3, 1e5])
    def test_asymptotic_band_against_oracle(self, alpha, x):
        # a vanishing or tiny 1/Gamma(1 - a k) must not end the tail expansion
        ref = ml_erfcx_oracle(x) if alpha == 0.5 else ml_spectral_oracle(alpha, x)
        assert mittag_leffler(alpha, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("x", [0.7, 50.0, 1e5])
    def test_spectral_oracle_at_small_index(self, x):
        # the oracle's spectral integrand spreads over tens of decades at a = 0.05
        assert ml_spectral_oracle(0.05, x) == pytest.approx(ml_talbot_oracle(0.05, x), rel=1e-12)

    def test_erfcx_identity_band(self):
        for x in np.linspace(0.0, 20.0, 81):
            ref = ml_erfcx_oracle(float(x))
            assert abs(mittag_leffler(0.5, float(x)) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_tail_normalization(self, alpha):
        # x * Gamma(1-alpha) * E_alpha(-x) -> 1
        for x in (1e4, 1e6):
            scaled = mittag_leffler(alpha, x) * x * gamma_fn(1.0 - alpha)
            assert scaled == pytest.approx(1.0, abs=2e-4)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_positive_and_strictly_decreasing(self, alpha):
        xs = np.logspace(-3, 6, 200)
        vals = np.array([mittag_leffler(alpha, float(x)) for x in xs])
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(1.5, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, -1.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_contour_taken_exactly_between_thresholds(self, alpha, monkeypatch):
        # the contour is the one route that calls talbot_invert
        from fractime import special

        contour = special.talbot_invert
        calls = []

        def counting(*args):
            calls.append(args)
            return contour(*args)

        monkeypatch.setattr(special, "talbot_invert", counting)
        regime = MLRegime()
        edges = [regime.series_radius, np.nextafter(regime.series_radius, 2.0),
                 regime.asymptotic_threshold]
        for x in np.concatenate([np.logspace(-3, 3, 121), edges]):
            before = len(calls)
            mittag_leffler(alpha, float(x))
            took_contour = len(calls) > before
            assert took_contour == (regime.series_radius < x < regime.asymptotic_threshold), x

    def test_regime_validation(self):
        with pytest.raises(Exception):
            MLRegime(series_radius=60.0, asymptotic_threshold=50.0)



class TestMLReference:
    """The fixed spectral rule of ``verify.ml_reference``, the oracle of C2."""

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("x", [1e-8, 1e-5, 1e-2])
    def test_small_x_matches_series(self, alpha, x):
        # the spectral mass sits near r = x^(1/alpha); adaptive quadrature
        # from 0 missed it, off by about 100 %
        assert ml_reference(alpha, x) == pytest.approx(mittag_leffler(alpha, x), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("x", [1e-8, 1e-2, 1.0, 10.0, 50.0])
    def test_against_talbot(self, alpha, x):
        assert ml_reference(alpha, x) == pytest.approx(ml_talbot_oracle(alpha, x), rel=1e-10)

    def test_half_index_is_erfcx(self):
        for x in np.logspace(-8, 3, 23):
            assert ml_reference(0.5, x) == pytest.approx(ml_erfcx_oracle(x), rel=1e-14)


class TestWright:
    def test_at_zero(self):
        assert wright(-0.5, 0.5, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_half_gaussian_at_minus_one(self):
        ref = math.exp(-0.25) / math.sqrt(math.pi)  # 0.43939128946772243
        assert wright(-0.5, 0.5, -1.0) == pytest.approx(ref, rel=1e-12)

    def test_half_gaussian_at_minus_ten(self):
        ref = math.exp(-25.0) / math.sqrt(math.pi)
        assert wright(-0.5, 0.5, -10.0) == pytest.approx(ref, rel=1e-10)

    def test_closed_form_route_past_thirty(self):
        ref = math.exp(-35.0 ** 2 / 4.0) / math.sqrt(math.pi)
        assert wright(-0.5, 0.5, -35.0) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("mu,nu,zs", [
        (-0.4, 0.6, (-0.5, -3.0, -8.0)),
        (-0.6, 0.4, (-0.5, -3.0, -8.0, -10.0)),
        (-0.3, 0.7, (-0.5, -3.0, -8.0)),
        # the density slice near alpha 0.9 needs more than 200 nonzero terms
        # before its terms decay
        (-0.85, 0.15, (-2.7,)),
    ])
    def test_general_orders_against_oracle(self, mu, nu, zs):
        for z in zs:
            ref = wright_series_oracle(mu, nu, z)
            assert wright(mu, nu, z) == pytest.approx(ref, rel=1e-11)

    def test_nonconvergence_signaled(self):
        # peak index far beyond the budget: decay cannot be established
        with pytest.raises(ConvergenceError):
            wright(-0.3, 0.7, -100.0)

    def test_hopeless_series_fails_without_a_high_precision_pass(self, monkeypatch):
        # the double-precision scan already shows 400 nonzero terms before the
        # peak (n_peak 12797), so no pass could see decay within the budget
        from fractime import special

        def no_pass(*args):
            raise AssertionError("high-precision pass attempted")

        monkeypatch.setattr(special, "_wright_sum", no_pass)
        with pytest.raises(ConvergenceError):
            wright(-0.74, 0.26, -16.8)

    @pytest.mark.parametrize("alpha", [0.05, 0.42, 0.74, 0.92])
    def test_early_failure_spares_base_table_nodes(self, alpha):
        # every node of the base density table (panels -11..0) still gets its pass
        from fractime.special import (
            _WRIGHT_BUDGET, _WRIGHT_HARD_CAP, _nonzero_terms, _wright_peak,
        )

        gauss = np.polynomial.legendre.leggauss(32)[0] + 1.0
        cutoff = density_tail_cutoff(alpha, 1.0, 1e-12)
        nodes = [0.5 * math.ldexp(cutoff, -11) * x for x in gauss]
        for k in range(-10, 1):
            hi = math.ldexp(cutoff, k)
            nodes += [0.25 * hi * x + 0.5 * hi for x in gauss]
        for v in nodes:
            # the scan length wright uses
            _, n_peak = _wright_peak(-alpha, 1.0 - alpha, -v, 4 * _WRIGHT_HARD_CAP)
            assert _nonzero_terms(-alpha, 1.0 - alpha, n_peak) < _WRIGHT_BUDGET

    def test_peak_scan_sees_every_pole(self):
        # 1/Gamma vanishes at every nonpositive integer, where math.lgamma raises
        from fractime.special import _log10_abs_rgamma

        for k in (0.0, -1.0, -2.0, -3.0):
            assert _log10_abs_rgamma(k) == -math.inf
        ref = math.log10(abs(float(mp.rgamma(-2.5))))
        assert _log10_abs_rgamma(-2.5) == pytest.approx(ref, rel=1e-14)

    def test_peak_scan_keeps_the_distance_to_a_far_pole(self):
        # sin(pi arg) loses this argument's distance to -968 (1.18 off in log10)
        from fractime.special import _log10_abs_rgamma

        arg = -968.0000000000001
        with mp.workdps(40):
            ref = float(mp.log10(abs(mp.rgamma(mp.mpf(arg)))))
        assert abs(_log10_abs_rgamma(arg) - ref) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            wright(0.5, 0.5, -1.0)
        with pytest.raises(DomainError):
            wright(-0.5, 0.5, 1.0)


class TestInverseStableDensity:
    def test_matches_half_gaussian(self):
        for t in (0.5, 1.0, 4.0):
            for tau in (0.1, 1.0, 3.0):
                ref = half_gaussian_density(t, tau)
                assert inverse_stable_density(0.5, t, tau) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_against_scipy_stable_density(self, alpha):
        for t in (0.5, 2.0):
            for tau in (0.05, 0.3, 1.0, 2.5):
                ref = inverse_stable_levy_oracle(alpha, t, tau)
                assert inverse_stable_density(alpha, t, tau) == pytest.approx(ref, rel=1e-11)

    def test_zero_limit(self):
        # 1/sqrt(4 pi)
        assert inverse_stable_density(0.5, 4.0, 0.0) == pytest.approx(
            0.28209479177387814, rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.4, 0.5, 0.6])
    @pytest.mark.parametrize("t", [0.5, 1.0, 10.0])
    def test_normalization(self, alpha, t):
        cutoff = density_tail_cutoff(alpha, t, floor=1e-10)
        total, _ = quad(lambda tau: inverse_stable_density(alpha, t, tau), 0.0, cutoff,
                        limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_laplace_transform_identity(self, lam, t):
        # integral of e^{-lam tau} against the density equals E_a(-lam t^a)
        alpha = 0.5
        cutoff = density_tail_cutoff(alpha, t, floor=1e-10)
        got, _ = quad(
            lambda tau: math.exp(-lam * tau) * inverse_stable_density(alpha, t, tau),
            0.0, cutoff, limit=200,
        )
        ref = ml_erfcx_oracle(lam * t ** alpha)
        assert got == pytest.approx(ref, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            inverse_stable_density(1.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            inverse_stable_density(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            inverse_stable_density(0.5, 1.0, -0.5)


def test_thread_safety_of_precision_paths():
    # elevated-precision series run under a lock; concurrent evaluation must
    # reproduce serial values bit for bit
    import concurrent.futures

    from fractime.special import _rgamma_series

    _rgamma_series.cache_clear()
    args = [(0.5, 2.0 + 0.01 * k) for k in range(12)] + \
           [(0.45, 3.0 + 0.05 * k) for k in range(12)]
    serial_ml = [mittag_leffler(a, x) for a, x in args]
    zs = [-(0.3 + 0.2 * k) for k in range(20)]
    serial_w = [wright(-0.5, 0.5, z) for z in zs]
    _rgamma_series.cache_clear()
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        par_ml = list(pool.map(lambda ax: mittag_leffler(*ax), args))
        par_w = list(pool.map(lambda z: wright(-0.5, 0.5, z), zs))
    assert par_ml == serial_ml
    assert par_w == serial_w


def test_values_independent_of_cache_state():
    # the shared 1/Gamma coefficient lists grow in whatever order arguments
    # arrive; a base density table must come out bit for bit the same in
    # order, in reverse and from a thread pool with a short switch interval
    import concurrent.futures
    import sys

    from fractime.special import _rgamma_series

    alpha = 0.42
    gauss = np.polynomial.legendre.leggauss(32)[0] + 1.0
    cutoff = density_tail_cutoff(alpha, 1.0, 1e-12)
    nodes = [0.5 * math.ldexp(cutoff, -11) * x for x in gauss]
    for k in range(-10, 1):
        hi = math.ldexp(cutoff, k)
        nodes += [0.25 * hi * x + 0.5 * hi for x in gauss]

    def density(v):
        return wright(-alpha, 1.0 - alpha, -float(v))

    def fresh(evaluate):
        _rgamma_series.cache_clear()
        return evaluate()

    forward = fresh(lambda: [density(v) for v in nodes])
    backward = fresh(lambda: [density(v) for v in reversed(nodes)][::-1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            pooled = fresh(lambda: list(pool.map(density, nodes, timeout=120)))
    finally:
        sys.setswitchinterval(interval)
    assert forward == backward == pooled
