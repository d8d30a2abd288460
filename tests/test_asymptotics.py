"""Cesaro means, rate fitting, and predicted-vs-fitted verification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfcx

from fractime import (
    ConfigError,
    DistributedOrderSubordinator,
    DomainError,
    Exponential,
    FractimeError,
    GridFunction,
    InversionError,
    Monomial,
    StableSubordinator,
    UserTransform,
    cesaro_curve,
    cesaro_mean,
    fit_rate,
    log_grid,
    subordinated_value,
    verify_class,
)


class TestCesaroMean:
    def test_constant_dynamic(self):
        for model in (StableSubordinator(0.5), DistributedOrderSubordinator()):
            for t in (0.5, 7.0, 1e6):
                assert cesaro_mean(model, Monomial(0), t) == pytest.approx(1.0, rel=1e-10)

    def test_stable_monomial_closed_form(self):
        # M_t of 2 sqrt(s/pi) is (4/(3 sqrt(pi))) sqrt(t); at t=9 equals 4/sqrt(pi)
        got = cesaro_mean(StableSubordinator(0.5), Monomial(1), 9.0)
        assert got == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-10)

    def test_exponential_tail_rate(self):
        # the running mean decays like t^-alpha: ratio at huge t values
        model = StableSubordinator(0.5)
        m1 = cesaro_mean(model, Exponential(1.0), 1e6)
        m2 = cesaro_mean(model, Exponential(1.0), 1e8)
        assert m1 / m2 == pytest.approx(10.0, rel=0.05)

    def test_requires_positive_time(self):
        with pytest.raises(ConfigError):
            cesaro_mean(StableSubordinator(0.5), Monomial(1), 0.0)

    def test_time_past_the_doubles_raises_before_any_warning(self):
        # at t = 1e200 the running transform overflows at the contour's
        # nodes; the inverter refuses that with a typed error, and no numpy
        # warning comes first
        model, dyn = DistributedOrderSubordinator(), Exponential(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FractimeError):
                cesaro_mean(model, dyn, 1e200)
            with pytest.raises(FractimeError):
                cesaro_curve(model, dyn, [1.0, 1e200])

    @pytest.mark.parametrize("model", [StableSubordinator(0.5), DistributedOrderSubordinator()],
                             ids=["stable", "distributed-order"])
    def test_time_below_the_doubles_raises(self, model):
        # below t ~ 1e-150 the running transform ~ 1/lam^2 leaves the normal
        # doubles on the contour's nodes; it returned 0.0 from 1e-165 on and
        # -39.6 at 1e-160, where the mean is about 1
        dyn = Exponential(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cesaro_mean(model, dyn, 1e-150) == pytest.approx(1.0, abs=1e-11)
            assert cesaro_curve(model, dyn, [1e-150, 1.0]).values[0] == cesaro_mean(
                model, dyn, 1e-150)
            for t in (1e-160, 1e-170, 1e-200, 1e-300):
                with pytest.raises(InversionError):
                    cesaro_mean(model, dyn, t)
                with pytest.raises(InversionError):
                    cesaro_curve(model, dyn, [t, 1.0])

    def test_zero_transform_inverts_to_zero(self):
        zero = UserTransform(lambda z: 0.0 * z)
        for t in (1e-200, 1.0):
            assert cesaro_mean(StableSubordinator(0.5), zero, t) == 0.0

    @pytest.mark.parametrize("t", [10.0, 100.0])
    @pytest.mark.parametrize("dyn", [Monomial(1), Exponential(1.0)], ids=["mono1", "exp1"])
    def test_consistency_with_direct_integration(self, t, dyn):
        # trapezoid over [t/100, t] of the curve plus closed-form head
        model = StableSubordinator(0.5)
        head_end = t / 100.0
        ts = np.linspace(head_end, t, 3000)
        vals = np.array([subordinated_value(model, dyn, float(s)) for s in ts])
        body = np.trapezoid(vals, ts)
        if isinstance(dyn, Monomial):
            # integral of s^(1/2)/Gamma(3/2) over [0, head_end]
            head = head_end ** 1.5 / (1.5 * math.gamma(1.5))
        else:
            hs = np.linspace(0.0, head_end, 400)
            head = np.trapezoid(erfcx(np.sqrt(hs)), hs)
        direct = (head + body) / t
        assert cesaro_mean(model, dyn, t) == pytest.approx(direct, rel=1e-3)


class TestFitRate:
    def test_recovers_pure_power(self):
        ts = np.logspace(1, 8, 30)
        fit = fit_rate(GridFunction(ts, 3.0 * ts ** 0.5))
        assert fit.p == pytest.approx(0.5, abs=1e-9)
        assert fit.q == pytest.approx(0.0, abs=1e-9)
        assert fit.rms_residual < 1e-12

    def test_recovers_pure_log_power(self):
        ts = np.logspace(1, 8, 30)
        fit = fit_rate(GridFunction(ts, 2.0 * np.log(ts) ** -1.0))
        assert fit.p == pytest.approx(0.0, abs=1e-9)
        assert fit.q == pytest.approx(-1.0, abs=1e-9)

    def test_recovers_mixed_rate_over_six_decades(self):
        ts = np.logspace(2, 8, 40)
        fit = fit_rate(GridFunction(ts, 0.7 * ts ** 1.25 * np.log(ts) ** 2))
        assert fit.p == pytest.approx(1.25, abs=1e-6)
        assert fit.q == pytest.approx(2.0, abs=1e-6)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_scale_equivariance(self, c):
        ts = np.logspace(1, 7, 25)
        vals = 1.7 * ts ** 0.3 * np.log(ts) ** 0.5
        base = fit_rate(GridFunction(ts, vals))
        scaled = fit_rate(GridFunction(ts, c * vals))
        assert scaled.p == pytest.approx(base.p, abs=1e-9)
        assert scaled.q == pytest.approx(base.q, abs=1e-9)
        assert scaled.log_C == pytest.approx(base.log_C + math.log(c), abs=1e-9)

    def test_pinned_exponents(self):
        ts = np.logspace(1, 8, 30)
        vals = 2.0 * np.log(ts) ** 1.5
        fit = fit_rate(GridFunction(ts, vals), pin_p=0.0)
        assert fit.q == pytest.approx(1.5, abs=1e-9)
        assert fit.pinned == "p"
        fit2 = fit_rate(GridFunction(ts, 3 * ts ** 0.4), pin_q=0.0)
        assert fit2.p == pytest.approx(0.4, abs=1e-9)

    def test_refuses_narrow_ranges(self):
        ts = np.logspace(1, 3, 12)
        with pytest.raises(ConfigError):
            fit_rate(GridFunction(ts, ts))

    def test_refuses_small_and_low_grids(self):
        with pytest.raises(ConfigError):
            fit_rate(GridFunction(np.logspace(1, 8, 5), np.ones(5)))
        with pytest.raises(ConfigError):
            fit_rate(GridFunction(np.logspace(0, 8, 12), np.ones(12)))

    def test_refuses_nonpositive_values(self):
        ts = np.logspace(1, 8, 12)
        vals = np.ones(12)
        vals[3] = -1.0
        with pytest.raises(DomainError):
            fit_rate(GridFunction(ts, vals))

    def test_refuses_double_pin(self):
        ts = np.logspace(1, 8, 12)
        with pytest.raises(ConfigError):
            fit_rate(GridFunction(ts, ts), pin_p=0.0, pin_q=0.0)


class TestVerifyClass:
    def test_stable_monomial_passes(self):
        report = verify_class(
            StableSubordinator(0.5), Monomial(1), log_grid(1e2, 1e8, 25), tol_p=0.03
        )
        assert report.passed
        assert report.p_deviation <= 0.03
        assert report.free_fit.pinned == "none"
        assert report.constrained_fit.pinned == "q"
        # both fits read the curve the report carries
        assert fit_rate(report.curve) == report.free_fit
        assert fit_rate(report.curve, pin_q=0.0) == report.constrained_fit

    def test_distributed_order_exponential_passes(self):
        report = verify_class(
            DistributedOrderSubordinator(), Exponential(1.0),
            log_grid(1e4, 1e12, 25), tol_q=0.15,
        )
        assert report.passed
        assert report.constrained_fit.q == pytest.approx(-1.0, abs=0.15)
        assert (report.predicted.power, report.predicted.log_power) == (0.0, -1.0)

    def test_failure_reported_not_raised(self):
        # absurdly tight tolerance: report flags failure
        report = verify_class(
            StableSubordinator(0.5), Exponential(1.0), log_grid(1e2, 1e8, 25), tol_p=1e-6
        )
        assert not report.passed
        assert report.p_deviation > 1e-6


def test_rate_grid_policy():
    from fractime.asymptotics import rate_grid_for

    power = rate_grid_for(StableSubordinator(0.5))
    assert power[0] == pytest.approx(1e2) and power[-1] == pytest.approx(1e8)
    assert power.size == 25
    log = rate_grid_for(DistributedOrderSubordinator())
    assert log[0] == pytest.approx(1e4) and log[-1] == pytest.approx(1e12)
