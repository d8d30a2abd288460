"""Model surface: exponents, kernel transforms, kernels, rate predictions."""

import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import rgamma

from fractime import (
    ConfigError,
    DistributedOrderSubordinator,
    DomainError,
    Exponential,
    Monomial,
    ParametricLogSubordinator,
    StableSubordinator,
    TwoStableSubordinator,
    UserTransform,
    UnsupportedDynamicError,
    UnsupportedModelError,
    model_from_config,
    parse_dynamic,
    predict_cesaro_exponents,
)
from fractime.models import _DO_CUM_W, _DO_KERNEL_W, _DO_NODES, _DO_WEIGHTS

ALL_MODELS = [
    StableSubordinator(0.3),
    StableSubordinator(0.5),
    StableSubordinator(0.7),
    TwoStableSubordinator(0.5, 0.75),
    DistributedOrderSubordinator(),
    ParametricLogSubordinator(0.5),
    ParametricLogSubordinator(1.0, scale=2.0),
]

PROBE = np.logspace(-6, 6, 25)


class TestLaplaceExponent:
    def test_stable_values(self):
        assert StableSubordinator(0.5).laplace_exponent(4.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_zero_limit(self, alpha):
        assert StableSubordinator(alpha).laplace_exponent(0.0) == 0.0

    def test_two_stable_at_one(self):
        assert TwoStableSubordinator(0.5, 0.75).laplace_exponent(1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_zero_and_monotone(self, model):
        assert model.laplace_exponent(0.0) == 0.0
        vals = np.array([model.laplace_exponent(float(l)) for l in PROBE])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_negative_real_axis_rejected(self, model):
        with pytest.raises(DomainError):
            model.laplace_exponent(-1.0)


class TestKernelTransform:
    def test_stable_small_argument(self):
        # 0.01^(-1/2) = 10
        assert StableSubordinator(0.5).kernel_transform(0.01) == pytest.approx(10.0, rel=1e-14)

    def test_distributed_order_removable_point(self):
        assert DistributedOrderSubordinator().kernel_transform(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_distributed_order_small_argument(self):
        # (l-1)/(l log l) at l = e^-10 equals (e^10 - 1)/10
        model = DistributedOrderSubordinator()
        expected = (math.exp(10.0) - 1.0) / 10.0
        assert model.kernel_transform(math.exp(-10.0)) == pytest.approx(expected, rel=1e-12)

    def test_distributed_order_taylor_window_continuity(self):
        model = DistributedOrderSubordinator()
        # straddle the Taylor guard: values must line up across the switch
        inside = model.kernel_transform(1.0 + 0.9e-4)
        outside = model.kernel_transform(1.0 + 1.1e-4)
        slope = (outside - inside) / 0.2e-4
        assert slope == pytest.approx(-0.5, abs=1e-3)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_monotone_decreasing_and_limits(self, model):
        vals = np.array([model.kernel_transform(float(l)) for l in PROBE])
        mid = vals[len(vals) // 2]
        assert np.all(np.diff(vals) < 0.0)
        assert vals[0] > 50.0 * mid     # divergence toward zero
        assert vals[-1] < 0.1 * mid     # decay toward infinity

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_zero_and_negative_rejected(self, model):
        with pytest.raises(DomainError):
            model.kernel_transform(0.0)
        with pytest.raises(DomainError):
            model.kernel_transform(-2.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_exponent_identity_on_probe_grid(self, model):
        # l * K(l) = Phi(l) to 1e-12 relative
        for lam in PROBE:
            phi = model.laplace_exponent(float(lam))
            prod = float(lam) * model.kernel_transform(float(lam))
            assert abs(prod - phi) <= 1e-12 * abs(phi)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exponent_identity_random_points(self, exponent):
        lam = 10.0 ** exponent
        for model in (StableSubordinator(0.5), DistributedOrderSubordinator(),
                      ParametricLogSubordinator(0.5)):
            phi = model.laplace_exponent(lam)
            assert lam * model.kernel_transform(lam) == pytest.approx(phi, rel=1e-12)

    def test_two_stable_low_frequency_class(self):
        # kappa(l) / l^(alpha-1) -> 1 along a decreasing grid
        model = TwoStableSubordinator(0.5, 0.75)
        ratios = [model.kernel_transform(l) / l ** (-0.5) for l in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert abs(ratios[-1] - 1.0) < 1e-2
        assert all(abs(r2 - 1.0) < abs(r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:]))


class TestKernel:
    def test_stable_value(self):
        # 1/Gamma(1/2) = 1/sqrt(pi)
        assert StableSubordinator(0.5).kernel(1.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-13
        )

    def test_two_stable_value(self):
        # 1/Gamma(0.5) + 1/Gamma(0.25), from the gamma oracle
        expected = 1.0 / math.gamma(0.5) + 1.0 / math.gamma(0.25)
        assert TwoStableSubordinator(0.5, 0.75).kernel(1.0) == pytest.approx(expected, rel=1e-13)

    def test_distributed_order_value(self):
        # adaptive quadrature oracle on the order-averaged kernel
        expected, _ = quad(lambda a: 1.0 / math.gamma(a), 0.0, 1.0)
        assert DistributedOrderSubordinator().kernel(1.0) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "model",
        [StableSubordinator(0.5), TwoStableSubordinator(0.5, 0.75), DistributedOrderSubordinator()],
        ids=repr,
    )
    def test_positive_nonincreasing(self, model):
        ts = np.logspace(-3, 3, 40)
        vals = np.array([model.kernel(float(t)) for t in ts])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            StableSubordinator(0.5).kernel(0.0)
        with pytest.raises(DomainError):
            StableSubordinator(0.5).kernel(-1.0)

    def test_unsupported_for_log_kernel_model(self):
        with pytest.raises(UnsupportedModelError):
            ParametricLogSubordinator(0.5).kernel(1.0)

    @pytest.mark.parametrize(
        "model", [StableSubordinator(0.5), TwoStableSubordinator(0.5, 0.75)], ids=repr
    )
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_kernel_transform_consistency(self, model, lam):
        # truncated numerical Laplace transform of the kernel vs the formula
        upper = 45.0 / lam
        val = quad(lambda t: math.exp(-lam * t) * model.kernel(t), 0.0, upper,
                   limit=400, full_output=1)[0]
        assert val == pytest.approx(model.kernel_transform(lam), rel=1e-4)

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    def test_distributed_order_power_sums_match_term_powers(self, gamma):
        # each order-quadrature sum against one pow per node; t = 0 gives exactly
        # 0 without a log(0) or a divide warning
        model = DistributedOrderSubordinator()
        t = np.concatenate(([0.0], np.logspace(-6, 12, 181)))
        conv_w = _DO_WEIGHTS * math.gamma(1.0 + gamma) * rgamma(1.0 + gamma + _DO_NODES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases = [
                (model.kernel(t[1:]), t[1:], _DO_NODES - 1.0, _DO_KERNEL_W),
                (model.kernel_integral(t), t, _DO_NODES, _DO_CUM_W),
                (model.kernel_conv_power(gamma, t), t, gamma + _DO_NODES, conv_w),
            ]
            assert model.kernel_integral(0.0) == 0.0
            assert model.kernel_conv_power(gamma, 0.0) == 0.0
        for got, ts, exponents, weights in cases:
            want = (np.power.outer(ts, exponents) * weights).sum(axis=-1)
            assert np.all(got[ts == 0.0] == 0.0)
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        with pytest.raises(DomainError):
            model.kernel_conv_power(gamma, -1.0)

    def test_cumulative_matches_order_quadrature(self):
        # adaptive quadrature over the order variable of the exact
        # per-order antiderivative (independent of the fixed rule inside)
        model = DistributedOrderSubordinator()
        for t in (0.01, 2.0, 50.0):
            ref, _ = quad(lambda a: t ** a / math.gamma(a + 1.0), 0.0, 1.0)
            assert model.kernel_integral(t) == pytest.approx(ref, rel=1e-10)


class TestLevyDensity:
    def test_stable_tail_integral_matches_kernel(self):
        # integral of the density over (t, inf) is the kernel at t
        model = StableSubordinator(0.5)
        val, _ = quad(model.levy_density, 1.0, np.inf, limit=200)
        assert val == pytest.approx(model.kernel(1.0), rel=1e-9)

    def test_two_stable_is_sum(self):
        m = TwoStableSubordinator(0.4, 0.8)
        expected = StableSubordinator(0.4).levy_density(2.0) + StableSubordinator(0.8).levy_density(2.0)
        assert m.levy_density(2.0) == pytest.approx(expected, rel=1e-14)

    def test_not_exposed_for_inversion_only_models(self):
        with pytest.raises(UnsupportedModelError):
            DistributedOrderSubordinator().levy_density(1.0)
        with pytest.raises(UnsupportedModelError):
            ParametricLogSubordinator(1.0).levy_density(1.0)


class TestPredictions:
    def test_stable_monomial(self):
        pred = predict_cesaro_exponents(StableSubordinator(0.5), Monomial(2))
        assert (pred.power, pred.log_power) == (1.0, 0.0)

    def test_distributed_order_exponential(self):
        pred = predict_cesaro_exponents(DistributedOrderSubordinator(), Exponential(3.0))
        assert (pred.power, pred.log_power) == (0.0, -1.0)

    def test_log_kernel_monomial(self):
        pred = predict_cesaro_exponents(ParametricLogSubordinator(0.5), Monomial(1))
        assert (pred.power, pred.log_power) == (0.0, 1.5)

    def test_two_stable_uses_smaller_index(self):
        pred = predict_cesaro_exponents(TwoStableSubordinator(0.5, 0.75), Monomial(1))
        assert pred.power == 0.5

    def test_user_transform_unsupported(self):
        with pytest.raises(UnsupportedDynamicError):
            predict_cesaro_exponents(StableSubordinator(0.5), UserTransform(lambda z: 1.0 / z))


class TestCapabilities:
    @pytest.mark.parametrize(
        "model,indices,short_time,power,log_scale",
        [
            (StableSubordinator(0.4), (0.4,), 0.4, 0.4, 0.0),
            (TwoStableSubordinator(0.4, 0.7), (0.4, 0.7), 0.7, 0.4, 0.0),
            (DistributedOrderSubordinator(), (), 1.0, 0.0, 1.0),
            (ParametricLogSubordinator(0.5), (), None, 0.0, 1.5),
        ],
    )
    def test_models_state_their_capabilities(self, model, indices, short_time, power,
                                             log_scale):
        assert model.stable_indices == indices
        assert model.short_time_power == short_time
        assert (model.power_index, model.log_rate_scale) == (power, log_scale)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_models_are_immutable(self, model):
        # a parameter the kernel reads cannot drift from the stated capabilities
        params, indices = model.describe(), model.stable_indices
        for name in [*params, "stable_indices", "short_time_power", "power_index", "extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(model, name, 0.9)
        with pytest.raises(FrozenInstanceError):
            del model.power_index
        assert (model.describe(), model.stable_indices) == (params, indices)

    def test_exponents_that_do_not_apply_are_positive_zero(self):
        for model in (StableSubordinator(0.5), DistributedOrderSubordinator()):
            for dyn in (Monomial(0), Monomial(2), Exponential(1.0)):
                pred = model.predict_rate(dyn)
                zeros = [v for v in (pred.power, pred.log_power) if v == 0.0]
                assert all(math.copysign(1.0, v) == 1.0 for v in zeros)


class TestConfig:
    def test_mapping(self):
        m = model_from_config({"class": "stable", "alpha": 0.5})
        assert isinstance(m, StableSubordinator) and m.alpha == 0.5

    def test_text(self):
        m = model_from_config('class = "two-stable"\nalpha = 0.5\nbeta = 0.75\n')
        assert isinstance(m, TwoStableSubordinator)
        assert (m.alpha, m.beta) == (0.5, 0.75)

    def test_log_kernel_with_scale(self):
        m = model_from_config({"class": "c3", "s": 1.0, "scale": 2.0})
        assert isinstance(m, ParametricLogSubordinator)
        assert (m.s, m.scale) == (1.0, 2.0)

    def test_distributed_order(self):
        assert isinstance(
            model_from_config({"class": "distributed-order"}), DistributedOrderSubordinator
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            {"class": "nope"},
            {"class": "stable"},
            {"class": "stable", "alpha": 1.5},
            {"class": "two-stable", "alpha": 0.7, "beta": 0.5},
            {"class": "stable", "alpha": 0.5, "bogus": 1.0},
            {"class": "c3", "s": -1.0},
            {"alpha": 0.5},
            {"class": "stable", "alpha": 0.5, "beta": 0.7},
            {"class": "two-stable", "alpha": 0.5},
            {"class": "distributed-order", "alpha": 0.5},
            {"class": "c3", "scale": 2.0},
            {"class": "c3", "s": 1.0, "alpha": 0.5},
        ],
    )
    def test_rejects_bad_configs(self, cfg):
        with pytest.raises(ConfigError):
            model_from_config(cfg)

    def test_parse_dynamic(self):
        assert parse_dynamic("mono:2") == Monomial(2)
        assert parse_dynamic("exp:1.5") == Exponential(1.5)
        with pytest.raises(ConfigError):
            parse_dynamic("wiggle:3")
        with pytest.raises(ConfigError):
            parse_dynamic("mono:-1")
