"""Model surface: exponents, kernel transforms, kernels, rate predictions."""

import cmath
import math
import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
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
    talbot_invert,
)
from conftest import distributed_order_oracle

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


def written_exponent(model, lam):
    """Each family's Laplace exponent written out, independent of its kernel transform."""
    if isinstance(model, StableSubordinator):
        return lam ** model.alpha
    if isinstance(model, TwoStableSubordinator):
        return lam ** model.alpha + lam ** model.beta
    if isinstance(model, DistributedOrderSubordinator):
        return 1.0 if lam == 1.0 else (lam - 1.0) / math.log(lam)
    return model.scale * (1.0 + math.log1p(1.0 / lam)) ** (-1.0 - model.s)


def exponent_of(model, lam):
    """The Laplace exponent l K(l), from the model's kernel transform."""
    return lam * model.kernel_transform(lam)


class TestLaplaceExponent:
    def test_stable_values(self):
        assert exponent_of(StableSubordinator(0.5), 4.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_zero_limit(self, alpha):
        # l K(l) = l^alpha falls to 0 with l
        assert 0.0 < exponent_of(StableSubordinator(alpha), 1e-300) < 1e-89

    def test_two_stable_at_one(self):
        assert exponent_of(TwoStableSubordinator(0.5, 0.75), 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_zero_and_monotone(self, model):
        vals = np.array([exponent_of(model, float(l)) for l in PROBE])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_negative_real_axis_rejected(self, model):
        with pytest.raises(DomainError):
            exponent_of(model, -1.0)


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
        # l * K(l) = Phi(l) to 1e-12 relative, Phi written out per family
        for lam in PROBE:
            phi = written_exponent(model, float(lam))
            prod = float(lam) * model.kernel_transform(float(lam))
            assert abs(prod - phi) <= 1e-12 * abs(phi)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exponent_identity_random_points(self, exponent):
        lam = 10.0 ** exponent
        for model in ALL_MODELS:
            phi = written_exponent(model, lam)
            assert lam * model.kernel_transform(lam) == pytest.approx(phi, rel=1e-12)

    def test_two_stable_low_frequency_class(self):
        # kappa(l) / l^(alpha-1) -> 1 along a decreasing grid
        model = TwoStableSubordinator(0.5, 0.75)
        ratios = [model.kernel_transform(l) / l ** (-0.5) for l in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert abs(ratios[-1] - 1.0) < 1e-2
        assert all(abs(r2 - 1.0) < abs(r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("model", [m for m in ALL_MODELS if m.stable_terms], ids=repr)
    def test_stable_terms_state_the_exponent_on_talbot_nodes(self, model):
        # l K(l) = sum_i w_i l^(a_i) to 1e-13 relative on every node Talbot
        # evaluates for t in [1e-6, 1e12]; distributed-order's 16 terms are
        # its Gauss-Legendre rule in the order
        nodes = []

        def record(lam):
            nodes.append(lam)
            return 1.0 / lam

        for t in np.geomspace(1e-6, 1e12, 73):
            talbot_invert(record, float(t))
        lam = np.concatenate(nodes)
        got = sum(w * lam ** a for a, w in model.stable_terms)
        want = lam * model.kernel_transform(lam)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


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

    @pytest.mark.parametrize(
        "model",
        [StableSubordinator(0.5), TwoStableSubordinator(0.5, 0.75), DistributedOrderSubordinator()],
        ids=repr,
    )
    @pytest.mark.parametrize("method", ["kernel", "kernel_integral", "kernel_conv_power"])
    @pytest.mark.parametrize("t", [math.nan, -1.0, np.array([1.0, math.nan, 2.0])],
                             ids=["nan", "negative", "array-with-nan"])
    def test_kernel_methods_refuse_nan_and_negative_times(self, model, method, t):
        # every family raises, none returns NaN, 0 or a numpy warning
        call = getattr(model, method)
        args = (0.3, t) if method == "kernel_conv_power" else (t,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call(*args)

    @pytest.mark.parametrize(
        "model",
        [StableSubordinator(0.5), TwoStableSubordinator(0.3, 0.6), DistributedOrderSubordinator()],
        ids=repr,
    )
    @pytest.mark.parametrize("gamma", [-1.0, -1.5, -2.0, -math.inf, math.inf, math.nan])
    def test_conv_power_refuses_divergent_exponents(self, model, gamma):
        # int_0^t k(t - s) s^gamma ds diverges for gamma <= -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                model.kernel_conv_power(gamma, 2.0)

    @given(indices=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2, unique=True),
           log_ts=st.lists(st.floats(-6.0, 12.0), min_size=2, max_size=2),
           log_lam=st.floats(-8.0, 8.0), angle=st.floats(-3.1, 3.1), gamma=st.floats(-0.9, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_two_stable_is_the_sum_of_its_stables(self, indices, log_ts, log_lam, angle, gamma):
        # alpha, beta near 0 and 1, t from 1e-6 to 1e12, lam real and complex
        # off the cut: the two-stable kernel surface equals the sum of its
        # parts bit for bit, is finite and positive, and k is nonincreasing
        alpha, beta = sorted(indices)
        two, a, b = (TwoStableSubordinator(alpha, beta), StableSubordinator(alpha),
                     StableSubordinator(beta))
        t_lo, t_hi = sorted(10.0 ** e for e in log_ts)
        real = 10.0 ** log_lam
        for lam in (real, cmath.rect(real, angle)):
            got = two.kernel_transform(lam)
            assert got == a.kernel_transform(lam) + b.kernel_transform(lam)
            assert np.isfinite(got)
        assert two.kernel_transform(real) > 0.0
        for name, args in (("kernel", (t_lo,)), ("kernel_integral", (t_lo,)),
                           ("kernel_conv_power", (gamma, t_lo))):
            got = getattr(two, name)(*args)
            assert got == getattr(a, name)(*args) + getattr(b, name)(*args)
            assert 0.0 < got < math.inf
        assert two.kernel(t_hi) <= two.kernel(t_lo)

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

    def test_distributed_order_kernels_sum_its_stable_terms(self):
        # the kernel surface is the stable-sum formulas over the model's own
        # 16 (index, weight) terms, each written out as one pow per term
        model = DistributedOrderSubordinator()
        a, w = np.array(model.stable_terms).T
        t = np.logspace(-6, 12, 181)
        gamma = 0.3
        cases = [
            (model.kernel(t), -a, w * rgamma(1.0 - a)),
            (model.kernel_integral(t), 1.0 - a, w * rgamma(2.0 - a)),
            (model.kernel_conv_power(gamma, t), 1.0 + gamma - a,
             w * math.gamma(1.0 + gamma) * rgamma(2.0 + gamma - a)),
        ]
        for got, exponents, weights in cases:
            want = (np.power.outer(t, exponents) * weights).sum(axis=-1)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("method,gamma", [
        ("kernel", None), ("kernel_integral", 0.0), ("kernel_conv_power", -0.9),
        ("kernel_conv_power", 0.3), ("kernel_conv_power", 1.0),
    ])
    def test_distributed_order_kernels_match_order_integral(self, method, gamma):
        # the 16-term stable sum against a 30-digit quadrature over the order,
        # one t per decade of [1e-6, 1e12]
        model = DistributedOrderSubordinator()
        t = np.logspace(-6, 12, 19)
        if method == "kernel":
            got = model.kernel(t)
        elif method == "kernel_integral":
            got = model.kernel_integral(t)
        else:
            got = model.kernel_conv_power(gamma, t)
        want = np.array([distributed_order_oracle(x, gamma) for x in t])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "model",
        [StableSubordinator(0.95), TwoStableSubordinator(0.5, 0.95), DistributedOrderSubordinator()],
        ids=repr,
    )
    @pytest.mark.parametrize("gamma", [-0.9, -0.5, -0.05, 0.0, 0.3])
    def test_conv_power_at_zero_is_zero(self, model, gamma):
        # the integral over [0, 0] is 0 even where a term's power of t has
        # exponent <= 0 (0**0 = 1, 0**negative = inf), with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.kernel_conv_power(gamma, 0.0) == 0.0
            got = model.kernel_conv_power(gamma, np.array([0.0, 1.0, 0.0]))
            assert got[0] == 0.0 and got[2] == 0.0
            assert got[1] == model.kernel_conv_power(gamma, 1.0) > 0.0

    @pytest.mark.parametrize(
        "model",
        [StableSubordinator(0.5), TwoStableSubordinator(0.3, 0.8), DistributedOrderSubordinator()],
        ids=repr,
    )
    @pytest.mark.parametrize("gamma, t", [(2.0, 1e300), (2.0, np.array([1.0, 1e300])),
                                          (200.0, 2.0)], ids=["t", "t-array", "gamma"])
    def test_conv_power_overflow_raises(self, model, gamma, t):
        # t^(3 - a) passes the doubles at t = 1e300, Gamma(201) at gamma = 200;
        # either is a typed error, with no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                model.kernel_conv_power(gamma, t)

    @pytest.mark.parametrize(
        "model",
        [StableSubordinator(0.999), TwoStableSubordinator(0.3, 0.999),
         DistributedOrderSubordinator()],
        ids=repr,
    )
    def test_kernel_overflow_raises(self, model):
        # t^-a passes the doubles at the smallest denormal for a near 1
        # (distributed-order's largest stable index is 0.9947)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                model.kernel(np.array([1.0, 5e-324]))
            assert np.isfinite(model.kernel(1e-300))

    def test_cumulative_matches_order_quadrature(self):
        # adaptive quadrature over the order variable of the exact
        # per-order antiderivative (independent of the fixed rule inside)
        model = DistributedOrderSubordinator()
        for t in (0.01, 2.0, 50.0):
            ref, _ = quad(lambda a: t ** a / math.gamma(a + 1.0), 0.0, 1.0)
            assert model.kernel_integral(t) == pytest.approx(ref, rel=1e-10)


class TestPredictions:
    # README's rate table: M_t of t^n ~ C t^(p n) (log t)^(q n) and of e^(-at)
    # ~ C t^(-p) (log t)^(-q), with (p, q) = (alpha, 0) for the stable and
    # two-stable clocks (the smaller index), (0, 1) for distributed-order and
    # (0, 1 + s) for c3 at any scale
    @pytest.mark.parametrize(
        "model,dynamic,power,log_power",
        [
            (StableSubordinator(0.5), Monomial(1), 0.5, 0.0),
            (StableSubordinator(0.5), Monomial(2), 1.0, 0.0),
            (StableSubordinator(0.5), Exponential(3.0), -0.5, 0.0),
            (TwoStableSubordinator(0.5, 0.75), Monomial(1), 0.5, 0.0),
            (TwoStableSubordinator(0.5, 0.75), Monomial(2), 1.0, 0.0),
            (TwoStableSubordinator(0.5, 0.75), Exponential(3.0), -0.5, 0.0),
            (DistributedOrderSubordinator(), Monomial(1), 0.0, 1.0),
            (DistributedOrderSubordinator(), Monomial(2), 0.0, 2.0),
            (DistributedOrderSubordinator(), Exponential(3.0), 0.0, -1.0),
            (ParametricLogSubordinator(0.5, scale=2.0), Monomial(1), 0.0, 1.5),
            (ParametricLogSubordinator(0.5, scale=2.0), Monomial(2), 0.0, 3.0),
            (ParametricLogSubordinator(0.5, scale=2.0), Exponential(3.0), 0.0, -1.5),
        ],
        ids=lambda v: repr(v) if not isinstance(v, float) else None,
    )
    def test_rate_table(self, model, dynamic, power, log_power):
        pred = model.predict_rate(dynamic)
        assert (pred.power, pred.log_power) == (power, log_power)

    def test_user_transform_unsupported(self):
        with pytest.raises(UnsupportedDynamicError):
            StableSubordinator(0.5).predict_rate(UserTransform(lambda z: 1.0 / z))


class TestCapabilities:
    @pytest.mark.parametrize(
        "model,terms,power,log_scale",
        [
            (StableSubordinator(0.4), ((0.4, 1.0),), 0.4, 0.0),
            (TwoStableSubordinator(0.4, 0.7), ((0.4, 1.0), (0.7, 1.0)), 0.4, 0.0),
            (DistributedOrderSubordinator(),
             tuple(zip(0.5 * (leggauss(16)[0] + 1.0), 0.5 * leggauss(16)[1])), 0.0, 1.0),
            (ParametricLogSubordinator(0.5), (), 0.0, 1.5),
        ],
    )
    def test_models_state_their_capabilities(self, model, terms, power, log_scale):
        assert model.stable_terms == terms
        assert (model.power_index, model.log_rate_scale) == (power, log_scale)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_models_are_immutable(self, model):
        # a parameter the kernel reads cannot drift from the stated capabilities
        params = {f.name: getattr(model, f.name) for f in fields(model)}
        terms = model.stable_terms
        for name in [*params, "stable_terms", "power_index", "extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(model, name, 0.9)
        with pytest.raises(FrozenInstanceError):
            del model.power_index
        assert {name: getattr(model, name) for name in params} == params
        assert model.stable_terms == terms

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_config_round_trip(self, model):
        params = {f.name: getattr(model, f.name) for f in fields(model)}
        assert model_from_config({"class": model.config_tag, **params}) == model

    def test_models_compare_and_hash_by_parameters(self):
        equal = [
            (StableSubordinator(0.5), model_from_config({"class": "stable", "alpha": "0.5"})),
            (TwoStableSubordinator(0.5, 0.75), TwoStableSubordinator(alpha=0.5, beta=0.75)),
            (DistributedOrderSubordinator(), DistributedOrderSubordinator()),
            (ParametricLogSubordinator(1, 2), ParametricLogSubordinator(1.0, scale=2.0)),
        ]
        for a, b in equal:
            assert a == b and a is not b and hash(a) == hash(b)
        different = [
            (StableSubordinator(0.5), StableSubordinator(0.6)),
            (TwoStableSubordinator(0.5, 0.75), TwoStableSubordinator(0.5, 0.8)),
            (ParametricLogSubordinator(0.5), ParametricLogSubordinator(0.5, scale=2.0)),
            (ParametricLogSubordinator(0.5), ParametricLogSubordinator(0.6)),
            (StableSubordinator(0.5), TwoStableSubordinator(0.5, 0.75)),
        ]
        for a, b in different:
            assert a != b

    def test_repr_names_the_parameters(self):
        assert [repr(m) for m in ALL_MODELS] == [
            "StableSubordinator(alpha=0.3)",
            "StableSubordinator(alpha=0.5)",
            "StableSubordinator(alpha=0.7)",
            "TwoStableSubordinator(alpha=0.5, beta=0.75)",
            "DistributedOrderSubordinator()",
            "ParametricLogSubordinator(s=0.5, scale=1.0)",
            "ParametricLogSubordinator(s=1.0, scale=2.0)",
        ]

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

    @pytest.mark.parametrize("config", ["class = stable", [("class", "stable"), ("alpha", 0.5)]],
                             ids=["text", "pairs"])
    def test_only_a_mapping_is_a_config(self, config):
        with pytest.raises(ConfigError):
            model_from_config(config)

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

    @pytest.mark.parametrize("build", [
        lambda: ParametricLogSubordinator(math.nan),
        lambda: ParametricLogSubordinator(math.inf),
        lambda: ParametricLogSubordinator(1.0, scale=math.nan),
        lambda: ParametricLogSubordinator(1.0, scale=math.inf),
        lambda: Exponential(math.inf),
        lambda: parse_dynamic("exp:1e400"),
        lambda: Monomial(math.inf),
        lambda: Monomial(math.nan),
    ], ids=["s-nan", "s-inf", "scale-nan", "scale-inf", "exp-inf", "exp-1e400",
            "mono-inf", "mono-nan"])
    def test_rejects_non_finite_parameters(self, build):
        with pytest.raises(ConfigError):
            build()
