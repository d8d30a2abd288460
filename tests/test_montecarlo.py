"""Sampling correctness (Laplace identities, distributional checks) and
deterministic parallel reduction."""

import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from fractime import (
    ConfigError,
    ConvergenceError,
    DistributedOrderSubordinator,
    Exponential,
    McConfig,
    Monomial,
    ParametricLogSubordinator,
    StableSubordinator,
    SubordinatorModel,
    TwoStableSubordinator,
    UnsupportedModelError,
    estimate_ue,
    first_passage,
    sample_inverse_stable,
    sample_stable,
    subordinated_value,
)
from fractime import laplace, montecarlo
from fractime.montecarlo import (
    _chunk_rng,
    _log_stable_unit,
    _stable_sum_passage,
    _stable_variates,
)
from conftest import ml_erfcx_oracle


def _unit_logs(terms, rng, n):
    """log A_i, the unit stable draws of each term in order, as the root solve draws them."""
    return np.stack([_log_stable_unit(a, *_stable_variates(rng, n)) for a, _ in terms])


def _log_level(terms, draws, log_a):
    """log sum_i (w_i s)^(1/a_i) A_i at each draw s."""
    alphas = np.array([a for a, _ in terms])[:, None]
    log_w = np.log([w for _, w in terms])[:, None]
    return np.logaddexp.reduce((np.log(draws) + log_w) / alphas + log_a, axis=0)


def _assert_roots_solve(terms):
    """Every draw at every level solves sum_i (w_i s)^(1/a_i) A_i = t to 1e-12 in logs."""
    for t in (1e-6, 1e-2, 1.0, 1e4, 1e12):
        for chunk in range(3):
            draws = _stable_sum_passage(terms, t, _chunk_rng(17, chunk), 4096)
            assert np.all((draws > 0.0) & np.isfinite(draws))
            log_a = _unit_logs(terms, _chunk_rng(17, chunk), 4096)
            assert np.max(np.abs(_log_level(terms, draws, log_a) - math.log(t))) <= 1e-12


def _max_shifted_passage(terms, t, log_a):
    """Reference root by Newton on g(x) = log sum_i exp(x/a_i + log A_i + log(w_i)/a_i) - log t,
    each sum shifted by its running max (log-sum-exp), from the smallest single-term root."""
    alphas = np.array([a for a, _ in terms])[:, None]
    la = log_a + np.log([w for _, w in terms])[:, None] / alphas
    x = np.min(alphas * (math.log(t) - la), axis=0)
    live = np.isfinite(x)
    xs, la = x[live], la[:, live]
    finishing = False
    for _ in range(100):
        z = xs / alphas + la
        top = z.max(axis=0)
        e = np.exp(z - top)
        total = e.sum(axis=0)
        dx = (top + np.log(total) - math.log(t)) * total / (e / alphas).sum(axis=0)
        xs -= dx
        if finishing:
            x[live] = xs
            return np.exp(x)
        finishing = bool(np.all(np.abs(dx) <= 1e-10 * np.maximum(1.0, np.abs(xs))))
    raise AssertionError("reference Newton did not converge")


@st.composite
def _stable_sums(draw):
    """2-16 (index, weight) terms: indices in [0.005, 0.995], weights log-uniform on [1e-3, 1e3]."""
    d = draw(st.integers(min_value=2, max_value=16))
    indices = draw(st.lists(st.floats(min_value=0.005, max_value=0.995), min_size=d, max_size=d))
    weights = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=d, max_size=d))
    return tuple((a, 10.0 ** e) for a, e in zip(indices, weights))


class TestStableSampler:
    def test_positivity(self, rng):
        draws = sample_stable(0.5, 1.0, rng, 10_000)
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("alpha,t,lam", [(0.5, 1.0, 1.0), (0.5, 4.0, 1.0), (0.3, 1.0, 2.0)])
    def test_laplace_identity(self, rng, alpha, t, lam):
        draws = sample_stable(alpha, t, rng, 100_000)
        vals = np.exp(-lam * draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-t * lam ** alpha)) <= 3.5 * se

    def test_index_half_closed_form(self, rng):
        # S(1) at index 1/2 (transform e^{-sqrt(l)}) is 1/(2 G^2), G standard normal
        draws = sample_stable(0.5, 1.0, rng, 100_000)
        gaussian_route = np.sort(1.0 / (2.0 * rng.standard_normal(200_000) ** 2))
        cdf = lambda x: np.interp(x, gaussian_route,                      # noqa: E731
                                  np.linspace(0, 1, gaussian_route.size))
        ks = kstest(draws, cdf)
        assert ks.statistic <= 0.02

    def test_small_index_draws_have_no_nan(self):
        # at alpha = 0.01 S(1) over- or underflows a double for many draws (a
        # product of its powers turns NaN as inf * 0); S(t) is taken in logs
        # and takes its 0 or inf limit only where the value does not fit
        alpha, t, n = 0.01, 1.0, 1_000_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_stable(alpha, t, np.random.default_rng(1), n)
        u, w = _stable_variates(np.random.default_rng(1), n)
        logs = math.log(t) / alpha + _log_stable_unit(alpha, u, w)
        assert not np.any(np.isnan(draws))
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(draws, np.exp(logs))
        # only values beyond the range of a double take the 0 or inf limit
        assert np.any(np.isinf(draws))
        assert np.all(np.isinf(draws) == (logs > math.log(np.finfo(float).max)))
        assert not np.any(draws == 0.0)

    def test_long_level_keeps_the_accuracy_of_the_unit_draw(self):
        # S(t) = t^(1/a) S(1): at t = 1e12 the level adds no more than the
        # rounding of t^(1/a) and of one product to the error S(1) carries,
        # against 60-digit products of the same variates
        alpha, n = 0.5, 400
        long = sample_stable(alpha, 1e12, np.random.default_rng(12), n)
        unit = sample_stable(alpha, 1.0, np.random.default_rng(12), n)
        u, w = _stable_variates(np.random.default_rng(12), n)
        with mp.workdps(60):
            a = mp.mpf(alpha)
            for i in range(n):
                ui, wi = mp.mpf(u[i]), mp.mpf(w[i])
                s1 = (mp.sin(a * ui) / mp.sin(ui) ** (1 / a)
                      * (mp.sin((1 - a) * ui) / wi) ** ((1 - a) / a))
                err_long = (long[i] - mp.mpf(10) ** 24 * s1) / (mp.mpf(10) ** 24 * s1)
                err_unit = (unit[i] - s1) / s1
                assert abs(float(err_long - err_unit)) <= 1e-15

    def test_small_index_scalar_draws_stay_scalars(self):
        # single draws that take the log form come back as floats, like the rest
        rng = np.random.default_rng(1)
        for sampler in (sample_stable, sample_inverse_stable):
            draws = [sampler(0.01, 1.0, rng) for _ in range(5000)]
            assert all(isinstance(d, float) for d in draws)


class TestInverseStableSampler:
    def test_nonnegative(self, rng):
        assert np.all(sample_inverse_stable(0.5, 1.0, rng, 10_000) >= 0.0)

    def test_relaxation_mean(self, rng):
        draws = sample_inverse_stable(0.5, 1.0, rng, 100_000)
        vals = np.exp(-draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - ml_erfcx_oracle(1.0)) <= 3.5 * se

    def test_first_moment(self, rng):
        # E[E(1)] = 1/Gamma(1.5)
        draws = sample_inverse_stable(0.5, 1.0, rng, 100_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0 / math.gamma(1.5)) <= 3.5 * se

    def test_small_index_draws_stay_finite(self):
        # at alpha = 0.01, S(1) leaves the range of a double for about 1e-3 of
        # the draws; E(t) is taken in logs, and matches (t / S(1))^alpha in
        # 50-digit arithmetic there and elsewhere
        alpha, t, n = 0.01, 2.0, 200_000
        draws = sample_inverse_stable(alpha, t, np.random.default_rng(6), n)
        u, w = _stable_variates(np.random.default_rng(6), n)
        log_unit = _log_stable_unit(alpha, u, w)
        outside = np.abs(log_unit) > math.log(np.finfo(float).max)
        assert np.all(np.isfinite(draws) & (draws > 0.0))
        assert 0 < np.count_nonzero(outside) < n // 100
        np.testing.assert_array_equal(draws, np.exp(alpha * (math.log(t) - log_unit)))
        picks = np.concatenate([np.flatnonzero(outside)[:40], np.flatnonzero(~outside)[:10]])
        with mp.workdps(50):
            for i in picks:
                ui, wi = mp.mpf(u[i]), mp.mpf(w[i])
                s1 = (mp.sin(alpha * ui) / mp.sin(ui) ** (1 / mp.mpf(alpha))
                      * (mp.sin((1 - mp.mpf(alpha)) * ui) / wi) ** ((1 - mp.mpf(alpha)) / alpha))
                assert draws[i] == pytest.approx(float((t / s1) ** alpha), rel=1e-12)


class TestStableSamplerProperties:
    @given(alpha=st.floats(min_value=0.01, max_value=0.99),
           log10_t=st.floats(min_value=-6.0, max_value=12.0),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_draws_follow_the_log_formula(self, alpha, log10_t, seed):
        t = 10.0 ** log10_t
        log_unit = _log_stable_unit(alpha, *_stable_variates(np.random.default_rng(seed), 512))
        inverse = sample_inverse_stable(alpha, t, np.random.default_rng(seed), 512)
        assert np.all(np.isfinite(inverse) & (inverse > 0.0))
        np.testing.assert_array_equal(inverse, np.exp(alpha * (math.log(t) - log_unit)))
        draws = sample_stable(alpha, t, np.random.default_rng(seed), 512)
        logs = math.log(t) / alpha + log_unit
        assert not np.any(np.isnan(draws))
        # inf or 0 only where log S(t) leaves the range of a double
        assert np.all(logs[np.isinf(draws)] > math.log(np.finfo(float).max) - 1e-9)
        assert np.all(logs[draws == 0.0] < math.log(np.finfo(float).smallest_subnormal))
        normal = np.isfinite(draws) & (draws >= np.finfo(float).tiny)
        np.testing.assert_allclose(np.log(draws[normal]), logs[normal], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sampler", [sample_stable, sample_inverse_stable])
    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_level_must_be_finite_and_positive(self, rng, sampler, t):
        with pytest.raises(ConfigError):
            sampler(0.5, t, rng, 3)


class TestFirstPassage:
    def test_zero_level(self, rng):
        assert first_passage(StableSubordinator(0.5), 0.0, rng) == 0.0
        assert first_passage(DistributedOrderSubordinator(), 0.0, rng) == 0.0

    def test_stable_path_matches_direct_sampler(self, rng):
        # two-stable: the direct root draw against a fine-step path built from
        # sample_stable increments, each passage placed mid-step
        step, n = 1e-3, 10_000
        path_draws = np.empty(n)
        level = np.zeros(n)
        alive = np.arange(n)
        k = 0
        while alive.size:
            k += 1
            level[alive] += (sample_stable(0.5, step, rng, alive.size)
                             + sample_stable(0.75, step, rng, alive.size))
            crossed = level[alive] > 1.0
            path_draws[alive[crossed]] = (k - 0.5) * step
            alive = alive[~crossed]
        direct = np.sort(_stable_sum_passage(((0.5, 1.0), (0.75, 1.0)), 1.0, rng, 200_000))
        cdf = lambda x: np.interp(x, direct, np.linspace(0, 1, direct.size))  # noqa: E731
        ks = kstest(path_draws, cdf)
        assert ks.statistic <= 0.02

    def test_pathwise_monotonicity(self):
        # the same draws at increasing levels give nondecreasing passage times
        levels = (1e-6, 1e-2, 0.5, 1.0, 2.0, 5.0, 1e4, 1e12)
        for terms in (TwoStableSubordinator(0.5, 0.75).stable_terms,
                      DistributedOrderSubordinator().stable_terms):
            times = np.stack([_stable_sum_passage(terms, level, _chunk_rng(4, 0), 4000)
                              for level in levels])
            assert np.all(np.diff(times, axis=0) >= 0.0)
            assert np.all(times[0] > 0.0) and np.all(np.isfinite(times[-1]))

    def test_distributed_order_laplace_identity(self, rng):
        # S(1) = sum_i S_(a_i)(w_i) over the 16 terms, each drawn by
        # sample_stable at level w_i; check E e^{-l S(1)} against the
        # closed-form exponent (l - 1)/log l
        model, n = DistributedOrderSubordinator(), 40_000
        draws = sum(sample_stable(a, w, rng, n) for a, w in model.stable_terms)
        for lam in (0.5, 1.0, 2.0):
            vals = np.exp(-lam * draws)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - math.exp(-lam * model.kernel_transform(lam))) <= 3.5 * se

    def test_distributed_order_passage_law_matches_its_stable_sum(self):
        # P(E(t) <= s) = P(S(s) > t), S(s) = sum_i S_(a_i)(w_i s) drawn by
        # sample_stable: the weights enter the root as log(w_i)/a_i shifts
        # and sample_stable as levels, two independent ways
        terms = DistributedOrderSubordinator().stable_terms
        n, t = 20_000, 1.0
        passage = _stable_sum_passage(terms, t, np.random.default_rng(21), n)
        rng = np.random.default_rng(22)
        for s in (0.4, 1.0, 2.5):
            level = sum(sample_stable(a, w * s, rng, n) for a, w in terms)
            p_passed, p_above = np.mean(passage <= s), np.mean(level > t)
            se = math.sqrt((p_passed * (1 - p_passed) + p_above * (1 - p_above)) / n)
            assert 0.05 < p_passed < 0.95
            assert abs(p_passed - p_above) <= 3.5 * se

    def test_repeated_passages_draw_the_same_passage(self):
        # one stream gives one passage: the root of the model's stable sum
        model = DistributedOrderSubordinator()
        first = first_passage(model, 1.0, np.random.default_rng(3))
        again = [first_passage(model, 1.0, np.random.default_rng(3)) for _ in range(5)]
        assert again == [first] * 5
        assert first == _stable_sum_passage(model.stable_terms, 1.0, np.random.default_rng(3), 1)[0]

    def test_distributed_order_draws_call_no_inverter(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an inverter was called")

        monkeypatch.setattr(laplace, "talbot_invert", refuse)
        model = DistributedOrderSubordinator()
        with pytest.raises(AssertionError):      # the patch reaches the inversion route
            subordinated_value(model, Monomial(1), 1.0)
        est = estimate_ue(model, Monomial(1), 1.0, McConfig(n_paths=1000, seed=0))
        assert math.isfinite(est.mean) and est.std_error > 0.0
        assert first_passage(model, 1.0, np.random.default_rng(0)) > 0.0

    def test_two_stable_laplace_identity(self, rng):
        # S(1) = A_1 + A_2 from the log-domain unit draws the root solve uses
        model = TwoStableSubordinator(0.5, 0.75)
        draws = np.exp(_log_stable_unit(0.5, *_stable_variates(rng, 100_000))) + np.exp(
            _log_stable_unit(0.75, *_stable_variates(rng, 100_000)))
        for lam in (0.5, 1.0):
            vals = np.exp(-lam * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - math.exp(-lam * model.kernel_transform(lam))) <= 3.5 * se


class TestCapabilityDispatch:
    # samplers follow what a model states, not its class

    def test_stable_sum_draws_each_index_in_order(self):
        # each draw is the root s of sum_i (w_i s)^(1/a_i) A_i = t, log A_i
        # drawn in the model's order; checked in logs, since the smallest
        # distributed-order index (0.0053) puts A_i and (w_i s)^(1/a_i)
        # beyond the doubles
        class StableSum(SubordinatorModel):
            stable_terms = ((0.3, 0.5), (0.5, 2.0), (0.7, 1.0))

        for model in (StableSum(), DistributedOrderSubordinator()):
            for t in (1e-3, 1.0, 50.0):
                got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
                for _ in range(100):
                    s = first_passage(model, t, got_rng)
                    log_level = np.logaddexp.reduce(
                        [math.log(w * s) / a + _log_stable_unit(a, *_stable_variates(want_rng, 1))[0]
                         for a, w in model.stable_terms])
                    assert abs(log_level - math.log(t)) <= 1e-12

    def test_single_stable_index_draws_directly(self):
        class OneStable(SubordinatorModel):
            stable_terms = ((0.5, 1.0),)

        class Weighted(SubordinatorModel):
            stable_terms = ((0.5, 4.0),)

        cfg = McConfig(n_paths=5000, seed=9)
        stated = estimate_ue(OneStable(), Exponential(1.0), 2.0, cfg)
        assert stated == estimate_ue(StableSubordinator(0.5), Exponential(1.0), 2.0, cfg)
        # exponent 4 l^(1/2): S runs four times as fast, so E(t) is a quarter
        weighted = first_passage(Weighted(), 2.0, np.random.default_rng(9))
        assert weighted == first_passage(OneStable(), 2.0, np.random.default_rng(9)) / 4.0


class TestEstimate:
    def test_constant_dynamic_is_exact(self):
        est = estimate_ue(StableSubordinator(0.5), Monomial(0), 5.0,
                          McConfig(n_paths=1000, seed=1))
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert est.n == 1000

    def test_stable_exponential_against_inversion(self):
        model = StableSubordinator(0.5)
        est = estimate_ue(model, Exponential(1.0), 10.0, McConfig(n_paths=100_000, seed=11))
        ref = subordinated_value(model, Exponential(1.0), 10.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_two_stable_against_inversion(self):
        model = TwoStableSubordinator(0.5, 0.75)
        est = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=20_000, seed=5))
        ref = subordinated_value(model, Exponential(1.0), 1.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_distributed_order_at_short_times(self):
        model = DistributedOrderSubordinator()
        for dynamic in (Monomial(1), Monomial(2), Exponential(0.21)):
            est = estimate_ue(model, dynamic, 1e-3, McConfig(n_paths=100_000, seed=1))
            ref = subordinated_value(model, dynamic, 1e-3)
            assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_distributed_order_against_inversion(self):
        model = DistributedOrderSubordinator()
        est = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=20_000, seed=5))
        ref = subordinated_value(model, Exponential(1.0), 1.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    @pytest.mark.parametrize("t", [1e5, 1e12])
    @pytest.mark.parametrize("dynamic", [Monomial(1), Exponential(1.0), Monomial(2),
                                         Exponential(0.21)])
    def test_distributed_order_at_long_times(self, t, dynamic):
        model = DistributedOrderSubordinator()
        est = estimate_ue(model, dynamic, t, McConfig(n_paths=2000, seed=1))
        ref = subordinated_value(model, dynamic, t)
        assert math.isfinite(est.mean)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_small_stable_index_against_inversion(self):
        model = StableSubordinator(0.01)
        est = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=100_000, seed=1))
        ref = subordinated_value(model, Exponential(1.0), 1.0)
        assert math.isfinite(est.mean)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    @pytest.mark.parametrize("model,dynamic,t,n_paths", [
        (clock, dyn, t, 100_000)
        for clock in (StableSubordinator(0.5), TwoStableSubordinator(0.5, 0.75),
                      DistributedOrderSubordinator())
        for dyn in (Monomial(1), Exponential(1.0)) for t in (1.0, 10.0)
    ])
    def test_acceptance_cases_carry_a_small_bias(self, model, dynamic, t, n_paths):
        # the C9 cases of fractime.verify, at their path counts: u_E of the
        # stable sum drawn minus u_E of the model, both by inversion, is at
        # most 1e-6 of u_E and 1e-4 of the standard error of n_paths draws
        # (its variance from E[u(E)^2], by inversion too)
        class Drawn(SubordinatorModel):
            stable_terms = model.stable_terms
            kernel_transform = StableSubordinator.kernel_transform

        square = (Monomial(2 * dynamic.n) if isinstance(dynamic, Monomial)
                  else Exponential(2.0 * dynamic.a))
        exact = subordinated_value(model, dynamic, t)
        se = math.sqrt((subordinated_value(model, square, t) - exact ** 2) / n_paths)
        bias = subordinated_value(Drawn(), dynamic, t) - exact
        assert abs(bias) <= 1e-6 * abs(exact)
        assert abs(bias) <= 1e-4 * se

    def test_root_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_NEWTON_CAP", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            estimate_ue(DistributedOrderSubordinator(), Exponential(1.0), 1.0,
                        McConfig(n_paths=1000, seed=0))

    def test_non_finite_estimate_raises(self):
        # u(E) overflows: a typed error, with no numpy warning on the way
        with pytest.raises(ConvergenceError):
            estimate_ue(StableSubordinator(0.5), Monomial(60), 1e12,
                        McConfig(n_paths=1000, seed=0))

    def test_rare_event_estimate_raises(self):
        # u_E(1e12) ~ 2.8e-7 rests on one or two of 1e5 draws: effective sample ~1
        with pytest.raises(ConvergenceError, match="effective sample"):
            estimate_ue(StableSubordinator(0.5), Exponential(2.0), 1e12,
                        McConfig(n_paths=100_000, seed=0))

    def test_effective_sample_size(self):
        est = estimate_ue(StableSubordinator(0.5), Monomial(0), 5.0,
                          McConfig(n_paths=1000, seed=1))
        assert est.ess == 1000.0
        est = estimate_ue(StableSubordinator(0.5), Exponential(2.0), 1.0,
                          McConfig(n_paths=10_000, seed=0))
        assert 1000.0 < est.ess < est.n

    def test_all_zero_values_raise(self):
        # exp(-a E) underflows to 0 on every path: no sample to speak of
        with pytest.raises(ConvergenceError, match="effective sample"):
            estimate_ue(StableSubordinator(0.5), Exponential(1e6), 1e6,
                        McConfig(n_paths=1000, seed=0))

    def test_reproducible_across_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        model = StableSubordinator(0.5)
        runs = [
            estimate_ue(model, Exponential(1.0), 1.0,
                        McConfig(n_paths=50_000, seed=42, workers=w))
            for w in (1, 3, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_distributed_order_reproducible_across_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        model = DistributedOrderSubordinator()
        runs = [
            estimate_ue(model, Monomial(1), 1.0,
                        McConfig(n_paths=20_000, seed=42, workers=w))
            for w in (1, 3, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_two_stable_reproducible_across_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        model = TwoStableSubordinator(0.5, 0.75)
        runs = [
            estimate_ue(model, Monomial(1), 1.0,
                        McConfig(n_paths=50_000, seed=42, workers=w))
            for w in (1, 3, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_distributed_order_reproducible_across_blas_threads(self):
        # g's sum and slope in the root solve are one BLAS product: its
        # thread count must not move a bit of the estimate
        script = ("from fractime import *\n"
                  "e = estimate_ue(DistributedOrderSubordinator(), Monomial(1), 1.0,"
                  " McConfig(n_paths=20_000, seed=7))\n"
                  "print(repr(e.mean), repr(e.std_error))")
        outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), check=True).stdout
                for threads in ("1", "2")]
        assert outs[0] == outs[1] != ""

    @pytest.mark.parametrize("cpus,n_paths,want", [
        (8, 20_000, 5), (3, 20_000, 3), (None, 20_000, 1), (8, 4096, 1)])
    def test_thread_count_is_capped_by_chunks_and_cpus(self, monkeypatch, cpus, n_paths, want):
        requested = []

        class Recording:
            # runs the chunks in order on the calling thread
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        model = StableSubordinator(0.5)
        capped = estimate_ue(model, Exponential(1.0), 1.0,
                             McConfig(n_paths=n_paths, seed=4, workers=10 ** 6))
        assert requested == [want]
        assert capped == estimate_ue(model, Exponential(1.0), 1.0,
                                     McConfig(n_paths=n_paths, seed=4, workers=1))

    @pytest.mark.parametrize("indices", [(0.05, 0.95), (0.05, 0.1), (0.2, 0.5), (0.45, 0.75),
                                         (0.9, 0.99), (0.3, 0.31), (0.01, 0.5), (0.01, 0.02)])
    def test_stable_sum_root_across_edges(self, indices):
        # small indices whose S(1) over/underflows a double still give roots
        _assert_roots_solve(tuple((a, 1.0) for a in indices))

    def test_distributed_order_root_across_levels(self):
        # 16 weighted terms, the smallest index 0.0053
        _assert_roots_solve(DistributedOrderSubordinator().stable_terms)

    @given(terms=_stable_sums(), log10_t=st.floats(min_value=-6.0, max_value=12.0),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_stable_sum_root_solves_the_level_equation(self, terms, log10_t, seed):
        # the fixed-shift loop against the level equation and a max-shifted Newton
        t, n = 10.0 ** log10_t, 512
        draws = _stable_sum_passage(terms, t, np.random.default_rng(seed), n)
        log_a = _unit_logs(terms, np.random.default_rng(seed), n)
        with np.errstate(over="ignore"):
            want = _max_shifted_passage(terms, t, log_a)
        finite = np.isfinite(draws) & (draws > 0.0)
        np.testing.assert_array_equal(draws[~finite], want[~finite])
        assert np.max(np.abs(_log_level(terms, draws[finite], log_a[:, finite]) - math.log(t)),
                      initial=0.0) <= 1e-12
        np.testing.assert_allclose(draws[finite], want[finite], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("model,t", [
        (StableSubordinator(0.5), math.nan),
        (TwoStableSubordinator(0.5, 0.75), math.nan),
        (TwoStableSubordinator(0.5, 0.75), math.inf),
        (DistributedOrderSubordinator(), math.inf),
    ])
    def test_level_validation(self, rng, model, t):
        with pytest.raises(ConfigError):
            estimate_ue(model, Exponential(1.0), t, McConfig(n_paths=1000, seed=0))
        with pytest.raises(ConfigError):
            first_passage(model, t, rng)

    def test_seed_changes_result(self):
        model = StableSubordinator(0.5)
        a = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=5000, seed=1))
        b = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=5000, seed=2))
        assert a.mean != b.mean

    def test_kernel_without_jumps_is_unsupported(self):
        # a kernel alone gives no exact draws: refused for stating no stable terms
        class Frozen(SubordinatorModel):
            def kernel(self, t):
                return 0.0 * np.asarray(t, dtype=float)

            def kernel_integral(self, t):
                return 0.0 * np.asarray(t, dtype=float)

        with pytest.raises(UnsupportedModelError, match="stable terms"):
            estimate_ue(Frozen(), Exponential(1.0), 1.0, McConfig(n_paths=1000, seed=0))
        with pytest.raises(UnsupportedModelError, match="stable terms"):
            first_passage(Frozen(), 1.0, np.random.default_rng(0))

    def test_unsupported_model(self):
        with pytest.raises(UnsupportedModelError):
            estimate_ue(ParametricLogSubordinator(0.5), Exponential(1.0), 1.0,
                        McConfig(n_paths=1000, seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            McConfig(n_paths=10)
        with pytest.raises(ConfigError):
            McConfig(workers=0)
        # (seed, n_paths) pins the bytes only if both are integers
        for bad in ({"n_paths": 1000.5}, {"n_paths": 1000.0}, {"seed": 1.5}, {"workers": 2.0}):
            with pytest.raises(ConfigError):
                McConfig(**bad)
