"""Sampling correctness (Laplace identities, distributional checks) and
deterministic parallel reduction."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from fractime import (
    ConfigError,
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
from fractime.montecarlo import _first_passage_block, _increment_sampler
from conftest import ml_erfcx_oracle


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


class TestFirstPassage:
    def test_zero_level(self, rng):
        assert first_passage(StableSubordinator(0.5), 0.0, rng, step=0.01) == 0.0

    def test_stable_path_matches_direct_sampler(self, rng):
        model = StableSubordinator(0.5)
        sampler = _increment_sampler(model, McConfig(), level=1.0)
        path_draws = _first_passage_block(sampler, 1.0, rng, step=1e-3, n=10_000)
        direct = np.sort(sample_inverse_stable(0.5, 1.0, rng, 200_000))
        cdf = lambda x: np.interp(x, direct, np.linspace(0, 1, direct.size))  # noqa: E731
        ks = kstest(path_draws, cdf)
        assert ks.statistic <= 0.02

    def test_pathwise_monotonicity(self, rng):
        # same increment path, increasing levels -> nondecreasing passage times
        model = TwoStableSubordinator(0.5, 0.75)
        sampler = _increment_sampler(model, McConfig(), level=10.0)
        step = 0.01
        increments = sampler.draw(step, 4000, rng)
        path = np.cumsum(increments)
        times = [step * (np.argmax(path > level) + 1) for level in (0.5, 1.0, 2.0, 5.0)]
        assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))

    def test_distributed_order_laplace_identity(self, rng):
        # increments over disjoint steps compose to S(t); check E e^{-l S(t)}
        model = DistributedOrderSubordinator()
        sampler = _increment_sampler(model, McConfig(jump_cutoff=1e-4), level=50.0)
        n, steps = 40_000, 10
        total = np.zeros(n)
        for _ in range(steps):
            total += sampler.draw(0.1, n, rng)
        for lam in (0.5, 1.0):
            vals = np.exp(-lam * total)
            se = vals.std(ddof=1) / math.sqrt(n)
            target = math.exp(-1.0 * model.laplace_exponent(lam))
            assert abs(vals.mean() - target) <= 3.5 * se + 1e-4

    def test_two_stable_laplace_identity(self, rng):
        model = TwoStableSubordinator(0.5, 0.75)
        sampler = _increment_sampler(model, McConfig(), level=50.0)
        draws = sampler.draw(1.0, 100_000, rng)
        for lam in (0.5, 1.0):
            vals = np.exp(-lam * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - math.exp(-model.laplace_exponent(lam))) <= 3.5 * se


class TestCapabilityDispatch:
    # samplers follow what a model states, not its class

    def test_stable_sum_draws_each_index_in_order(self):
        model = SubordinatorModel(stable_indices=(0.3, 0.5, 0.7))
        sampler = _increment_sampler(model, McConfig(), level=1.0)
        got = sampler.draw(0.1, 1000, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        want = (sample_stable(0.3, 0.1, rng, 1000) + sample_stable(0.5, 0.1, rng, 1000)
                + sample_stable(0.7, 0.1, rng, 1000))
        assert np.array_equal(got, want)

    def test_single_stable_index_draws_directly(self):
        cfg = McConfig(n_paths=5000, seed=9)
        stated = estimate_ue(SubordinatorModel(stable_indices=(0.5,)), Exponential(1.0), 2.0, cfg)
        assert stated == estimate_ue(StableSubordinator(0.5), Exponential(1.0), 2.0, cfg)


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
        est = estimate_ue(model, Exponential(1.0), 1.0,
                          McConfig(n_paths=20_000, seed=5), step=1.0 / 512)
        ref = subordinated_value(model, Exponential(1.0), 1.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error + 2e-3

    def test_distributed_order_against_inversion(self):
        model = DistributedOrderSubordinator()
        est = estimate_ue(model, Exponential(1.0), 1.0,
                          McConfig(n_paths=20_000, seed=5), step=1.0 / 256)
        ref = subordinated_value(model, Exponential(1.0), 1.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error + 2e-3

    def test_reproducible_across_workers(self):
        model = StableSubordinator(0.5)
        runs = [
            estimate_ue(model, Exponential(1.0), 1.0,
                        McConfig(n_paths=50_000, seed=42, workers=w))
            for w in (1, 3, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_seed_changes_result(self):
        model = StableSubordinator(0.5)
        a = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=5000, seed=1))
        b = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=5000, seed=2))
        assert a.mean != b.mean

    def test_unsupported_model(self):
        with pytest.raises(UnsupportedModelError):
            estimate_ue(ParametricLogSubordinator(0.5), Exponential(1.0), 1.0,
                        McConfig(n_paths=1000, seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            McConfig(n_paths=10)
        with pytest.raises(ConfigError):
            McConfig(jump_cutoff=1.5)
        with pytest.raises(ConfigError):
            McConfig(workers=0)
