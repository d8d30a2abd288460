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
from fractime.montecarlo import (
    _chunk_rng,
    _increment_sampler,
    _log_stable_unit,
    _stable_sum_passage,
)
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
        direct = np.sort(_stable_sum_passage((0.5, 0.75), 1.0, rng, 200_000))
        cdf = lambda x: np.interp(x, direct, np.linspace(0, 1, direct.size))  # noqa: E731
        ks = kstest(path_draws, cdf)
        assert ks.statistic <= 0.02

    def test_pathwise_monotonicity(self):
        # the same draws at increasing levels give nondecreasing passage times
        levels = (1e-6, 1e-2, 0.5, 1.0, 2.0, 5.0, 1e4, 1e12)
        times = np.stack([_stable_sum_passage((0.5, 0.75), level, _chunk_rng(4, 0), 4000)
                          for level in levels])
        assert np.all(np.diff(times, axis=0) >= 0.0)
        assert np.all(times[0] > 0.0) and np.all(np.isfinite(times[-1]))

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

    def test_compound_poisson_increments_sum_each_paths_jumps(self):
        # each increment is the drift plus that path's jumps, as a per-path loop gives
        sampler = _increment_sampler(DistributedOrderSubordinator(), McConfig(), level=1.0)
        got = sampler.draw(0.1, 500, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        counts = rng.poisson(sampler.rate * 0.1, 500)
        jumps = iter(sampler._jump_sizes(int(counts.sum()), rng))
        want = [sampler.drift * 0.1 + sum(next(jumps) for _ in range(c)) for c in counts]
        assert counts.max() > 5
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_two_stable_laplace_identity(self, rng):
        # S(1) = A_1 + A_2 from the log-domain unit draws the root solve uses
        model = TwoStableSubordinator(0.5, 0.75)
        draws = np.exp(_log_stable_unit(0.5, rng, 100_000)) + np.exp(
            _log_stable_unit(0.75, rng, 100_000))
        for lam in (0.5, 1.0):
            vals = np.exp(-lam * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - math.exp(-model.laplace_exponent(lam))) <= 3.5 * se


class TestCapabilityDispatch:
    # samplers follow what a model states, not its class

    def test_stable_sum_draws_each_index_in_order(self):
        # each draw is the root s of sum_i s^(1/a_i) A_i = t, A_i drawn by
        # sample_stable in the model's order
        indices = (0.3, 0.5, 0.7)
        model = SubordinatorModel(stable_indices=indices)
        for t in (1e-3, 1.0, 50.0):
            got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(100):
                s = first_passage(model, t, got_rng, step=0.1)
                units = [sample_stable(a, 1.0, want_rng, 1)[0] for a in indices]
                level = sum(s ** (1.0 / a) * unit for a, unit in zip(indices, units))
                assert level == pytest.approx(t, rel=1e-12)

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
        assert abs(est.mean - ref) <= 3.0 * est.std_error

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

    def test_two_stable_reproducible_across_workers(self):
        model = TwoStableSubordinator(0.5, 0.75)
        runs = [
            estimate_ue(model, Monomial(1), 1.0,
                        McConfig(n_paths=50_000, seed=42, workers=w))
            for w in (1, 3, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("indices", [(0.05, 0.95), (0.05, 0.1), (0.2, 0.5), (0.45, 0.75),
                                         (0.9, 0.99), (0.3, 0.31), (0.01, 0.5), (0.01, 0.02)])
    def test_stable_sum_root_across_edges(self, indices):
        # small indices whose S(1) over/underflows a double still give roots
        alphas = np.array(indices)[:, None]
        for t in (1e-6, 1e-2, 1.0, 1e4, 1e12):
            for chunk in range(3):
                draws = _stable_sum_passage(indices, t, _chunk_rng(17, chunk), 4096)
                assert np.all((draws > 0.0) & np.isfinite(draws))
                rng = _chunk_rng(17, chunk)
                log_a = np.stack([_log_stable_unit(a, rng, 4096) for a in indices])
                log_level = np.logaddexp.reduce(np.log(draws) / alphas + log_a, axis=0)
                assert np.max(np.abs(log_level - math.log(t))) <= 1e-12

    @pytest.mark.parametrize("model,t,step", [
        (StableSubordinator(0.5), math.nan, None),
        (TwoStableSubordinator(0.5, 0.75), math.nan, None),
        (TwoStableSubordinator(0.5, 0.75), math.inf, None),
        (DistributedOrderSubordinator(), math.inf, None),
        (DistributedOrderSubordinator(), 1.0, -0.1),
        (DistributedOrderSubordinator(), 1.0, math.nan),
        (TwoStableSubordinator(0.5, 0.75), 1.0, 0.0),
    ])
    def test_level_and_step_validation(self, rng, model, t, step):
        with pytest.raises(ConfigError):
            estimate_ue(model, Exponential(1.0), t, McConfig(n_paths=1000, seed=0), step=step)
        with pytest.raises(ConfigError):
            first_passage(model, t, rng, step=1e-2 if step is None else step)

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
