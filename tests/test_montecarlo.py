"""Sampling correctness (Laplace identities, distributional checks) and
deterministic parallel reduction."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
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
from fractime import montecarlo
from fractime.montecarlo import (
    _chunk_rng,
    _compound_poisson_passage,
    _CompoundPoisson,
    _log_stable_unit,
    _passage_in_block,
    _stable_sum_passage,
    _stable_unit,
    _stable_variates,
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

    def test_small_index_draws_have_no_nan(self):
        # at alpha = 0.01 the product t^(1/alpha) S(1) comes out NaN (inf * 0)
        # for about 1.25e-4 of the draws, and 0 or inf for more; those are
        # recomputed in logs, and every draw the product got right keeps
        # its bytes
        alpha, t, n = 0.01, 1.0, 1_000_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_stable(alpha, t, np.random.default_rng(1), n)
        u, w = _stable_variates(np.random.default_rng(1), n)
        with np.errstate(all="ignore"):
            product = t ** (1.0 / alpha) * _stable_unit(alpha, u, w)
        kept = (product > 0.0) & (product < np.inf)
        assert np.count_nonzero(np.isnan(product)) > 0
        assert not np.any(np.isnan(draws))
        np.testing.assert_array_equal(draws[kept].view(np.int64), product[kept].view(np.int64))
        logs = math.log(t) / alpha + _log_stable_unit(alpha, u[~kept], w[~kept])
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(draws[~kept], np.exp(logs))
        # only values beyond the range of a double take the 0 or inf limit
        assert np.all(np.isinf(draws[~kept]) == (logs > math.log(np.finfo(float).max)))
        assert not np.any(draws == 0.0)

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
        # at alpha = 0.01, the product formula for S(1) comes out 0, inf or NaN
        # for about 1e-3 of the draws; those are taken in logs, the rest keep
        # (t / S(1))^alpha bit for bit, and both match (t / S(1))^alpha in
        # 50-digit arithmetic
        alpha, t, n = 0.01, 2.0, 200_000
        draws = sample_inverse_stable(alpha, t, np.random.default_rng(6), n)
        with np.errstate(all="ignore"):
            unit = _stable_unit(alpha, *_stable_variates(np.random.default_rng(6), n))
            direct = (t / unit) ** alpha
        finite = (direct > 0.0) & (direct < np.inf)
        assert np.all(np.isfinite(draws) & (draws > 0.0))
        assert 0 < np.count_nonzero(~finite) < n // 100
        np.testing.assert_array_equal(draws[finite], direct[finite])
        u, w = _stable_variates(np.random.default_rng(6), n)
        picks = np.concatenate([np.flatnonzero(~finite)[:40], np.flatnonzero(finite)[:10]])
        with mp.workdps(50):
            for i in picks:
                ui, wi = mp.mpf(u[i]), mp.mpf(w[i])
                s1 = (mp.sin(alpha * ui) / mp.sin(ui) ** (1 / mp.mpf(alpha))
                      * (mp.sin((1 - mp.mpf(alpha)) * ui) / wi) ** ((1 - mp.mpf(alpha)) / alpha))
                assert draws[i] == pytest.approx(float((t / s1) ** alpha), rel=1e-9)


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
        # S(1) of the truncated process: drift plus a Poisson(rate) count of
        # table jumps; check E e^{-l S(1)}
        model = DistributedOrderSubordinator()
        process = _CompoundPoisson(model, 1e-4, cap=101.0)
        n = 40_000
        counts = rng.poisson(process.rate, n)
        owners = np.repeat(np.arange(n), counts)
        jumps = process.jump_sizes(rng.standard_exponential(owners.size))
        total = process.drift + np.bincount(owners, weights=jumps, minlength=n)
        for lam in (0.5, 1.0):
            vals = np.exp(-lam * total)
            se = vals.std(ddof=1) / math.sqrt(n)
            target = math.exp(-1.0 * model.laplace_exponent(lam))
            assert abs(vals.mean() - target) <= 3.5 * se + 1e-4

    def test_compound_poisson_increments_sum_each_paths_jumps(self, monkeypatch):
        # each passage follows from that path's own waits and jumps, as a
        # per-path loop over the same draws finds it, over many small passes
        class Recorder:
            def __init__(self):
                self.rng, self.draws = np.random.default_rng(8), []

            def standard_exponential(self, shape):
                out = self.rng.standard_exponential(shape)
                self.draws.append(out.copy())
                return out

        process = _CompoundPoisson(DistributedOrderSubordinator(), 1e-4, cap=3.0)
        monkeypatch.setattr(montecarlo, "_EVENT_BLOCK", 64)
        recorder, n, t = Recorder(), 40, 1.0
        got = _compound_poisson_passage(process, t, recorder, n)

        want = np.full(n, np.nan)
        state = {p: (0.0, 0.0) for p in range(n)}       # path -> (time, level)
        for waits, exps in zip(recorder.draws[::2], recorder.draws[1::2]):
            assert waits.shape[1] == len(state)
            sizes = process.jump_sizes(exps)
            for col, p in enumerate(list(state)):
                time, level = state[p]
                for wait, size in zip(waits[:, col] * (1.0 / process.rate), sizes[:, col]):
                    if level + process.drift * wait > t:
                        want[p] = time + (t - level) / process.drift
                        break
                    if level + (process.drift * wait + size) > t:
                        want[p] = time + wait
                        break
                    time, level = time + wait, level + (process.drift * wait + size)
                if np.isnan(want[p]):
                    state[p] = (time, level)
                else:
                    del state[p]
        assert not state and len(recorder.draws) > 20
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_passage_crossing_rule(self):
        # hand-built events (drift 0.1, level 1): passage on the linear
        # stretch, at a later jump, at the first event, and none in this block
        waits = np.array([[20.0, 1.0, 0.5, 1.0],
                          [1.0, 1.0, 1.0, 1.0]])
        sizes = np.array([[0.1, 0.2, 2.0, 0.1],
                          [1.0, 1.0, 1.0, 0.1]])
        cols, passage, time, level = _passage_in_block(1.0, 0.1, np.zeros(4), np.zeros(4),
                                                       waits, sizes)
        assert cols.tolist() == [0, 1, 2]
        np.testing.assert_allclose(passage, [10.0, 2.0, 0.5], rtol=1e-14)
        assert (time[3], level[3]) == pytest.approx((2.0, 0.4), rel=1e-14)
        # the path left below carries its time and level into the next pass
        cols, passage, _, _ = _passage_in_block(1.0, 0.1, time[3:], level[3:],
                                                np.array([[10.0]]), np.array([[0.1]]))
        assert cols.tolist() == [0] and passage[0] == pytest.approx(8.0, rel=1e-14)

    def test_passage_without_drift(self):
        # no drift: passage only at jumps, a level equal to t has not passed, nothing divides by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols, passage, time, level = _passage_in_block(
                1.0, 0.0, np.zeros(2), np.zeros(2),
                np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([[0.5, 0.25], [0.5, 2.0]]))
        assert cols.tolist() == [1] and passage.tolist() == [3.0]
        assert (time[0], level[0]) == (3.0, 1.0)

    def test_passage_law_matches_truncated_process(self):
        # P(E(t) <= s) = P(S(s) > t) for the same truncated process, S(s) built
        # from a Poisson(rate s) count of table jumps and the drift
        process = _CompoundPoisson(DistributedOrderSubordinator(), 1e-4, cap=3.0)
        n, t = 20_000, 1.0
        passage = _compound_poisson_passage(process, t, np.random.default_rng(21), n)
        rng = np.random.default_rng(22)
        for s in (0.4, 1.0, 2.5):
            counts = rng.poisson(process.rate * s, n)
            owners = np.repeat(np.arange(n), counts)
            jumps = process.jump_sizes(rng.standard_exponential(owners.size))
            level = process.drift * s + np.bincount(owners, weights=jumps, minlength=n)
            p_passed, p_above = np.mean(passage <= s), np.mean(level > t)
            se = math.sqrt((p_passed * (1 - p_passed) + p_above * (1 - p_above)) / n)
            assert 0.05 < p_passed < 0.95
            assert abs(p_passed - p_above) <= 3.5 * se

    def test_repeated_passages_build_the_jump_table_once(self):
        # models are immutable, so the truncated process of one (model,
        # cutoff, level) is built once and later draws skip the kernel
        class Counting(DistributedOrderSubordinator):
            def __init__(self):
                super().__init__()
                self.kernel_calls = []

            def kernel(self, t):
                self.kernel_calls.append(np.size(t))
                return super().kernel(t)

        model = Counting()
        first = first_passage(model, 1.0, np.random.default_rng(3))
        calls = list(model.kernel_calls)
        again = [first_passage(model, 1.0, np.random.default_rng(3)) for _ in range(5)]
        assert calls and model.kernel_calls == calls
        assert again == [first] * 5
        plain = _CompoundPoisson(DistributedOrderSubordinator(), 1e-4, cap=3.0)
        want = _compound_poisson_passage(plain, 1.0, np.random.default_rng(3), 1)[0]
        assert first == want

    def test_two_stable_laplace_identity(self, rng):
        # S(1) = A_1 + A_2 from the log-domain unit draws the root solve uses
        model = TwoStableSubordinator(0.5, 0.75)
        draws = np.exp(_log_stable_unit(0.5, *_stable_variates(rng, 100_000))) + np.exp(
            _log_stable_unit(0.75, *_stable_variates(rng, 100_000)))
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
                s = first_passage(model, t, got_rng)
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
        est = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=20_000, seed=5))
        ref = subordinated_value(model, Exponential(1.0), 1.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_distributed_order_against_inversion(self):
        model = DistributedOrderSubordinator()
        est = estimate_ue(model, Exponential(1.0), 1.0, McConfig(n_paths=20_000, seed=5))
        ref = subordinated_value(model, Exponential(1.0), 1.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    @pytest.mark.parametrize("t", [1e5, 1e12])
    @pytest.mark.parametrize("dynamic", [Monomial(1), Exponential(1.0)])
    def test_distributed_order_at_long_times(self, t, dynamic):
        # thousands of jumps per path, drawn a bounded block at a time
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

    def test_event_cap_raises(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_EVENT_CAP", 64)
        with pytest.raises(ConvergenceError):
            estimate_ue(DistributedOrderSubordinator(), Exponential(1.0), 1.0,
                        McConfig(n_paths=1000, seed=0))

    def test_non_finite_estimate_raises(self):
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError):
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

    def test_reproducible_across_workers(self):
        model = StableSubordinator(0.5)
        runs = [
            estimate_ue(model, Exponential(1.0), 1.0,
                        McConfig(n_paths=50_000, seed=42, workers=w))
            for w in (1, 3, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_distributed_order_reproducible_across_workers(self):
        model = DistributedOrderSubordinator()
        runs = [
            estimate_ue(model, Monomial(1), 1.0,
                        McConfig(n_paths=20_000, seed=42, workers=w))
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
                log_a = np.stack([_log_stable_unit(a, *_stable_variates(rng, 4096))
                                  for a in indices])
                log_level = np.logaddexp.reduce(np.log(draws) / alphas + log_a, axis=0)
                assert np.max(np.abs(log_level - math.log(t))) <= 1e-12

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
        class Frozen(SubordinatorModel):
            def kernel(self, t):
                return 0.0 * np.asarray(t, dtype=float)

            def kernel_integral(self, t):
                return 0.0 * np.asarray(t, dtype=float)

        with pytest.raises(UnsupportedModelError):
            estimate_ue(Frozen(), Exponential(1.0), 1.0, McConfig(n_paths=1000, seed=0))

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
