"""Convolution-quadrature relaxation solves against closed forms and inversion."""

import numpy as np
import pytest
from scipy.special import erfcx

from fractime import (
    ConfigError,
    DistributedOrderSubordinator,
    Exponential,
    GridFunction,
    ParametricLogSubordinator,
    RelaxationProblem,
    StableSubordinator,
    SubordinatorModel,
    TwoStableSubordinator,
    UnsupportedModelError,
    residual_check,
    solve_relaxation,
    subordinated_value,
)
from fractime.relaxation import (
    _HEAD,
    _MAX_STEPS,
    _causal_convolve,
    _fast_len,
    _scheme_arrays,
    _series_reciprocal,
)


def forward_substitution(prob):
    """The scheme solved one row at a time: the plain reference for the Toeplitz solve."""
    t, cumulative, weights, b = _scheme_arrays(prob)
    steps = t.size - 1
    u = np.empty(steps + 1)
    u[0] = prob.u0
    ah = prob.a * prob.h
    running = 0.0  # sum of u_1..u_{m-1}
    for m in range(1, steps + 1):
        if m == 1:
            u[1] = prob.u0 * (cumulative[1] + b[1]) / (weights[0] + b[1] + ah)
        else:
            conv = float(np.dot(weights[m - 1:0:-1], u[1:m]))
            rhs = prob.u0 * cumulative[m] - conv - b[m] * (u[1] - prob.u0) - ah * running
            u[m] = rhs / (weights[0] + ah)
        running += u[m]
    return u


def direct_scheme_arrays(prob):
    """The scheme's tables with the starting correction from a direct convolution:
    the plain reference for the FFT one."""
    t, cumulative, weights, _ = _scheme_arrays(prob)
    steps = t.size - 1
    g = prob.model.short_time_power
    tg = t ** g
    b = np.zeros(steps + 1)
    b[1:] = (prob.model.kernel_conv_power(g, t[1:]) - np.convolve(weights, tg[1:])[:steps]) / tg[1]
    return t, cumulative, weights, b


def direct_residual(solution, prob):
    """residual_check assembled from a direct convolution."""
    t, cumulative, weights, b = _scheme_arrays(prob)
    u = solution.values
    conv = np.convolve(weights, u[1:])[:t.size - 1]
    defect = (conv + b[1:] * (u[1] - prob.u0) - prob.u0 * cumulative[1:]
              + prob.a * prob.h * np.cumsum(u[1:]))
    return float(np.max(np.abs(defect)))


def test_zero_damping_is_constant():
    prob = RelaxationProblem(StableSubordinator(0.5), a=0.0, u0=2.5, h=1e-2, horizon=1.0)
    sol = solve_relaxation(prob)
    assert np.allclose(sol.values, 2.5, atol=1e-12)
    assert residual_check(sol, prob) <= 1e-12


def test_zero_initial_value_stays_zero():
    prob = RelaxationProblem(StableSubordinator(0.5), a=1.0, u0=0.0, h=1e-2, horizon=1.0)
    sol = solve_relaxation(prob)
    assert np.allclose(sol.values, 0.0, atol=1e-14)


def test_stable_solution_matches_relaxation_function():
    prob = RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1e-3, horizon=1.0)
    sol = solve_relaxation(prob)
    exact = erfcx(np.sqrt(sol.abscissae))
    assert np.max(np.abs(sol.values - exact)) <= 1e-3


def test_value_at_one():
    prob = RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1e-3, horizon=1.0)
    sol = solve_relaxation(prob)
    assert sol.values[-1] == pytest.approx(float(erfcx(1.0)), abs=1e-3)


def test_first_order_convergence():
    errors = []
    for h in (2e-3, 1e-3):
        prob = RelaxationProblem(StableSubordinator(0.5), a=1.0, h=h, horizon=2.0)
        sol = solve_relaxation(prob)
        exact = erfcx(np.sqrt(sol.abscissae))
        errors.append(np.max(np.abs(sol.values - exact)))
    ratio = errors[0] / errors[1]
    assert 1.7 <= ratio <= 2.3


def test_converged_residual_is_roundoff():
    prob = RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1e-3, horizon=1.0)
    sol = solve_relaxation(prob)
    assert residual_check(sol, prob) <= 1e-12


def test_positive_and_nonincreasing():
    for model in (
        StableSubordinator(0.3),
        TwoStableSubordinator(0.4, 0.8),
        DistributedOrderSubordinator(),
    ):
        sol = solve_relaxation(RelaxationProblem(model, a=2.0, h=2e-3, horizon=1.0))
        assert np.all(sol.values > 0.0)
        assert np.all(np.diff(sol.values) <= 0.0)


def test_two_stable_matches_inversion():
    model = TwoStableSubordinator(0.5, 0.75)
    sol = solve_relaxation(RelaxationProblem(model, a=1.0, h=1e-3, horizon=2.0))
    idx = np.arange(100, sol.abscissae.size, 200)
    worst = max(
        abs(sol.values[i] - subordinated_value(model, Exponential(1.0), float(sol.abscissae[i])))
        for i in idx
    )
    assert worst <= 1e-3


def test_distributed_order_matches_inversion():
    model = DistributedOrderSubordinator()
    sol = solve_relaxation(RelaxationProblem(model, a=1.0, h=1e-3, horizon=2.0))
    idx = np.arange(20, sol.abscissae.size, 100)
    worst = max(
        abs(sol.values[i] - subordinated_value(model, Exponential(1.0), float(sol.abscissae[i])))
        for i in idx
    )
    assert worst <= 2e-3


def test_unsupported_model_rejected():
    with pytest.raises(UnsupportedModelError):
        RelaxationProblem(ParametricLogSubordinator(0.5), a=1.0)


def test_grid_validation():
    with pytest.raises(ConfigError):
        RelaxationProblem(StableSubordinator(0.5), a=1.0, h=2.0, horizon=1.0)
    # step counts are bounded before any table is allocated; construct only
    RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1.0, horizon=float(_MAX_STEPS))
    with pytest.raises(ConfigError):
        RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1e-9, horizon=5.0)
    prob = RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1e-2, horizon=1.0)
    other = solve_relaxation(
        RelaxationProblem(StableSubordinator(0.5), a=1.0, h=2e-2, horizon=1.0)
    )
    with pytest.raises(ConfigError):
        residual_check(other, prob)


def test_any_model_stating_a_short_time_power_is_solved():
    # the solver reads the kernel and the stated power, not the model's class
    class StableKernel(SubordinatorModel):
        short_time_power = 0.5
        stable = StableSubordinator(0.5)

        def kernel_integral(self, t):
            return self.stable.kernel_integral(t)

        def kernel_conv_power(self, gamma, t):
            return self.stable.kernel_conv_power(gamma, t)

    stated = solve_relaxation(RelaxationProblem(StableKernel(), a=1.0, h=1e-2, horizon=1.0))
    named = solve_relaxation(RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1e-2,
                                               horizon=1.0))
    assert np.array_equal(stated.values, named.values)


@pytest.mark.parametrize("model", [
    StableSubordinator(0.5),
    TwoStableSubordinator(0.3, 0.8),
    DistributedOrderSubordinator(),
], ids=["stable", "two-stable", "distributed-order"])
@pytest.mark.parametrize("steps", [1, 2, _HEAD - 1, _HEAD, _HEAD + 1, 5000])
def test_solve_matches_forward_substitution(model, steps):
    for a in (0.0, 1.0, 3.0):
        for u0 in (0.0, 2.5):
            prob = RelaxationProblem(model, a=a, u0=u0, h=1e-3, horizon=steps * 1e-3)
            sol = solve_relaxation(prob)
            assert sol.values.size == steps + 1
            assert np.max(np.abs(sol.values - forward_substitution(prob))) <= 1e-12
            assert residual_check(sol, prob) <= 1e-12


@pytest.mark.parametrize("model", [
    StableSubordinator(0.05),
    StableSubordinator(0.15),
    TwoStableSubordinator(0.15, 0.3),
], ids=["stable-0.05", "stable-0.15", "two-stable-0.15-0.3"])
@pytest.mark.parametrize("h", [1e-3, 1e-2])
def test_small_index_residual_is_roundoff(model, h):
    # small indices give the slowest-decaying weights, where the reciprocal
    # of the weights alone leaves residuals of 1e-11; the refinement step
    # brings them back to roundoff
    prob = RelaxationProblem(model, a=1.0, h=h, horizon=5000 * h)
    assert residual_check(solve_relaxation(prob), prob) <= 1e-12


def test_solve_at_the_step_bound():
    prob = RelaxationProblem(StableSubordinator(0.15), a=3.0, h=1e-4, horizon=10.0)
    sol = solve_relaxation(prob)
    assert sol.values.size == _MAX_STEPS + 1
    assert np.all(np.isfinite(sol.values))
    assert residual_check(sol, prob) <= 1e-12


@pytest.mark.parametrize("model", [
    StableSubordinator(0.05),
    StableSubordinator(0.5),
    TwoStableSubordinator(0.3, 0.8),
    DistributedOrderSubordinator(),
], ids=["stable-0.05", "stable-0.5", "two-stable", "distributed-order"])
@pytest.mark.parametrize("n", [1, _HEAD - 1, _HEAD, _HEAD + 1, 4999])
def test_series_reciprocal_inverts_the_weights(model, n):
    # c * (1/c) is the unit vector: the first column of T(c) T(c)^-1
    prob = RelaxationProblem(model, a=1.0, h=1e-3, horizon=5.0)
    c = _scheme_arrays(prob)[2] + prob.a * prob.h
    g = _series_reciprocal(c, n)
    assert g.size == n
    unit = np.eye(n, 1)[:, 0]
    assert np.max(np.abs(_causal_convolve(c[:n], g) - unit)) <= 1e-13


def test_fast_len_is_the_next_5_smooth_length():
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 20_001)] == [
        next_fast_len(n, real=True) for n in range(1, 20_001)]


def test_scheme_arrays_are_cached_read_only():
    prob = RelaxationProblem(StableSubordinator(0.5), a=1.0, h=1e-2, horizon=1.0)
    arrays = _scheme_arrays(prob)
    assert _scheme_arrays(prob) is arrays
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the solution carries its own grid, not the cached one
    assert solve_relaxation(prob).abscissae.flags.writeable


SCHEME_MODELS = [StableSubordinator(0.5), TwoStableSubordinator(0.3, 0.8),
                 DistributedOrderSubordinator()]
SCHEME_IDS = ["stable", "two-stable", "distributed-order"]


@pytest.mark.parametrize("model", SCHEME_MODELS, ids=SCHEME_IDS)
@pytest.mark.parametrize("steps", [1, 2, 33, 5000])
def test_scheme_arrays_match_direct_convolution(model, steps):
    prob = RelaxationProblem(model, a=1.0, h=1e-3, horizon=steps * 1e-3)
    t, cumulative, weights, b = _scheme_arrays(prob)
    ref = direct_scheme_arrays(prob)
    for got, want in zip((t, cumulative, weights), ref[:3]):
        assert np.array_equal(got, want)
    # b is the correction divided by t_1^g; compare it in the convolution's own units
    assert np.max(np.abs(b - ref[3])) * t[1] ** model.short_time_power <= 1e-13


@pytest.mark.parametrize("model", SCHEME_MODELS, ids=SCHEME_IDS)
def test_residual_matches_direct_convolution(model):
    prob = RelaxationProblem(model, a=1.0, u0=2.5, h=1e-3, horizon=5.0)
    sol = solve_relaxation(prob)
    assert abs(residual_check(sol, prob) - direct_residual(sol, prob)) <= 1e-13


@pytest.mark.parametrize("model", SCHEME_MODELS, ids=SCHEME_IDS)
@pytest.mark.parametrize("row", ["interior", "last"])
def test_residual_check_sees_a_bumped_row(model, row):
    # a bump d in row m moves that row's defect by (W_0 + a h) d, at least 0.12 d here
    prob = RelaxationProblem(model, a=1.0, h=1e-2, horizon=5.0)
    sol = solve_relaxation(prob)
    assert residual_check(sol, prob) <= 1e-12
    m = sol.values.size // 2 if row == "interior" else sol.values.size - 1
    bumped = sol.values.copy()
    bumped[m] += 1e-9
    assert residual_check(GridFunction(sol.abscissae, bumped), prob) >= 1e-10
