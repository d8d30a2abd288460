"""Domain edges: every route returns a finite value or raises a typed error.

t runs log-uniformly over [1e-6, 1e12], the stable index over [0.05, 0.95],
monomial degrees up to 8 and exponential rates log-uniformly over [0.05, 20].
The transform routes are also held to it at huge t, log-uniform over
[1e12, 1e300], where some transforms leave the doubles and must raise.
A numpy warning from fractime is an error under the suite's warning filter,
so a route that computes through an overflow fails here as well.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from fractime import (
    DistributedOrderSubordinator,
    Exponential,
    FractimeError,
    InversionConfig,
    Monomial,
    ParametricLogSubordinator,
    RelaxationProblem,
    StableSubordinator,
    TwoStableSubordinator,
    cesaro_mean,
    gaver_stehfest_config,
    solve_relaxation,
    stable_closed_form,
    stable_quadrature,
    subordinated_value,
)

times = st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e)
huge_times = st.floats(12.0, 300.0).map(lambda e: 10.0 ** e)
indices = st.floats(0.05, 0.95)
rates = st.floats(math.log10(0.05), math.log10(20.0)).map(lambda e: 10.0 ** e)
dynamics = st.one_of(st.integers(0, 8).map(Monomial), rates.map(Exponential))
models = st.one_of(
    indices.map(StableSubordinator),
    st.tuples(indices, indices).filter(lambda ab: ab[0] != ab[1]).map(
        lambda ab: TwoStableSubordinator(min(ab), max(ab))),
    st.just(DistributedOrderSubordinator()),
    st.floats(0.1, 2.0).map(ParametricLogSubordinator),
)
methods = st.sampled_from([InversionConfig(), gaver_stehfest_config()])


def _finite_or_typed_error(call, *args):
    try:
        value = call(*args)
    except FractimeError:
        return
    assert isinstance(value, float) and math.isfinite(value), (args, value)


@given(models, dynamics, times, methods)
@settings(max_examples=800, deadline=None, derandomize=True)
def test_transform_routes(model, dynamic, t, cfg):
    _finite_or_typed_error(subordinated_value, model, dynamic, t, cfg)
    _finite_or_typed_error(cesaro_mean, model, dynamic, t, cfg)


@given(models, dynamics, huge_times, methods)
@settings(max_examples=800, deadline=None, derandomize=True)
def test_transform_routes_at_huge_t(model, dynamic, t, cfg):
    _finite_or_typed_error(subordinated_value, model, dynamic, t, cfg)
    _finite_or_typed_error(cesaro_mean, model, dynamic, t, cfg)


@given(indices, dynamics, times)
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_stable_closed_form(alpha, dynamic, t):
    _finite_or_typed_error(stable_closed_form, alpha, dynamic, t)


@given(models, rates, st.floats(-4.0, -1.0).map(lambda e: 10.0 ** e), st.integers(1, 20_000))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_relaxation(model, a, h, steps):
    try:
        solution = solve_relaxation(RelaxationProblem(model, a=a, h=h, horizon=h * steps))
    except FractimeError:
        return
    assert np.all(np.isfinite(solution.values))


@given(indices, dynamics, times)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_stable_quadrature(alpha, dynamic, t):
    _finite_or_typed_error(stable_quadrature, alpha, dynamic, t)
