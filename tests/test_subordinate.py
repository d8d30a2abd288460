"""Subordinated curves: transform formulas and agreement across the three routes."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from fractime import (
    ConfigError,
    ConvergenceError,
    DistributedOrderSubordinator,
    DomainError,
    Exponential,
    InversionError,
    Monomial,
    ParametricLogSubordinator,
    RelaxationProblem,
    StableSubordinator,
    TwoStableSubordinator,
    UserTransform,
    UnsupportedDynamicError,
    cesaro_curve,
    cesaro_mean,
    density_tail_cutoff,
    double_transform_residual,
    gamma_fn,
    gaver_stehfest_invert,
    inverse_stable_density,
    mittag_leffler,
    stable_closed_form,
    stable_quadrature,
    subordinated_curve,
    subordinated_transform,
    subordinated_value,
    talbot_invert,
    wright,
)
from fractime.laplace import _TALBOT_SHAPE, _talbot_nodes
from fractime.subordinate import exact_double_transform
from conftest import ml_erfcx_oracle, ml_series_oracle

EDGE_DYNAMICS = [Monomial(n) for n in range(9)] + [Exponential(1.0)]

ALL_MODELS = [
    StableSubordinator(0.5),
    TwoStableSubordinator(0.5, 0.75),
    DistributedOrderSubordinator(),
    ParametricLogSubordinator(0.5),
]


class TestTransform:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_degree_zero_is_exactly_reciprocal(self, model):
        for lam in (0.1, 2.0, 50.0):
            assert subordinated_transform(model, Monomial(0), lam) == 1.0 / lam

    def test_exponential_value(self):
        # K(1) = 1 for the stable half model: 1/(1+1)
        got = subordinated_transform(StableSubordinator(0.5), Exponential(1.0), 1.0)
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_monomial_value(self):
        # 1! * 4^-2 * K(4)^-1, K(4) = 1/2
        got = subordinated_transform(StableSubordinator(0.5), Monomial(1), 4.0)
        assert got == pytest.approx(0.125, rel=1e-14)

    def test_user_transform_reduces_to_builtin(self):
        model = StableSubordinator(0.5)
        dyn = UserTransform(lambda z: 1.0 / (z + 2.0))
        for lam in (0.3, 1.0, 7.0):
            direct = subordinated_transform(model, Exponential(2.0), lam)
            generic = subordinated_transform(model, dyn, lam)
            assert generic == pytest.approx(direct, rel=1e-14)

    def test_non_dynamic_is_unsupported(self):
        with pytest.raises(UnsupportedDynamicError):
            subordinated_transform(StableSubordinator(0.5), object(), 1.0)


def _contour(t):
    """The default Talbot contour's 32 nodes at t; node 0 is real."""
    path, _ = _talbot_nodes(32)
    return _TALBOT_SHAPE * 32 / t * path


PARITY_MODELS = ALL_MODELS + [StableSubordinator(0.3), ParametricLogSubordinator(1.5, 0.7)]
PARITY_DYNAMICS = [Monomial(1), Monomial(171), Exponential(0.7),
                   UserTransform(lambda z: 1.0 / (z + 0.7))]
PARITY_NODES = {
    # a contour's node 0 is real: c3 takes log1p there inside a complex array
    "contour t=1e-3": _contour(1e-3),
    "contour t=1": _contour(1.0),
    "contour t=1e12": _contour(1e12),
    # the distributed-order Taylor window |l - 1| < 1e-4, among nodes outside it
    "taylor window": np.array([0.5, 1.0 - 5e-5, 1.0, 1.0 + 3e-5 + 2e-5j, 1.0 + 2e-4, 3.0 - 1j]),
    "real": np.geomspace(1e-6, 1e6, 13),
    "long double": np.geomspace(0.01, 10.0, 16, dtype=np.longdouble),
}


# numpy's complex multiply loop for arrays fuses multiply-adds that 0-d
# operands do not, so entries may differ in the last few bits (measured: 2.7 ulp)
PARITY_RTOL = 8 * np.finfo(float).eps


class TestArrayParity:
    """An array of nodes gives the stack of the scalar calls, entry by entry."""

    @pytest.mark.parametrize("nodes", PARITY_NODES.values(), ids=PARITY_NODES.keys())
    @pytest.mark.parametrize("dyn", PARITY_DYNAMICS, ids=["mono:1", "mono:171", "exp:0.7", "user"])
    @pytest.mark.parametrize("model", PARITY_MODELS, ids=repr)
    def test_subordinated_transform(self, model, dyn, nodes):
        try:
            stacked = np.array([subordinated_transform(model, dyn, z) for z in nodes])
        except DomainError:
            with pytest.raises(DomainError):
                subordinated_transform(model, dyn, nodes)
            return
        got = subordinated_transform(model, dyn, nodes)
        assert got.shape == nodes.shape and got.dtype == stacked.dtype
        np.testing.assert_allclose(got, stacked, rtol=PARITY_RTOL, atol=0.0)

    @pytest.mark.parametrize("nodes", PARITY_NODES.values(), ids=PARITY_NODES.keys())
    @pytest.mark.parametrize("model", PARITY_MODELS, ids=repr)
    def test_kernel_transform(self, model, nodes):
        stacked = np.array([model.kernel_transform(z) for z in nodes])
        np.testing.assert_allclose(model.kernel_transform(nodes), stacked,
                                   rtol=PARITY_RTOL, atol=0.0)

    @pytest.mark.parametrize("model", PARITY_MODELS, ids=repr)
    def test_scalar_in_scalar_out(self, model):
        assert np.ndim(model.kernel_transform(2.0)) == 0
        assert np.ndim(subordinated_transform(model, Exponential(1.0), 2.0 + 1.0j)) == 0
        assert np.ndim(subordinated_transform(model, PARITY_DYNAMICS[-1], 2.0)) == 0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, -2.0 + 0.0j])
    @pytest.mark.parametrize("model", PARITY_MODELS, ids=repr)
    def test_any_real_nonpositive_entry_raises(self, model, bad):
        nodes = np.array([1.0 + 1.0j, 2.0, bad, 3.0 - 1.0j])
        with pytest.raises(DomainError):
            model.kernel_transform(nodes)
        with pytest.raises(DomainError):
            model.kernel_transform(nodes.real)


class TestValue:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_degree_zero_normalization(self, model):
        assert subordinated_value(model, Monomial(0), 7.0) == pytest.approx(1.0, rel=1e-11)

    def test_monomial_closed_form_value(self):
        # 4/sqrt(pi) at t=4
        got = subordinated_value(StableSubordinator(0.5), Monomial(1), 4.0)
        assert got == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-9)

    def test_exponential_matches_relaxation_oracle(self):
        got = subordinated_value(StableSubordinator(0.5), Exponential(1.0), 1.0)
        assert got == pytest.approx(ml_erfcx_oracle(1.0), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_route_agreement_monomials(self, alpha, n):
        model = StableSubordinator(alpha)
        dyn = Monomial(n)
        for t in np.logspace(-1, 2, 7):
            closed = stable_closed_form(alpha, dyn, float(t))
            inverted = subordinated_value(model, dyn, float(t))
            assert abs(inverted - closed) <= 1e-6 * (1.0 + abs(closed))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_route_agreement_exponential(self, alpha):
        # the curve inverts the transform pointwise; closed form and
        # quadrature are called with the index itself
        dyn = Exponential(1.0)
        ts = np.logspace(-1, 2, 7)
        closed = np.array([stable_closed_form(alpha, dyn, float(t)) for t in ts])
        curve = subordinated_curve(StableSubordinator(alpha), dyn, ts)
        np.testing.assert_allclose(curve.samples.values, closed, rtol=0.0, atol=1e-8)
        quadr = [stable_quadrature(alpha, dyn, float(t)) for t in ts]
        np.testing.assert_allclose(quadr, closed, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("n,t", [(2, 1e-160), (2, 1e-200), (3, 1e-130)])
    def test_transform_underflow_at_tiny_t_raises(self, n, t):
        # u^E(lam) = n!/lam^(1 + n/2) leaves the normal doubles on the
        # contour's nodes; the values were 4.23e-159 (exact 2e-160), 0.0 and
        # 0.0 (exact 4.5e-195)
        model, dyn = StableSubordinator(0.5), Monomial(n)
        with pytest.raises(InversionError):
            subordinated_value(model, dyn, t)
        with pytest.raises(InversionError):
            subordinated_curve(model, dyn, [t, 1.0])

    @pytest.mark.parametrize("n,t", [(2, 1e-150), (3, 1e-100)])
    def test_tiny_t_above_the_underflow(self, n, t):
        model, dyn = StableSubordinator(0.5), Monomial(n)
        closed = stable_closed_form(0.5, dyn, t)
        assert subordinated_value(model, dyn, t) == pytest.approx(closed, rel=1e-11)
        curve = subordinated_curve(model, dyn, [t, 1.0])
        assert curve.samples.values[0] == pytest.approx(closed, rel=1e-11)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_monomial_curves_nondecreasing(self, model):
        grid = np.logspace(-1, 2, 20)
        curve = subordinated_curve(model, Monomial(1), grid)
        assert np.all(np.diff(curve.samples.values) > 0.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_exponential_curves_decay_in_unit_interval(self, model):
        grid = np.logspace(-1, 2, 20)
        curve = subordinated_curve(model, Exponential(1.0), grid)
        vals = curve.samples.values
        assert np.all((vals > 0.0) & (vals <= 1.0 + 1e-12))
        assert np.all(np.diff(vals) < 0.0)


class TestClosedForm:
    def test_monomial_degree_two(self):
        # 2!/Gamma(2) = 2 at t=1
        assert stable_closed_form(0.5, Monomial(2), 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_exponential_at_zero(self):
        assert stable_closed_form(0.5, Exponential(1.0), 0.0) == 1.0

    def test_monomial_at_nine(self):
        # 6/sqrt(pi)
        assert stable_closed_form(0.5, Monomial(1), 9.0) == pytest.approx(
            6.0 / math.sqrt(math.pi), rel=1e-14
        )

    def test_unsupported_dynamic(self):
        with pytest.raises(UnsupportedDynamicError):
            stable_closed_form(0.5, UserTransform(lambda z: 1.0 / z), 1.0)

    @pytest.mark.parametrize("n", [170, 171, 200, 400])
    @pytest.mark.parametrize("t", [1e-12, 1e-4, 1.0, 1e12])
    def test_high_degree_monomials(self, n, t):
        # n! t^(n/2)/Gamma(n/2 + 1) in 50 digits: the rounded value, 0.0 below
        # the doubles, DomainError above them
        with mp.workdps(50):
            exact = float(mp.factorial(n) * mp.power(t, n / 2) / mp.gamma(mp.mpf(n) / 2 + 1))
        if exact == math.inf:
            with pytest.raises(DomainError):
                stable_closed_form(0.5, Monomial(n), t)
        else:
            assert stable_closed_form(0.5, Monomial(n), t) == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestQuadrature:
    def test_normalization(self):
        assert stable_quadrature(0.5, Monomial(0), 2.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_exponential(self):
        ref = ml_series_oracle(0.5, 1.0)
        assert stable_quadrature(0.5, Exponential(1.0), 1.0) == pytest.approx(
            ref, abs=1e-6
        )

    def test_monomial(self):
        assert stable_quadrature(0.5, Monomial(1), 1.0) == pytest.approx(
            2.0 / math.sqrt(math.pi), abs=1e-6
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            stable_quadrature(0.5, Monomial(1), 0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.92])
    @pytest.mark.parametrize("dyn", EDGE_DYNAMICS, ids=repr)
    def test_index_edges_against_closed_forms(self, alpha, dyn):
        for t in (1e-3, 1.0, 1e3):
            closed = stable_closed_form(alpha, dyn, t)
            assert stable_quadrature(alpha, dyn, t) == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("x", np.logspace(-3, 9, 13))
    def test_exponential_against_erfcx(self, x):
        # a t^(1/2) = x at t = 4; the head panel is refined down to 16/x
        got = stable_quadrature(0.5, Exponential(float(x) / 2.0), 4.0)
        assert got == pytest.approx(ml_erfcx_oracle(float(x)), rel=1e-12)

    def test_tail_bound_against_incomplete_gamma(self):
        # the elementary bound the tail test uses in place of Gamma(s, x),
        # against mpmath, in logs (Gamma(s, x) leaves the doubles near x = 700)
        from fractime.subordinate import _log_upper_gamma_bound

        with mp.workdps(30):
            for s in np.linspace(0.05, 12.0, 25):
                for x in np.geomspace(27.0, 5000.0, 20):
                    exact = float(mp.log(mp.gammainc(s, float(x))))
                    bound = _log_upper_gamma_bound(float(s), float(x))
                    assert exact <= bound <= exact + math.log(1.05), (s, x)

    @pytest.mark.parametrize("dyn", [Monomial(1), Exponential(1.0)], ids=repr)
    def test_unreachable_density_raises(self, dyn):
        # the Wright series cannot reach the table's nodes at this index
        with pytest.raises(ConvergenceError):
            stable_quadrature(0.97, dyn, 1.0)


class TestDoubleTransform:
    def test_right_side_values(self):
        assert exact_double_transform(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        # K(4)/(4 K(4) + 2) = 0.5/(2+2)
        assert exact_double_transform(0.5, 2.0, 4.0) == pytest.approx(0.125, rel=1e-14)

    def test_normalization_limit(self):
        # p -> 0: right side approaches 1/lam
        assert exact_double_transform(0.5, 1e-9, 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_residual_small(self):
        assert double_transform_residual(0.5, 1.0, 1.0) <= 1e-4

    def test_gauss_jacobi_head_matches_scipy(self):
        # Golub-Welsch against scipy's Gauss-Jacobi rule; the smallest weights
        # agree to roundoff of the weight's total mass 2^(b+1)/(b+1)
        from scipy.special import roots_jacobi
        from fractime.subordinate import _OUTER_ORDER, _gauss_jacobi_head

        for alpha in np.linspace(0.05, 0.95, 19):
            b = 1.0 / alpha - 1.0
            nodes, weights = _gauss_jacobi_head(b)
            want_nodes, want_weights = roots_jacobi(_OUTER_ORDER, 0.0, b)
            assert np.max(np.abs(nodes - want_nodes)) <= 2e-15
            mass = 2.0 ** (b + 1.0) / (b + 1.0)
            np.testing.assert_allclose(weights, want_weights, rtol=5e-13, atol=1e-15 * mass)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("p,lam", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
    def test_fixed_outer_rule_matches_tanh_sinh(self, alpha, p, lam):
        # the outer integral over t in [0, 30/lam] by mpmath's tanh-sinh rule,
        # which resolves the t^alpha behavior at 0 to roundoff
        from fractime.subordinate import _HEAD, _double_transform, _table

        nodes, wts = _table(alpha, _HEAD, 0)

        def integrand(t):
            t = float(t)
            return math.exp(-lam * t) * float(np.dot(wts, np.exp(-p * t ** alpha * nodes)))

        converged = float(mp.quad(integrand, [0.0, 1e-6, 1e-3, 0.1, 1.0, 30.0 / lam]))
        assert _double_transform(alpha, p, lam) == pytest.approx(converged, abs=1e-9)


@pytest.mark.parametrize("fn", [lambda z: 1.0 / (z + 0.7),
                                lambda z: cmath.exp(-cmath.log(z + 0.7))],
                         ids=["arithmetic", "cmath-only"])
def test_user_transform_end_to_end(fn):
    # a dynamic supplied only through a scalar transform inverts to the same curve
    model = TwoStableSubordinator(0.5, 0.75)
    dyn = UserTransform(fn)
    for t in (0.5, 3.0, 20.0):
        via_user = subordinated_value(model, dyn, t)
        via_builtin = subordinated_value(model, Exponential(0.7), t)
        # same transform up to evaluation order; contour roundoff ~1e-11
        assert via_user == pytest.approx(via_builtin, rel=1e-9)


@pytest.mark.parametrize("invert", [talbot_invert, gaver_stehfest_invert])
@pytest.mark.parametrize("fn", [lambda z: cmath.exp(-cmath.log(z + 0.7)),
                                lambda z: 1.0 / z if z.real > 0 else 0.0,
                                lambda z: np.ones(3)],
                         ids=["cmath-only", "branching", "wrong-shape"])
def test_inverters_refuse_transforms_that_are_not_elementwise(invert, fn):
    # the inverters call transform once with the array of nodes; a scalar
    # function raises a typed error naming UserTransform, which wraps it
    with pytest.raises(ConfigError, match="UserTransform"):
        invert(fn, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_times_outside_zero_to_infinity_raise_typed_errors(t):
    model, dyn = StableSubordinator(0.5), Monomial(1)
    for call, error in [
        (lambda: talbot_invert(lambda lam: 1.0 / lam, t), ConfigError),
        (lambda: gaver_stehfest_invert(lambda lam: 1.0 / lam, t), ConfigError),
        (lambda: cesaro_mean(model, dyn, t), ConfigError),
        (lambda: subordinated_value(model, dyn, t), ConfigError),
        (lambda: subordinated_curve(model, dyn, [1.0, t]), ConfigError),
        (lambda: cesaro_curve(model, dyn, [1.0, t]), ConfigError),
    ]:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_quadrature_route_agreement_monomials(alpha):
    for n in range(4):
        dyn = Monomial(n)
        for t in (0.1, 1.0, 10.0, 100.0):
            closed = stable_closed_form(alpha, dyn, t)
            quadr = stable_quadrature(alpha, dyn, t)
            assert abs(quadr - closed) <= 1e-5 * (1.0 + abs(closed))


@pytest.mark.parametrize("call,error", [
    (lambda: stable_closed_form(0.5, Monomial(1), math.nan), DomainError),
    (lambda: stable_closed_form(0.5, Monomial(1), math.inf), DomainError),
    (lambda: stable_quadrature(0.5, Monomial(1), math.nan), DomainError),
    (lambda: wright(-0.3, 0.7, -math.inf), DomainError),
    (lambda: wright(-0.5, 0.5, math.nan), DomainError),
    (lambda: wright(-0.5, math.inf, -1.0), DomainError),
    (lambda: inverse_stable_density(0.5, 1.0, math.nan), DomainError),
    (lambda: inverse_stable_density(0.5, math.inf, 1.0), DomainError),
    (lambda: double_transform_residual(0.5, math.nan, 1.0), DomainError),
    (lambda: gamma_fn(math.nan), DomainError),
    (lambda: density_tail_cutoff(0.5, math.nan), DomainError),
    (lambda: mittag_leffler(0.5, math.nan), DomainError),
    (lambda: RelaxationProblem(StableSubordinator(0.5), a=math.nan), ConfigError),
    (lambda: RelaxationProblem(StableSubordinator(0.5), a=1.0, horizon=math.inf), ConfigError),
    (lambda: RelaxationProblem(StableSubordinator(0.5), a=1.0, u0=math.nan), ConfigError),
])
def test_non_finite_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_monomial_overflow_signaled():
    with pytest.raises(DomainError):
        subordinated_transform(StableSubordinator(0.5), Monomial(200), 0.01 + 0j)


def test_user_transform_overflow_signaled():
    # a callable in cmath raises OverflowError where numpy would return inf
    dyn = UserTransform(lambda z: cmath.exp(1e3 / z))
    with pytest.raises(DomainError):
        subordinated_transform(StableSubordinator(0.5), dyn, np.array([1.0 + 1.0j, 0.01]))


def test_density_table_shared_across_threads():
    # concurrent points build and read the cached tables; values match serial bit for bit
    import concurrent.futures
    import sys

    from fractime.subordinate import _panel

    cases = [(Monomial(n), t) for n in (1, 2) for t in (0.5, 2.0)] + \
            [(Exponential(a), 1.0) for a in (0.5, 50.0, 5e4)]
    serial = [stable_quadrature(0.45, dyn, t) for dyn, t in cases]
    _panel.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            parallel = list(pool.map(lambda case: stable_quadrature(0.45, *case), cases))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_base_panels_read_the_wright_density_bit_for_bit(alpha):
    # the panels read E(1)'s density, whose scale t^-alpha is exactly 1.0
    from fractime.subordinate import _GAUSS, _HEAD, _TABLE_FLOOR, _panel

    cutoff = density_tail_cutoff(alpha, 1.0, _TABLE_FLOOR)
    for k in range(_HEAD, 1):
        nodes, wts = _panel(alpha, k, k == _HEAD)
        hi = math.ldexp(cutoff, k)
        lo = 0.0 if k == _HEAD else 0.5 * hi
        dens = np.array([wright(-alpha, 1.0 - alpha, -v) for v in nodes])
        assert np.array_equal(wts, 0.5 * (hi - lo) * _GAUSS[1] * dens)


def test_points_at_a_used_index_add_no_panel_misses():
    # the panels are the one cache of density values; tables are reassembled from them
    from fractime.subordinate import _panel

    stable_quadrature(0.45, Monomial(1), 0.5)
    misses = _panel.cache_info().misses
    stable_quadrature(0.45, Monomial(1), 4.0)
    double_transform_residual(0.45, 1.0, 1.0)
    assert _panel.cache_info().misses == misses
