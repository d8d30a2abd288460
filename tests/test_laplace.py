"""Inversion methods against rational transforms with known inverses."""

import cmath
import math
import warnings

import numpy as np
import pytest

from fractime import (
    ConfigError,
    Exponential,
    InversionConfig,
    InversionError,
    StableSubordinator,
    UserTransform,
    gaver_stehfest_config,
    gaver_stehfest_invert,
    invert_on_grid,
    subordinated_value,
    talbot_invert,
)
from fractime.laplace import invert


class TestTalbot:
    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0, 10.0, 100.0])
    def test_unit_step(self, t):
        assert talbot_invert(lambda l: 1.0 / l, t) == pytest.approx(1.0, rel=1e-10)

    def test_ramp(self):
        assert talbot_invert(lambda l: 1.0 / l ** 2, 2.5) == pytest.approx(2.5, rel=1e-10)

    def test_decay(self):
        got = talbot_invert(lambda l: 1.0 / (l + 1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_square(self):
        assert talbot_invert(lambda l: 2.0 / l ** 3, 2.0) == pytest.approx(4.0, rel=1e-10)

    def test_linearity(self):
        f = lambda l: 1.0 / (l + 1.0)   # noqa: E731
        g = lambda l: 1.0 / l ** 2      # noqa: E731
        a, b = 2.5, -1.25
        for t in (0.5, 2.0, 7.0):
            combined = talbot_invert(lambda l: a * f(l) + b * g(l), t)
            split = a * talbot_invert(f, t) + b * talbot_invert(g, t)
            assert combined == pytest.approx(split, abs=1e-9)

    def test_nonfinite_transform_raises(self):
        with pytest.raises(InversionError):
            talbot_invert(lambda l: complex(math.nan, 0.0), 1.0)

    def test_requires_positive_time(self):
        with pytest.raises(ConfigError):
            talbot_invert(lambda l: 1.0 / l, 0.0)

    @pytest.mark.parametrize("power,t", [(1.5, 1e-210), (1.5, 1e-250), (1.1, 1e-290)])
    def test_underflowed_node_values_raise(self, power, t):
        # l^-power leaves the normal doubles on the contour's far nodes; the
        # values were 1.127e-105 (8.5e-4 off), 0.0 (exact 1.1e-125) and
        # -1.98e-29 (exact +1.03e-29)
        for invert_at in (lambda f: talbot_invert(f, t), lambda f: invert_on_grid(f, [t, 1.0])):
            with pytest.raises(InversionError) as excinfo:
                invert_at(lambda l: l ** -power)
            assert excinfo.value.t == t

    def test_tiny_t_above_the_underflow(self):
        t = 1e-200
        got = talbot_invert(lambda l: l ** -1.5, t)
        assert got == pytest.approx(t ** 0.5 / math.gamma(1.5), rel=1e-10)
        # exact zeros computed without underflow pass
        assert talbot_invert(lambda l: 0.0 * l, t) == 0.0


class TestGaverStehfest:
    def test_unit_step(self):
        got = gaver_stehfest_invert(lambda l: 1.0 / l, 3.0)
        assert got == pytest.approx(1.0, rel=1e-6)

    def test_decay(self):
        got = gaver_stehfest_invert(lambda l: 1.0 / (l + 2.0), 0.5)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_square(self):
        got = gaver_stehfest_invert(lambda l: 2.0 / l ** 3, 2.0)
        assert got == pytest.approx(4.0, rel=1e-6)

    def test_linearity(self):
        f = lambda l: 1.0 / (l + 2.0)   # noqa: E731
        g = lambda l: 1.0 / l           # noqa: E731
        combined = gaver_stehfest_invert(lambda l: 3.0 * f(l) + 0.5 * g(l), 1.0)
        split = 3.0 * gaver_stehfest_invert(f, 1.0) + 0.5 * gaver_stehfest_invert(g, 1.0)
        assert combined == pytest.approx(split, abs=1e-9)

    def test_complex_values_real_on_the_axis(self):
        # a complex-typed transform that is real on the real axis inverts as
        # its real part, with no ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaver_stehfest_invert(lambda l: np.exp(-l) + 0j, 1.0)
            assert got == gaver_stehfest_invert(lambda l: np.exp(-l), 1.0)
            written = UserTransform(lambda z: 1.0 / (z + cmath.sqrt(1.0)))
            got = subordinated_value(StableSubordinator(0.5), written, 1.0, gaver_stehfest_config())
        want = subordinated_value(StableSubordinator(0.5), Exponential(1.0), 1.0,
                                  gaver_stehfest_config())
        assert got == pytest.approx(want, rel=1e-12)

    def test_complex_values_off_the_axis_refused(self):
        # 1/(l + i) is not real for real l: no real inverse to read off
        off_axis = UserTransform(lambda z: 1.0 / (z + 1j))
        with pytest.raises(InversionError, match="non-real"):
            gaver_stehfest_invert(off_axis.transform, 1.0)
        with pytest.raises(InversionError, match="non-real"):
            subordinated_value(StableSubordinator(0.5), off_axis, 1.0, gaver_stehfest_config())


def test_talbot_term_floor():
    with pytest.raises(ConfigError):
        talbot_invert(lambda l: 1.0 / l, 1.0, terms=8)


def test_unknown_method():
    with pytest.raises(ConfigError):
        InversionConfig(method="fourier")


def test_method_agreement_on_relaxation_transform():
    model = StableSubordinator(0.5)

    def transform(l):
        kt = model.kernel_transform(l)
        return kt / (1.0 + l * kt)

    worst = 0.0
    for t in np.logspace(-1, 2, 40):
        vt = talbot_invert(transform, float(t))
        vg = gaver_stehfest_invert(transform, float(t))
        worst = max(worst, abs(vt - vg) / abs(vt))
    assert worst <= 1e-6


class TestGridInversion:
    def test_unit_grid(self):
        out = invert_on_grid(lambda l: 1.0 / l, [1.0, 10.0, 100.0])
        assert np.allclose(out.values, 1.0, rtol=1e-10)

    def test_ramp_grid(self):
        out = invert_on_grid(lambda l: 1.0 / l ** 2, [1.0, 2.0, 4.0])
        assert np.allclose(out.values, [1.0, 2.0, 4.0], rtol=1e-10)

    def test_grid_must_be_positive(self):
        with pytest.raises(ConfigError):
            invert_on_grid(lambda l: 1.0 / (l + 1.0), [0.0, 1.0, 2.0])

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            invert_on_grid(lambda l: 1.0 / l, [1.0, 1.0, 2.0])

    def test_order_preserved(self):
        grid = np.logspace(0, 2, 9)
        out = invert_on_grid(lambda l: 1.0 / l ** 2, grid)
        assert np.array_equal(out.abscissae, grid)

    def test_failure_reports_abscissa(self):
        def bad(l):
            return complex(math.inf, 0.0)

        with pytest.raises(InversionError) as excinfo:
            invert_on_grid(bad, [1.0, 2.0])
        assert excinfo.value.t == 1.0


def test_dispatch_matches_methods():
    f = lambda l: 1.0 / (l + 1.0)  # noqa: E731
    assert invert(f, 2.0) == talbot_invert(f, 2.0)
    assert invert(f, 2.0, gaver_stehfest_config()) == gaver_stehfest_invert(f, 2.0)
