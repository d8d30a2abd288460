"""Acceptance gate: every verification criterion at its pinned tolerance.

Each test runs one criterion from fractime.verify (the same definitions the
``fractime verify`` command uses), prints its one-line pass/fail summary
plus the per-check measurements, and asserts the criterion passed.  It also
pins the criterion's exact list of (label, tolerance) pairs: the C1-C10
tolerances are the behavioural contract, so a check cannot be dropped,
renamed or loosened without this module changing with it.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import pytest

from fractime.verify import ALL_CRITERIA

_MONO_EXP = ("mono n=1", "mono n=2", "exp a=1")


def _run(key, contract):
    result = ALL_CRITERIA[key]()
    print()
    print(result.report())
    assert [(line.label, line.tolerance) for line in result.lines] == contract
    assert result.passed, f"{key} failed:\n{result.report()}"
    return result


def test_criterion_01_closed_form_monomials():
    """Stable monomial closed forms at 1e-6, alpha x degree x 20 times, < 5 s."""
    _run("C1", [(f"alpha={a} n={n} sup rel dev", 1e-6) for a in (0.3, 0.5, 0.7)
                for n in range(4)] + [("runtime seconds", 5.0)])


def test_criterion_02_subordinated_exponential():
    """Inversion matches the independent relaxation-function oracle at 1e-6."""
    _run("C2", [(f"alpha={a} a={b} sup abs dev", 1e-6) for a in (0.3, 0.5, 0.7)
                for b in (0.5, 1.0, 2.0)])


def test_criterion_03_stable_rate_agreement():
    """Curve and Cesaro-mean fitted exponents within 0.03 of the alpha-rates,
    and within 0.02 of each other."""
    cases = [(f"mono n={n}", "- 0.5n") for n in range(4)] + [("exp", "+ 0.5")]
    _run("C3", [pair for name, target in cases for pair in (
        (f"{name} |p_curve {target}|", 0.03),
        (f"{name} |p_mean {target}|", 0.03),
        (f"{name} |p_curve - p_mean|", 0.02))])


def test_criterion_04_two_stable_rates():
    """Two-stable Cesaro exponents within 0.05 of 0.5 n."""
    _run("C4", [("mono n=1 |p - 0.5|", 0.05), ("mono n=2 |p - 1.0|", 0.05)])


def test_criterion_05_distributed_order_rates():
    """Distributed-order constrained log exponents within 0.15, stabilized
    ratio drift below 10% over the top decade."""
    _run("C5", [pair for name, q in zip(_MONO_EXP, (1.0, 2.0, -1.0)) for pair in (
        (f"{name} |q - ({q})|", 0.15), (f"{name} top-decade ratio spread", 0.1))])


def test_criterion_06_parametric_log_rates():
    """Parametric log-kernel constrained exponents within 0.2."""
    _run("C6", [pair for s in (0.5, 1.0)
                for name, q in zip(_MONO_EXP, ((1 + s), 2 * (1 + s), -(1 + s))) for pair in (
                    (f"s={s} {name} |q - ({q})|", 0.2),
                    (f"s={s} {name} top-decade ratio spread", 0.1))])


def test_criterion_07_double_transform_identity():
    """Numerical double transform of the density within 1e-4 of the formula."""
    _run("C7", [(f"p={p} lam={lam} residual", 1e-4) for p in (0.5, 1.0, 2.0)
                for lam in (0.5, 1.0, 2.0)])


def test_criterion_08_relaxation_crosscheck():
    """Kernel relaxation solves within 1e-3 (stable) / 2e-3 (distributed-order)."""
    _run("C8", [("stable max error", 1e-3), ("distributed-order max error", 2e-3)])


def test_criterion_09_monte_carlo():
    """MC within 3 standard errors of inversion; bit-identical across workers;
    < 30 s."""
    # each tolerance is 3 SE of its estimate, fixed by the seed and path count
    three_se = {
        "mono n=1 t=1.0": 0.008098880014650691,
        "mono n=1 t=10.0": 0.025610907342714033,
        "exp a=1 t=1.0": 0.0025594946687131485,
        "exp a=1 t=10.0": 0.002308353984094964,
        "two-stable mono n=1 t=1.0": 0.0033952148253790383,
        "two-stable mono n=1 t=10.0": 0.01453670823430573,
        "two-stable exp a=1 t=1.0": 0.00189154441240432,
        "two-stable exp a=1 t=10.0": 0.0024133719765275542,
        "distributed-order mono n=1 t=1.0": 0.007905906726451403,
        "distributed-order mono n=1 t=10.0": 0.024266484934927293,
        "distributed-order exp a=1 t=1.0": 0.002563973702646173,
        "distributed-order exp a=1 t=10.0": 0.002597536190817824,
    }
    _run("C9", [(f"{case} |mc - inversion| vs 3 SE", pytest.approx(tol, rel=1e-9))
                for case, tol in three_se.items()]
         + [("bit-identical across workers 1/4/8", 0.0), ("runtime seconds", 30.0)])


def test_criterion_10_inversion_battery():
    """Rational-transform battery (Talbot 1e-10, Gaver-Stehfest 1e-6) and
    1e-6 cross-agreement on the relaxation transform."""
    talbot = ("1/l @ t=3", "1/l^2 @ t=2.5", "1/(l+1) @ t=1", "2/l^3 @ t=2")
    gaver_stehfest = ("1/l @ t=3", "1/(l+2) @ t=0.5", "2/l^3 @ t=2")
    _run("C10", [(f"talbot {case}", 1e-10) for case in talbot]
         + [(f"gaver-stehfest {case}", 1e-6) for case in gaver_stehfest]
         + [("talbot vs gaver-stehfest on relaxation transform", 1e-6)])
