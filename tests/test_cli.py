"""Command-line interface: exit codes, CSV round-trips, JSON summaries."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fractime.cli import main
from conftest import ml_series_oracle


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_ml_value(capsys):
    code, out, _ = run_cli("ml", "--alpha", "0.5", "--x", "1", capsys=capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(ml_series_oracle(0.5, 1.0), rel=1e-10)


def test_wright_value(capsys):
    code, out, _ = run_cli("wright", "--mu", "-0.5", "--nu", "0.5", "--z", "-1", capsys=capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.exp(-0.25) / math.sqrt(math.pi), rel=1e-10)


def test_subordinate_normalization(capsys):
    code, out, _ = run_cli(
        "subordinate", "--model", "stable", "--alpha", "0.5",
        "--dynamic", "mono:0", "--t", "5", capsys=capsys,
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, rel=1e-9)


def test_invert_subcommand(capsys):
    code, out, _ = run_cli("invert", "--transform", "decay:2", "--t", "0.5",
                           "--method", "gs", capsys=capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.exp(-1.0), rel=1e-5)


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli("subordinate", "--model", "stable", "--alpha", "0.5",
                           "--dynamic", "mono:0", capsys=capsys)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("at", [
    # both used to print the grid results and record t = 5 in the manifest
    ("--t", "5", "--grid", "1:10:3"),
    (),
    # the fit was dropped without a word
    ("--t", "5", "--fit"),
], ids=["t-and-grid", "neither", "t-with-fit"])
@pytest.mark.parametrize("command", ["subordinate", "cesaro"])
def test_time_flags_exit_code(capsys, command, at):
    code, out, err = run_cli(command, "--model", "stable", "--alpha", "0.5",
                             "--dynamic", "mono:1", *at, capsys=capsys)
    assert code == 1
    assert out == "" and "usage error" in err


def test_unknown_flag_exit_code(capsys):
    code, _, err = run_cli("ml", "--alpha", "0.5", "--x", "1", "--bogus", capsys=capsys)
    assert code == 1


@pytest.mark.parametrize("argv", [
    # --out is taken only by the subcommands that write a table
    ("ml", "--alpha", "0.5", "--x", "1", "--out", "x"),
    ("wright", "--mu", "-0.5", "--nu", "0.5", "--z", "-1", "--out", "x"),
    ("invert", "--t", "1", "--out", "x"),
    # C3 runs at its fixed index; no flag sets it
    ("verify", "--suite", "c2", "--alpha", "0.3"),
    # the inversion rules fix their node counts; no flag sets them
    ("invert", "--t", "1", "--terms", "24"),
    ("subordinate", "--model", "stable", "--alpha", "0.5", "--dynamic", "mono:1", "--t", "1",
     "--terms", "20"),
], ids=["ml-out", "wright-out", "invert-out", "verify-alpha", "invert-terms", "subordinate-terms"])
def test_flag_the_subcommand_does_not_read_exit_code(capsys, argv):
    code, _, _ = run_cli(*argv, capsys=capsys)
    assert code == 1


def test_numerical_failure_exit_code(capsys):
    # wright series cannot converge there
    code, _, err = run_cli("wright", "--mu", "-0.3", "--nu", "0.7", "--z", "-100",
                           capsys=capsys)
    assert code == 2
    assert "numerical failure" in err


def test_route_overflow_exit_code(capsys):
    # a DomainError from a route, not from the arguments, stays a numerical failure
    code, _, err = run_cli("subordinate", "--model", "stable", "--alpha", "0.5",
                           "--dynamic", "mono:170", "--t", "1e12", capsys=capsys)
    assert code == 2
    assert "numerical failure" in err and "overflowed" in err


@pytest.mark.parametrize("command", ["subordinate", "cesaro"])
def test_time_outside_zero_to_infinity_exit_code(capsys, command):
    code, _, err = run_cli(command, "--model", "stable", "--alpha", "0.5",
                           "--dynamic", "mono:1", "--t", "-1", capsys=capsys)
    assert code == 1
    assert "usage error" in err


def test_bad_model_parameter_exit_code(capsys):
    # out-of-domain parameter values are invocation errors
    code, _, err = run_cli("subordinate", "--model", "stable", "--alpha", "1.5",
                           "--dynamic", "mono:1", "--t", "1", capsys=capsys)
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("subordinate", "--model", "c3", "--s", "nan", "--dynamic", "mono:1", "--t", "1"),
    ("subordinate", "--model", "stable", "--alpha", "0.5", "--dynamic", "exp:1e400", "--t", "1"),
    # rejected before the solver allocates anything
    ("gfde", "--model", "stable", "--alpha", "0.5", "--h", "1e-9"),
    # a decay rate is an Exponential rate: positive and finite
    ("invert", "--transform", "decay:abc", "--t", "1"),
    ("invert", "--transform", "decay:-5", "--t", "10"),
    ("invert", "--transform", "decay:inf", "--t", "1"),
    # arguments outside a function's domain, and a model Monte Carlo cannot draw
    ("ml", "--alpha", "1.5", "--x", "1"),
    ("ml", "--alpha", "0.5", "--x", "-1"),
    ("ml", "--alpha", "0.5", "--x", "nan"),
    ("wright", "--mu", "0.5", "--nu", "0.5", "--z", "-1"),
    ("mc", "--model", "c3", "--s", "0.5", "--dynamic", "mono:1", "--t", "1", "--paths", "1000"),
], ids=["c3-s-nan", "exp-inf", "gfde-steps", "decay-text", "decay-negative", "decay-inf",
        "ml-alpha", "ml-x-negative", "ml-x-nan", "wright-mu", "mc-c3"])
def test_non_finite_or_oversized_parameter_exit_code(capsys, argv):
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert "usage error" in err


def test_parameter_the_model_does_not_take_exit_code(capsys):
    # --beta means nothing to a stable model; it is refused, not ignored
    code, _, err = run_cli("subordinate", "--model", "stable", "--alpha", "0.5", "--beta", "0.9",
                           "--dynamic", "mono:1", "--t", "2", capsys=capsys)
    assert code == 1
    assert "beta" in err


def test_json_summary(capsys):
    code, out, _ = run_cli(
        "mc", "--model", "stable", "--alpha", "0.5", "--dynamic", "exp:1",
        "--t", "1", "--paths", "2000", "--seed", "7", "--json", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "mc"
    assert payload["manifest"]["seed"] == 7
    assert set(payload["results"]) == {"mean", "std_error", "n", "ess"}


def test_csv_round_trip(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        "subordinate", "--model", "stable", "--alpha", "0.5",
        "--dynamic", "mono:1", "--grid", "0.1:100:12", "--out", str(path),
        capsys=capsys,
    )
    assert code == 0
    lines = path.read_text().splitlines()
    manifest_lines = [ln for ln in lines if ln.startswith("#")]
    assert any("command = subordinate" in ln for ln in manifest_lines)
    header = lines[len(manifest_lines)]
    assert header == "t,value"
    rows = [ln.split(",") for ln in lines[len(manifest_lines) + 1:]]
    ts = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    assert ts.size == 12
    assert np.all(np.diff(ts) > 0)
    assert np.allclose(vals, 2.0 * np.sqrt(ts) / math.sqrt(math.pi), rtol=1e-8)
    for ln in lines:
        assert "," not in ln.replace(",", "", 2)  # no thousands separators


def test_deterministic_outputs(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(
            "mc", "--model", "stable", "--alpha", "0.5", "--dynamic", "exp:1",
            "--t", "1", "--paths", "2000", "--seed", "3", "--json", capsys=capsys,
        )
        assert code == 0
    # same manifest -> byte-identical numeric output
    outs = []
    for p in paths:
        code, out, _ = run_cli(
            "mc", "--model", "stable", "--alpha", "0.5", "--dynamic", "exp:1",
            "--t", "1", "--paths", "2000", "--seed", "3", capsys=capsys,
        )
        outs.append(out)
    assert outs[0] == outs[1]


def test_gfde_subcommand(capsys):
    code, out, _ = run_cli("gfde", "--model", "stable", "--alpha", "0.5",
                           "--a", "1", "--h", "0.01", "--horizon", "0.5", capsys=capsys)
    assert code == 0
    assert "max defect" in out


def test_cesaro_with_fit(capsys):
    code, out, _ = run_cli(
        "cesaro", "--model", "stable", "--alpha", "0.5", "--dynamic", "mono:1",
        "--grid", "100:100000000:12", "--fit", "--json", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["p"] == pytest.approx(0.5, abs=1e-6)


def test_verify_failure_exit_code(capsys, monkeypatch):
    import fractime.verify as verify_mod
    from fractime.verify import CriterionResult

    def failing():
        res = CriterionResult("CX", "always fails")
        res.check("doomed", 1.0, 0.5)
        return res

    monkeypatch.setitem(verify_mod.ALL_CRITERIA, "C10", failing)
    monkeypatch.setitem(verify_mod.SUITES, "inversion", ("C10",))
    code, out, _ = run_cli("verify", "--suite", "inversion", capsys=capsys)
    assert code == 3
    assert "FAIL" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fractime.cli", "ml", "--alpha", "0.5", "--x", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 1.0


_SCIPY_BLOCKED = """\
import contextlib, io, json, sys
sys.modules["scipy"] = None   # any import of scipy or a submodule now fails
import fractime, fractime.cli
assert fractime.cli.main(["verify", "--suite", "all"]) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = fractime.cli.main(["gfde", "--model", "stable", "--alpha", "0.5",
                              "--h", "1e-4", "--horizon", "10", "--json"])
assert code == 0
print(json.loads(out.getvalue())["results"]["max_defect"])
"""


def test_runs_on_numpy_and_mpmath_alone():
    # scipy is a test dependency only: with it unimportable the package and
    # its CLI import, every acceptance criterion passes, and a relaxation
    # solve at the 100,000-step bound holds its equations to roundoff
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "10/10 criteria passed" in lines
    assert float(lines[-1]) <= 1e-12


def test_mc_csv_has_std_error_column(tmp_path, capsys):
    path = tmp_path / "mc.csv"
    code, _, _ = run_cli(
        "mc", "--model", "stable", "--alpha", "0.5", "--dynamic", "exp:1",
        "--t", "1", "--paths", "2000", "--seed", "3", "--out", str(path),
        capsys=capsys,
    )
    assert code == 0
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,value,std_error"
    t, mean, se = (float(x) for x in lines[1].split(","))
    assert t == 1.0 and 0.0 < se < 0.1


def test_verify_suite_cli(capsys):
    code, out, _ = run_cli("verify", "--suite", "c1", capsys=capsys)
    assert code == 0
    assert "2/2 criteria passed" in out
    assert "FAIL" not in out


def test_unknown_suite_is_a_config_error():
    from fractime import ConfigError
    from fractime.verify import run_suite

    with pytest.raises(ConfigError):
        run_suite("nope")
