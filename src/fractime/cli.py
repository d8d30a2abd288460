"""Command-line front end.

Subcommands evaluate curves, run verification suites, and write
machine-readable CSV/JSON.  Every output embeds a run manifest; equal
manifests reproduce byte-identical numeric sections (Monte Carlo included,
through the seed).

Exit codes: 0 success, 1 usage error (refused arguments included), 2
numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .asymptotics import cesaro_curve, cesaro_mean, fit_rate
from .errors import (
    ConfigError,
    DomainError,
    FractimeError,
    UnsupportedDynamicError,
    UnsupportedModelError,
)
from .grids import GridFunction, log_grid
from .laplace import InversionConfig, gaver_stehfest_config, invert
from .models import model_from_config, parse_dynamic
from .montecarlo import McConfig, estimate_ue
from .relaxation import RelaxationProblem, residual_check, solve_relaxation
from .special import mittag_leffler, wright
from .subordinate import subordinated_curve, subordinated_value
from .verify import SUITES, run_suite

USAGE_ERROR, NUMERICAL_ERROR, VERIFICATION_ERROR = 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Shared flag handling
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--model", default="stable",
                   choices=["stable", "two-stable", "distributed-order", "c3"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--scale", type=float, default=None)


def _add_method_flags(p):
    p.add_argument("--method", choices=["talbot", "gs"], default="talbot")


def _add_json_flag(p):
    p.add_argument("--json", action="store_true", help="print a JSON summary")


def _add_output_flags(p):
    p.add_argument("--out", default=None, help="write a CSV table to this path")
    _add_json_flag(p)


def _model_from_args(args):
    cfg = {"class": args.model}
    for key in ("alpha", "beta", "s", "scale"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return model_from_config(cfg)


def _inversion_config(args) -> InversionConfig:
    return gaver_stehfest_config() if args.method == "gs" else InversionConfig()


def _grid_from_args(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        return log_grid(float(lo), float(hi), int(n))
    except (ValueError, FractimeError) as exc:
        raise _UsageError(f"bad --grid {text!r} (expected min:max:points): {exc}") from exc


def _manifest(args, command, extra=None):
    manifest = {
        "command": command,
        "version": __version__,
    }
    for key in ("model", "alpha", "beta", "s", "scale", "dynamic", "grid", "t",
                "method", "seed", "paths", "workers", "a", "h", "horizon",
                "suite", "x", "mu", "nu", "z"):
        val = getattr(args, key, None)
        if val is not None:
            manifest[key] = val
    if extra:
        manifest.update(extra)
    return manifest


def _write_csv(path, manifest, grid: GridFunction, errors=None):
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(manifest):
            fh.write(f"# {key} = {manifest[key]}\n")
        fh.write("t,value" + (",std_error\n" if errors is not None else "\n"))
        for i, (t, v) in enumerate(zip(grid.abscissae, grid.values)):
            row = f"{float(t)!r},{float(v)!r}"
            if errors is not None:
                row += f",{float(errors[i])!r}"
            fh.write(row + "\n")


def _emit(args, manifest, results, fit=None):
    if args.json:
        payload = {"command": manifest["command"], "manifest": manifest, "results": results}
        if fit is not None:
            payload["fit"] = fit
        print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _special_value(args, command, fn, *params):
    """Print fn(*params); a DomainError is fn refusing its arguments, a usage error."""
    try:
        value = fn(*params)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
    if args.json:
        _emit(args, _manifest(args, command), {"value": value})
    else:
        print(repr(value))
    return 0


def _cmd_ml(args):
    return _special_value(args, "ml", mittag_leffler, args.alpha, args.x)


def _cmd_wright(args):
    return _special_value(args, "wright", wright, args.mu, args.nu, args.z)


_TEST_TRANSFORMS = {
    "unit": (lambda l: 1.0 / l, "inverse is 1"),
    "ramp": (lambda l: 1.0 / l ** 2, "inverse is t"),
    "square": (lambda l: 2.0 / l ** 3, "inverse is t^2"),
}


def _cmd_invert(args):
    name = args.transform
    if name.startswith("decay:"):
        try:
            transform = parse_dynamic("exp:" + name.removeprefix("decay:")).transform
        except ConfigError as exc:
            raise _UsageError(f"bad --transform {name!r}: the decay rate must be a positive "
                              "finite number") from exc
    elif name in _TEST_TRANSFORMS:
        transform = _TEST_TRANSFORMS[name][0]
    else:
        raise _UsageError(f"unknown --transform {name!r}")
    value = invert(transform, args.t, _inversion_config(args))
    manifest = _manifest(args, "invert", {"transform": name})
    if args.json:
        _emit(args, manifest, {"t": args.t, "value": value})
    else:
        print(repr(value))
    return 0


def _curve_command(args, name, curve_fn, point_fn):
    if args.fit and args.grid is None:
        raise _UsageError("--fit needs --grid")
    model = _model_from_args(args)
    dynamic = parse_dynamic(args.dynamic)
    cfg = _inversion_config(args)
    manifest = _manifest(args, name)
    if args.grid is not None:
        grid = _grid_from_args(args.grid)
        samples = curve_fn(model, dynamic, grid, cfg)
        if args.out:
            _write_csv(args.out, manifest, samples)
        results = {"t": samples.abscissae.tolist(), "value": samples.values.tolist()}
        fit = None
        if args.fit:
            fit = fit_rate(samples).describe()
        _emit(args, manifest, results, fit)
        if not args.json and not args.out:
            for t, v in zip(samples.abscissae, samples.values):
                print(f"{float(t)!r},{float(v)!r}")
    else:
        value = point_fn(model, dynamic, args.t, cfg)
        _emit(args, manifest, {"t": args.t, "value": value})
        if not args.json:
            print(repr(value))
    return 0


def _cmd_subordinate(args):
    def curve(model, dynamic, grid, cfg):
        return subordinated_curve(model, dynamic, grid, cfg).samples
    return _curve_command(args, "subordinate", curve, subordinated_value)


def _cmd_cesaro(args):
    return _curve_command(args, "cesaro", cesaro_curve, cesaro_mean)


def _cmd_gfde(args):
    model = _model_from_args(args)
    problem = RelaxationProblem(model, a=args.a, u0=args.u0, h=args.h, horizon=args.horizon)
    solution = solve_relaxation(problem)
    defect = residual_check(solution, problem)
    manifest = _manifest(args, "gfde", {"u0": args.u0})
    if args.out:
        _write_csv(args.out, manifest, solution)
    _emit(args, manifest, {"max_defect": defect, "points": len(solution)})
    if not args.json:
        print(f"solved {len(solution)} points, max defect {defect:.3e}")
    return 0


def _cmd_mc(args):
    model = _model_from_args(args)
    dynamic = parse_dynamic(args.dynamic)
    cfg = McConfig(n_paths=args.paths, seed=args.seed, workers=args.workers)
    est = estimate_ue(model, dynamic, args.t, cfg)
    manifest = _manifest(args, "mc")
    if args.out:
        table = GridFunction(np.array([args.t]), np.array([est.mean]))
        _write_csv(args.out, manifest, table, errors=[est.std_error])
    _emit(args, manifest, asdict(est))
    if not args.json:
        print(f"{est.mean!r} +- {est.std_error!r} (n={est.n})")
    return 0


def _cmd_verify(args):
    results = run_suite(args.suite)
    for result in results:
        print(result.report())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return VERIFICATION_ERROR if failed else 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="fractime", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fractime {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ml", help="evaluate the relaxation function E_a(-x)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_ml)

    p = sub.add_parser("wright", help="evaluate the Wright function W_{mu,nu}(z)")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_wright)

    p = sub.add_parser("invert", help="invert a built-in test transform")
    p.add_argument("--transform", default="unit",
                   help="unit | ramp | square | decay:<rate>")
    p.add_argument("--t", type=float, required=True)
    _add_method_flags(p)
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_invert)

    for name, help_text in (
        ("subordinate", "evaluate the time-changed curve u^E"),
        ("cesaro", "evaluate the running mean of u^E"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_model_flags(p)
        p.add_argument("--dynamic", required=True, help="mono:<n> or exp:<a>")
        at = p.add_mutually_exclusive_group(required=True)
        at.add_argument("--t", type=float)
        at.add_argument("--grid", help="min:max:points (log-spaced)")
        p.add_argument("--fit", action="store_true", help="fit C t^p (log t)^q on the grid")
        _add_method_flags(p)
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_subordinate if name == "subordinate" else _cmd_cesaro)

    p = sub.add_parser("gfde", help="solve the kernel relaxation equation")
    _add_model_flags(p)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=5.0)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_gfde)

    p = sub.add_parser("mc", help="Monte Carlo estimate of u^E(t)")
    _add_model_flags(p)
    p.add_argument("--dynamic", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=sorted(SUITES))
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ConfigError, UnsupportedModelError, UnsupportedDynamicError) as exc:
        # invalid parameter values and models or dynamics a command does not
        # take are invocation problems, not math failures
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FractimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
