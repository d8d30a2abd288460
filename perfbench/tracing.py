"""Spans around fractime's public functions, installed from the benchmark.

Each wrapped function is replaced in every module namespace that bound it
(``from .laplace import invert`` in two modules means two bindings), and
each model class's kernel methods are replaced on the class.  A span
records its name, start, end, parent span and op id; a function's self
time is its span minus its child spans.  Layer metrics sum self times, so
a layer's number excludes the time its callees spend in other layers.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import time
from array import array
from collections import defaultdict

LAYER_FUNCTIONS = {
    "laplace": ("talbot_invert", "gaver_stehfest_invert", "invert", "invert_on_grid"),
    "subordinate": ("subordinated_transform", "subordinated_value", "subordinated_curve",
                    "stable_closed_form", "stable_quadrature", "double_transform_residual"),
    "special": ("wright", "mittag_leffler", "inverse_stable_density"),
    "asymptotics": ("cesaro_mean", "cesaro_curve", "fit_rate", "verify_class"),
    "relaxation": ("solve_relaxation", "residual_check"),
    "montecarlo": ("estimate_ue", "sample_stable", "sample_inverse_stable", "first_passage"),
}
MODEL_CLASSES = ("StableSubordinator", "TwoStableSubordinator",
                 "DistributedOrderSubordinator", "ParametricLogSubordinator")
MODEL_METHODS = ("kernel_transform", "kernel", "kernel_integral", "kernel_conv_power")
MC_CHUNK = 4096  # montecarlo's fixed chunk size

PER_LAYER = (
    ("laplace.inversions", "count"),
    ("laplace.transform_evals", "count"),
    ("laplace.evals_per_inversion", "count"),
    ("laplace.self_s", "s"),
    ("models.kernel_transform_calls", "count"),
    ("models.kernel_transform_self_s", "s"),
    ("models.kernel_time_domain_s", "s"),
    ("subordinate.transform_calls", "count"),
    ("subordinate.transform_self_s", "s"),
    ("subordinate.quadrature_points", "count"),
    ("subordinate.quadrature_self_s", "s"),
    ("subordinate.density_evals_per_point", "count"),
    ("subordinate.double_transform_self_s", "s"),
    ("special.wright_calls", "count"),
    ("special.wright_distinct_args", "count"),
    ("special.wright_repeat_share", "ratio"),
    ("special.wright_self_s", "s"),
    ("special.ml_calls", "count"),
    ("special.ml_contour_calls", "count"),
    ("special.ml_self_s", "s"),
    ("asymptotics.curve_self_s", "s"),
    ("asymptotics.fit_calls", "count"),
    ("asymptotics.fit_self_s", "s"),
    ("asymptotics.verdicts_failed", "count"),
    ("relaxation.steps", "count"),
    ("relaxation.solve_self_s", "s"),
    ("relaxation.residual_self_s", "s"),
    ("montecarlo.paths", "count"),
    ("montecarlo.chunks", "count"),
    ("montecarlo.sample_stable_calls", "count"),
    ("montecarlo.estimate_self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span store plus per-function call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.counters = defaultdict(int)
        self.wright_args = set()
        self._stack: list[list] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            idx = len(starts)
            frame = [0.0]
            names.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ops.append(self.op)
            stack.append((frame, idx))
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                dur = end - start
                self_s[nid] += dur - frame[0]
                calls[nid] += 1
                if stack:
                    stack[-1][0][0] += dur

        return wrapper

    # -- hooks: counts taken from arguments at the layer boundary ----------
    def _count_transform(self, args, kwargs):
        counters = self.counters
        transform = args[0] if args else kwargs.pop("transform")

        def counted(lam):
            counters["laplace.transform_evals"] += getattr(lam, "size", 1)
            return transform(lam)

        return (counted,) + tuple(args[1:]), kwargs

    def _wright_hook(self, args, kwargs):
        self.wright_args.add(tuple(args) + tuple(sorted(kwargs.items())))
        return args, kwargs

    def _ml_hook(self, regime_cls):
        default = regime_cls()

        def hook(args, kwargs):
            alpha, x = float(args[0]), float(args[1] if len(args) > 1 else kwargs["x"])
            regime = (args[2] if len(args) > 2 else kwargs.get("regime")) or default
            if ml_uses_contour(alpha, x, regime):
                self.counters["special.ml_contour_calls"] += 1
            return args, kwargs

        return hook

    def _relax_hook(self, args, kwargs):
        prob = args[0] if args else kwargs["prob"]
        self.counters["relaxation.steps"] += int(round(prob.horizon / prob.h))
        return args, kwargs

    def _mc_hook(self, args, kwargs):
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        self.counters["montecarlo.paths"] += cfg.n_paths
        self.counters["montecarlo.chunks"] += -(-cfg.n_paths // MC_CHUNK)
        return args, kwargs

    def install(self, ft) -> None:
        """Wrap the public functions of every layer of the ``fractime`` package."""
        modules = [ft] + [importlib.import_module(f"{ft.__name__}.{info.name}")
                          for info in pkgutil.iter_modules(ft.__path__)]
        hooks = {
            "talbot_invert": self._count_transform,
            "gaver_stehfest_invert": self._count_transform,
            "wright": self._wright_hook,
            "mittag_leffler": self._ml_hook(ft.MLRegime),
            "solve_relaxation": self._relax_hook,
            "estimate_ue": self._mc_hook,
        }
        for layer, functions in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"{ft.__name__}.{layer}")
            for fname in functions:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", orig, hooks.get(fname))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapped)
        for cname in MODEL_CLASSES:
            cls = getattr(ft.models, cname)
            for meth in MODEL_METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, self.wrap(f"models.{cname}.{meth}", vars(cls)[meth]))

    # -- results ------------------------------------------------------------
    def function_table(self) -> list:
        """(name, calls, self seconds) per wrapped function that was called."""
        return [(n, c, s) for n, c, s in zip(self.names, self.calls, self.self_s) if c]

    def metrics(self, verdicts_failed: int, overhead_s: float) -> dict:
        calls = dict(zip(self.names, self.calls))
        self_s = dict(zip(self.names, self.self_s))

        def prefixed(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        def per_method(table, *methods):
            return sum(v for k, v in table.items()
                       if k.startswith("models.") and k.rsplit(".", 1)[1] in methods)

        inversions = calls.get("laplace.talbot_invert", 0) + calls.get(
            "laplace.gaver_stehfest_invert", 0)
        evals = self.counters["laplace.transform_evals"]
        points = calls.get("subordinate.stable_quadrature", 0)
        wright_calls = calls.get("special.wright", 0)
        values = {
            "laplace.inversions": inversions,
            "laplace.transform_evals": evals,
            "laplace.evals_per_inversion": evals / inversions if inversions else 0.0,
            "laplace.self_s": prefixed(self_s, "laplace."),
            "models.kernel_transform_calls": per_method(calls, "kernel_transform"),
            "models.kernel_transform_self_s": per_method(self_s, "kernel_transform"),
            "models.kernel_time_domain_s": per_method(
                self_s, "kernel", "kernel_integral", "kernel_conv_power"),
            "subordinate.transform_calls": calls.get("subordinate.subordinated_transform", 0),
            "subordinate.transform_self_s": self_s.get("subordinate.subordinated_transform", 0.0),
            "subordinate.quadrature_points": points,
            "subordinate.quadrature_self_s": self_s.get("subordinate.stable_quadrature", 0.0),
            "subordinate.density_evals_per_point": (
                calls.get("special.inverse_stable_density", 0) / points if points else 0.0),
            "subordinate.double_transform_self_s": self_s.get(
                "subordinate.double_transform_residual", 0.0),
            "special.wright_calls": wright_calls,
            "special.wright_distinct_args": len(self.wright_args),
            "special.wright_repeat_share": (
                1.0 - len(self.wright_args) / wright_calls if wright_calls else 0.0),
            "special.wright_self_s": self_s.get("special.wright", 0.0),
            "special.ml_calls": calls.get("special.mittag_leffler", 0),
            "special.ml_contour_calls": self.counters["special.ml_contour_calls"],
            "special.ml_self_s": self_s.get("special.mittag_leffler", 0.0),
            "asymptotics.curve_self_s": (self_s.get("asymptotics.cesaro_curve", 0.0)
                                         + self_s.get("asymptotics.cesaro_mean", 0.0)),
            "asymptotics.fit_calls": calls.get("asymptotics.fit_rate", 0),
            "asymptotics.fit_self_s": self_s.get("asymptotics.fit_rate", 0.0),
            "asymptotics.verdicts_failed": verdicts_failed,
            "relaxation.steps": self.counters["relaxation.steps"],
            "relaxation.solve_self_s": self_s.get("relaxation.solve_relaxation", 0.0),
            "relaxation.residual_self_s": self_s.get("relaxation.residual_check", 0.0),
            "montecarlo.paths": self.counters["montecarlo.paths"],
            "montecarlo.chunks": self.counters["montecarlo.chunks"],
            "montecarlo.sample_stable_calls": calls.get("montecarlo.sample_stable", 0),
            "montecarlo.estimate_self_s": prefixed(self_s, "montecarlo."),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def ml_uses_contour(alpha: float, x: float, regime) -> bool:
    """Whether mittag_leffler(alpha, x, regime) takes its Talbot contour band.

    Mirrors the routing rule documented in ``fractime.special.mittag_leffler``:
    series up to ``series_radius`` unless cancellation would need elevated
    precision past a peak term index of 300, the tail expansion from
    ``asymptotic_threshold`` on, the contour in between.
    """
    if x == 0.0 or alpha == 1.0 or x >= regime.asymptotic_threshold:
        return False
    if x > regime.series_radius:
        return True
    if x <= 1.0:
        return False
    n_peak = max(1, int(round(x ** (1.0 / alpha) / alpha)))
    digits_lost = max((n * math.log(x) - math.lgamma(alpha * n + 1.0)) / math.log(10.0)
                      for n in {max(1, n_peak // 2), n_peak, 2 * n_peak})
    return digits_lost > 2.5 and n_peak > 300
