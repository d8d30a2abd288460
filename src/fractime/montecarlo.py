"""Monte Carlo oracle for the time-changed dynamics.

Samples the subordinator and its inverse, estimating u^E(t) = E[u(E(t))]
with standard errors.  Every model's E(t) is drawn with no time steps, and
what a model states decides how.  A sum of independent stables is drawn
exactly: one index gives E(t) = (t/S(1))^alpha in law, and several give
the root in s of sum_i s^(1/alpha_i) A_i = t with A_i one unit stable draw
per index (that curve is increasing and has the one-dimensional laws of
S(s), so P(root > s) = P(S(s) <= t) = P(E(t) > s)); stable variates are
drawn in logs, so small indices whose S(1) leaves the doubles stay finite.
Every other model is truncated to drift plus compound Poisson, built from
its tail kernel with the jumps below a cutoff folded into the drift, and
each path's first passage above t is found exactly from its events: at the
jump that carries the level past t, or on the linear stretch before it.
The truncated process has the exact exponent l K(l) - I_c(l), with I_c the
model's small-jump exponent, so its u_E(t) is one more inversion: the
cutoff follows the level, the largest on a halving ladder from 1e-2 t whose
computed bias is at most 1e-6 of |u_E(t)| (a model that states no I_c
cannot be simulated).  Streams are counter-based per fixed-size chunk and
reduced in chunk order, so results are bit-identical for a given
(seed, n_paths) at any thread count (`McConfig.workers`, capped by the
chunk and CPU counts).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, UnsupportedDynamicError, UnsupportedModelError
from .models import Dynamic, Exponential, Monomial, SubordinatorModel
from .subordinate import subordinated_value

_CHUNK = 4096          # fixed chunk size; part of the reproducibility contract


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name in ("n_paths", "seed", "workers"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_paths < 100:
            raise ConfigError("n_paths must be at least 100")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ConfigError("workers must be positive")


# below this Kish effective sample size a mean rests on a handful of draws
_MIN_ESS = 10.0


@dataclass(frozen=True)
class McEstimate:
    """Mean of u(E(t)) over n paths, its standard error, and the effective
    sample size (sum v)^2 / sum v^2 of the values v = u(E(t)) behind it.

    A compound-Poisson model simulates its process with the jumps below
    ``cutoff`` folded into drift; ``bias`` is u_E(t) of that process minus
    u_E(t), both from inversion.  Exact draws have cutoff and bias 0.
    """

    mean: float
    std_error: float
    n: int
    ess: float
    cutoff: float = 0.0
    bias: float = 0.0


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based substream for one chunk; independent of worker count."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


def _stable_variates(rng: np.random.Generator, size):
    """The uniform angle on (0, pi) and unit exponential behind one stable draw."""
    return rng.uniform(0.0, np.pi, size), rng.exponential(1.0, size)


def _log_stable_unit(alpha: float, u, w):
    """log S(1) for index alpha from its variates (Kanter's construction).

    Taken in logs, so that small indices, whose S(1) over- or underflows a
    double, keep a finite value.
    """
    with np.errstate(divide="ignore"):
        return (np.log(np.sin(alpha * u)) - np.log(np.sin(u)) / alpha
                + (1.0 - alpha) / alpha * (np.log(np.sin((1.0 - alpha) * u)) - np.log(w)))


_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max   # the normal doubles
_LOG_TINY, _LOG_HUGE = math.log(_TINY), math.log(_HUGE)


def _check_stable(alpha: float, t: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"stable index must lie in (0,1), got {alpha}")
    if not (0.0 < t < math.inf):
        raise ConfigError(f"need a finite t > 0, got {t!r}")
    return alpha


def sample_stable(alpha: float, t: float, rng: np.random.Generator, size=None):
    """Draw S(t) for the stable subordinator normalized by E[e^{-l S(t)}] = e^{-t l^a}.

    Uses the exact trigonometric construction (uniform angle + unit
    exponential), rejection-free, with S(t) = t^(1/a) S(1) by self-similarity.
    S(1) is formed in logs; where t^(1/a) and S(1) both fit a double the
    draw is their product, and elsewhere exp(log t / a + log S(1)), which
    takes its 0 or inf limit only where the value itself does not fit.
    """
    alpha = _check_stable(alpha, t)
    log_unit = _log_stable_unit(alpha, *_stable_variates(rng, size))
    with np.errstate(over="ignore", under="ignore"):
        logs = np.exp(math.log(t) / alpha + log_unit)
        scale = np.float64(t) ** (1.0 / alpha)
        if not _TINY <= scale <= _HUGE:
            return logs
        fits = (_LOG_TINY < log_unit) & (log_unit < _LOG_HUGE)
        return np.where(fits, scale * np.exp(log_unit), logs)[()]


def sample_inverse_stable(alpha: float, t: float, rng: np.random.Generator, size=None):
    """Draw E(t) = inf{s : S(s) > t} for the stable model: (t / S(1))^alpha in law.

    Taken in logs, exp(alpha (log t - log S(1))), from the same variates in
    the same order as sample_stable.
    """
    alpha = _check_stable(alpha, t)
    log_unit = _log_stable_unit(alpha, *_stable_variates(rng, size))
    with np.errstate(over="ignore"):
        return np.exp(alpha * (math.log(t) - log_unit))


_NEWTON_TOL = 1e-10    # relative |dx| after which one more Newton step is taken
_NEWTON_CAP = 100


def _stable_sum_passage(indices: tuple, t: float, rng, n: int) -> np.ndarray:
    """n exact draws of E(t) for S a sum of independent stables of the given indices.

    One index draws (t/S(1))^alpha.  Several draw log A_i for each index in
    order and solve g(x) = log sum_i exp(x/alpha_i + log A_i) - log t = 0 in
    x = log s by Newton.  g is convex and increasing, and the smallest
    single-term root min_i alpha_i (log t - log A_i) lies above the root, so
    the iterates fall monotonically onto it.  A term with A_i = 0 drops out;
    A_i = inf puts the root at s = 0.
    """
    if len(indices) == 1:
        return sample_inverse_stable(indices[0], t, rng, n)
    alphas = np.asarray(indices, dtype=float)[:, None]
    log_a = np.stack([_log_stable_unit(a, *_stable_variates(rng, n)) for a in indices])
    log_t = math.log(t)
    x = np.min(alphas * (log_t - log_a), axis=0)
    live = np.flatnonzero(np.isfinite(x))
    xs, la = x[live], log_a[:, live]
    finishing = False
    for _ in range(_NEWTON_CAP):
        z = xs / alphas + la
        top = z.max(axis=0)
        e = np.exp(z - top)
        total = e.sum(axis=0)
        dx = (top + np.log(total) - log_t) * total / (e / alphas).sum(axis=0)
        xs -= dx
        if finishing:
            x[live] = xs
            return np.exp(x)
        finishing = bool(np.all(np.abs(dx) <= _NEWTON_TOL * np.maximum(1.0, np.abs(xs))))
    raise ConvergenceError("stable-sum passage root did not converge")


# ---------------------------------------------------------------------------
# Compound-Poisson first passage
# ---------------------------------------------------------------------------

# Small-jump truncation, the one approximation of compound-Poisson models:
# jumps below the cutoff become drift.  The cutoff follows the level: the
# largest rung of a halving ladder from _CUTOFF_TOP * t whose computed bias is
# at most _BIAS_TOL of |u_E(t)|.  At the top rung |l| c <= 4 on the Talbot
# contour, where the small-jump series needs no more than about 40 terms.
_BIAS_TOL = 1e-6
_CUTOFF_TOP = 1e-2
_CUTOFF_RUNGS = 60     # rungs tried before ConvergenceError: down to about 1e-20 t
_JUMP_NODES = 4096     # inverse-survival table, uniform in log u
_EVENT_BLOCK = 1 << 14  # events drawn per pass, shared among the paths still below t
_EVENT_CAP = 1 << 20   # events one path may take before its passage counts as lost


class _CompoundPoisson:
    """Drift plus compound Poisson above the cutoff: the model's truncated subordinator.

    Jumps above the cutoff arrive at rate k(cutoff) and have survival
    function k(x)/k(cutoff) (k is the Levy tail itself).  Its inverse is
    tabulated once on nodes uniform in log u, interpolated from a log-log
    table of k, so a jump size is one index and one linear interpolation.
    Jumps beyond the table cap are clamped to the cap, which is harmless
    for first passage as long as the cap exceeds the passage level.
    """

    def __init__(self, model: SubordinatorModel, cutoff: float, cap: float):
        self.rate = float(model.kernel(cutoff))
        # mean of the removed small jumps per unit time: integral of tau dsigma
        # over (0, cutoff], by parts = K1(cutoff) - cutoff k(cutoff)
        drift = float(model.kernel_integral(cutoff)) - cutoff * self.rate
        if not (0.0 < self.rate < math.inf and math.isfinite(drift)):
            raise UnsupportedModelError(
                f"kernel gives jump rate {self.rate!r} and drift {drift!r} at cutoff "
                f"{cutoff!r}; need a finite rate > 0 and a finite drift")
        self.drift = max(0.0, drift)    # k is nonincreasing: only rounding makes it < 0
        xs = np.geomspace(cutoff, cap, 800)
        # survival is strictly decreasing; reversed, log u increases to 0
        log_u = np.log(np.asarray(model.kernel(xs)) / self.rate)[::-1]
        self._depth = -float(log_u[0])       # -log survival(cap)
        self._log_x = np.interp(np.linspace(log_u[0], 0.0, _JUMP_NODES), log_u,
                                np.log(xs[::-1]))
        self._slope = np.diff(self._log_x)
        self._per_node = (_JUMP_NODES - 1) / self._depth

    def jump_sizes(self, e: np.ndarray) -> np.ndarray:
        """Jump sizes at survival levels u = exp(-e); e >= depth gives the cap."""
        pos = self._depth - e
        np.maximum(pos, 0.0, out=pos)
        pos *= self._per_node
        i = pos.astype(np.intp)
        np.minimum(i, _JUMP_NODES - 2, out=i)
        pos -= i
        pos *= self._slope[i]
        pos += self._log_x[i]
        return np.exp(pos, out=pos)


def _passage_in_block(t: float, drift: float, time, level, waits, sizes):
    """Carry paths at (time, level) <= t through one block of events, a column per path.

    Between events the level rises at the drift; event j comes waits[j]
    after the one before and adds sizes[j].  The first event whose
    post-jump level exceeds t fixes the passage: on the linear stretch
    before it when the drift alone carries the level past t there, else at
    the event.  Returns the columns that pass, their passage times, and
    every column's time and level after its last event.
    """
    b, m = waits.shape
    levels = np.empty((b + 1, m))
    levels[0] = level
    np.multiply(waits, drift, out=levels[1:])
    levels[1:] += sizes
    np.cumsum(levels, axis=0, out=levels)
    # levels never fall along a column, so the events at or below t come first
    below = levels[1:] <= t
    first = np.count_nonzero(below, axis=0)
    start = time + (waits * below).sum(axis=0)    # time of the last event at or below t
    cols = np.flatnonzero(first < b)
    k = first[cols]
    before, wait = levels[k, cols], waits[k, cols]
    passage = start[cols] + wait
    # before <= t, so with no drift the stretch never passes t and nothing divides by 0
    linear = before + drift * wait > t
    passage[linear] = start[cols[linear]] + (t - before[linear]) / drift
    return cols, passage, start, levels[-1]


def _compound_poisson_passage(process: _CompoundPoisson, t: float, rng, n: int) -> np.ndarray:
    """n exact first-passage times above t of the truncated process.

    Paths below t draw their next events a block at a time, about
    _EVENT_BLOCK events per pass in all, so memory stays bounded whatever t
    and the event rate are.  A path needing more than _EVENT_CAP events
    raises ConvergenceError.
    """
    out = np.empty(n)
    alive = np.arange(n)
    time = np.zeros(n)
    level = np.zeros(n)
    events = 0
    while alive.size:
        m = alive.size
        b = max(1, _EVENT_BLOCK // m)
        events += b
        if events > _EVENT_CAP:
            raise ConvergenceError(
                f"first passage above t = {t!r} needs more than {_EVENT_CAP} jumps "
                f"at rate {process.rate:.4g}: the level is too high for the jump cutoff")
        waits = rng.standard_exponential((b, m))
        waits *= 1.0 / process.rate
        sizes = process.jump_sizes(rng.standard_exponential((b, m)))
        cols, passage, time, level = _passage_in_block(t, process.drift, time, level,
                                                       waits, sizes)
        out[alive[cols]] = passage
        below = level <= t
        alive, time, level = alive[below], time[below], level[below]
    return out


def _check_level(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"need a finite level t >= 0, got {t!r}")


@dataclass(frozen=True)
class _Truncated(SubordinatorModel):
    """model with its jumps below cutoff folded into drift: kernel transform K - I_c / l."""

    model: SubordinatorModel
    cutoff: float

    def kernel_transform(self, lam):
        return (self.model.kernel_transform(lam)
                - self.model.small_jump_exponent(self.cutoff, lam) / lam)


def _jump_cutoff(model: SubordinatorModel, dynamic: Dynamic, t: float):
    """(cutoff, bias): the largest rung _CUTOFF_TOP t 2^-k whose bias
    u_E^c(t) - u_E(t), both by Talbot inversion, is at most _BIAS_TOL |u_E(t)|.

    A model that states no small-jump exponent raises UnsupportedModelError.
    """
    exact = subordinated_value(model, dynamic, t)
    cutoff = _CUTOFF_TOP * t
    for _ in range(_CUTOFF_RUNGS):
        bias = subordinated_value(_Truncated(model, cutoff), dynamic, t) - exact
        if abs(bias) <= _BIAS_TOL * abs(exact):
            return cutoff, bias
        cutoff *= 0.5
    raise ConvergenceError(f"no jump cutoff down to {cutoff:.3g} keeps the bias of "
                           f"u^E({t!r}) within {_BIAS_TOL:g} of its value")


def _passage_sampler(model: SubordinatorModel, dynamic: Dynamic, t: float):
    """(draw, cutoff, bias): draw(rng, n) gives n exact draws of E(t), of the
    truncated process for compound-Poisson models, whose cutoff keeps the
    bias for this dynamic within _BIAS_TOL."""
    indices = model.stable_indices
    if indices:
        return (lambda rng, n: _stable_sum_passage(indices, t, rng, n)), 0.0, 0.0
    cutoff, bias = _jump_cutoff(model, dynamic, t)
    process = _CompoundPoisson(model, cutoff, 2.0 * t + 1.0)
    return (lambda rng, n: _compound_poisson_passage(process, t, rng, n)), cutoff, bias


def first_passage(
    model: SubordinatorModel,
    t: float,
    rng: np.random.Generator,
) -> float:
    """One draw of the inverse time E(t) = inf{s : S(s) > t}, with no time steps.

    Sums of stables are drawn exactly; compound-Poisson models find the
    passage of their truncated process exactly, at a jump or between two,
    with the cutoff estimate_ue takes for u(t) = t.
    """
    _check_level(t)
    if t == 0.0:
        return 0.0
    draw, _, _ = _passage_sampler(model, Monomial(1), t)
    return float(draw(rng, 1)[0])


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def estimate_ue(
    model: SubordinatorModel,
    dynamic: Dynamic,
    t: float,
    cfg: McConfig,
) -> McEstimate:
    """Estimate u^E(t) = E[u(E(t))] with its standard error.

    Every draw of E(t) is exact, with no time steps: sums of stables solve
    for it directly, and compound-Poisson models find each path's passage
    from its events.  Their one approximation is the jump cutoff, chosen
    per (model, dynamic, t) so that its computed bias, reported with the
    estimate, is at most 1e-6 of |u_E(t)|.  Estimates are reduced
    chunk-by-chunk in a fixed order, so (seed, n_paths) pins the result
    bit-for-bit whatever the worker count.  A mean or standard
    error that is not finite raises ConvergenceError, and so does an
    effective sample size below 10: a rare-event expectation carried by a
    few draws has a standard error as unreliable as its mean.
    """
    _check_level(t)
    if t == 0.0:
        raise ConfigError("need t > 0")
    if not isinstance(dynamic, (Monomial, Exponential)):
        raise UnsupportedDynamicError(
            "Monte Carlo needs a time-domain dynamic (monomial/exponential)")
    draw, cutoff, bias = _passage_sampler(model, dynamic, t)

    n_chunks = (cfg.n_paths + _CHUNK - 1) // _CHUNK

    def run_chunk(c: int):
        n = min(_CHUNK, cfg.n_paths - c * _CHUNK)
        with np.errstate(over="ignore"):    # a non-finite estimate raises below
            vals = dynamic.value(draw(_chunk_rng(cfg.seed, c), n))
            return float(vals.sum()), float(np.dot(vals, vals)), n

    workers = min(cfg.workers, n_chunks, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # a lone worker runs here: one pool thread cost 1.5-2x (1e5 paths, 2 shared cores)
        chunks = (pool.map if workers > 1 else map)(run_chunk, range(n_chunks))
        sums, squares, counts = np.array(list(chunks)).T

    n_total = int(counts.sum())
    total = float(np.sum(sums))
    mean = total / n_total
    ssq = float(np.sum(squares))
    var = max(0.0, (ssq - n_total * mean * mean) / (n_total - 1))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ConvergenceError(f"Monte Carlo estimate of u^E({t!r}) is not finite: mean {mean!r}")
    ess = total * total / ssq if ssq > 0.0 else 0.0
    if not ess >= _MIN_ESS:
        raise ConvergenceError(
            f"Monte Carlo estimate of u^E({t!r}) rests on an effective sample of "
            f"{ess:.3g} of {n_total} paths (need {_MIN_ESS:g}): a rare-event expectation")
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_total), n=n_total, ess=ess,
                      cutoff=cutoff, bias=bias)
