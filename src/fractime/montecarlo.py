"""Monte Carlo oracle for the time-changed dynamics.

Samples the subordinator and its inverse, estimating u^E(t) = E[u(E(t))]
with standard errors.  Every model's E(t) is drawn with no time steps, and
what a model states decides how.  A sum of independent stables is drawn
exactly: one index gives E(t) = (t/S(1))^alpha in law, and several give the
root in s of sum_i s^(1/alpha_i) A_i = t with A_i one unit stable draw per
index (that curve is increasing and has the one-dimensional laws of S(s),
so P(root > s) = P(S(s) <= t) = P(E(t) > s)).  Every other model is
truncated to drift plus compound Poisson, built from its tail kernel with
the jumps below `McConfig.jump_cutoff` folded into the drift, and each
path's first passage above t is found exactly from its events: at the jump
that carries the level past t, or on the linear stretch before it (a model
without a time-domain kernel cannot be simulated).  Streams are
counter-based per fixed-size chunk, so results are bit-identical for a
given (seed, n_paths) no matter how many workers run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceError, UnsupportedDynamicError, UnsupportedModelError
from .models import Dynamic, Exponential, Monomial, SubordinatorModel

_CHUNK = 4096          # fixed chunk size; part of the reproducibility contract
_ENV_THREAD_CAP = "FRACTIME_THREADS"


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    seed: int = 0
    workers: int = 1
    # Small-jump truncation for compound-Poisson models, their one
    # approximation: jumps below the cutoff become drift.  At the default
    # 1e-4 and 1e5 paths, distributed-order mono:1 at t = 1e-3 reads
    # -3.9e-3 and -1.5e-3 relative to inversion (3.5 and 1.3 SE, seeds 1
    # and 2); for t = 1e-2, 0.1 and 1 it is within 1.5 SE.
    jump_cutoff: float = 1e-4

    def __post_init__(self):
        if self.n_paths < 100:
            raise ConfigError("n_paths must be at least 100")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        if not (0.0 < self.jump_cutoff < 1.0):
            raise ConfigError("jump_cutoff must lie in (0, 1)")


# below this Kish effective sample size a mean rests on a handful of draws
_MIN_ESS = 10.0


@dataclass(frozen=True)
class McEstimate:
    """Mean of u(E(t)) over n paths, its standard error, and the effective
    sample size (sum v)^2 / sum v^2 of the values v = u(E(t)) behind it."""

    mean: float
    std_error: float
    n: int
    ess: float


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based substream for one chunk; independent of worker count."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


def _stable_variates(rng: np.random.Generator, size):
    """The uniform angle on (0, pi) and unit exponential behind one stable draw."""
    return rng.uniform(0.0, np.pi, size), rng.exponential(1.0, size)


def _stable_unit(alpha: float, u, w):
    """S(1) for index alpha from its variates (Kanter's construction)."""
    return (
        np.sin(alpha * u)
        / np.sin(u) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def _log_stable_unit(alpha: float, u, w):
    """log S(1) for index alpha, from the same variates as _stable_unit.

    Taken in logs, so that small indices, whose S(1) over- or underflows a
    double (or turns NaN as inf * 0), keep a finite value.
    """
    with np.errstate(divide="ignore"):
        return (np.log(np.sin(alpha * u)) - np.log(np.sin(u)) / alpha
                + (1.0 - alpha) / alpha * (np.log(np.sin((1.0 - alpha) * u)) - np.log(w)))


def _check_stable(alpha: float, t: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"stable index must lie in (0,1), got {alpha}")
    if not t > 0.0:
        raise ConfigError("need t > 0")
    return alpha


def sample_stable(alpha: float, t: float, rng: np.random.Generator, size=None):
    """Draw S(t) for the stable subordinator normalized by E[e^{-l S(t)}] = e^{-t l^a}.

    Uses the exact trigonometric construction (uniform angle + unit
    exponential), rejection-free, with S(t) = t^(1/a) S(1) by self-similarity.
    Where that product comes out 0, inf or NaN (at small indices S(1) over-
    or underflows a double, or turns NaN as inf * 0), S(t) is recomputed in
    logs from the same variates and takes its 0 or inf limit only where the
    value itself does not fit a double.
    """
    alpha = _check_stable(alpha, t)
    u, w = _stable_variates(rng, size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draws = np.float64(t) ** (1.0 / alpha) * _stable_unit(alpha, u, w)
        if not (draws.min() > 0.0 and draws.max() < np.inf):    # NaN fails both
            lost = ~((draws > 0.0) & (draws < np.inf))
            logs = math.log(t) / alpha + _log_stable_unit(alpha, u, w)
            draws = np.where(lost, np.exp(logs), draws)[()]   # a scalar stays a scalar
    return draws


def sample_inverse_stable(alpha: float, t: float, rng: np.random.Generator, size=None):
    """Draw E(t) = inf{s : S(s) > t} for the stable model: (t / S(1))^alpha in law.

    Where that power comes out 0, inf or NaN (S(1) over- or underflows a
    double at small indices, or turns NaN as inf * 0), E(t) is recomputed
    in logs from the same variates.
    """
    alpha = _check_stable(alpha, t)
    u, w = _stable_variates(rng, size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draws = (t / _stable_unit(alpha, u, w)) ** alpha
        if not (draws.min() > 0.0 and draws.max() < np.inf):    # NaN fails both
            lost = ~((draws > 0.0) & (draws < np.inf))
            logs = alpha * (math.log(t) - _log_stable_unit(alpha, u, w))
            draws = np.where(lost, np.exp(logs), draws)[()]   # a scalar stays a scalar
    return draws


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
        self._log_x.flags.writeable = self._slope.flags.writeable = False   # shared via the cache
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


# models are immutable, so the process built for one (model, cutoff, cap) stays
# valid: repeated draws at one level skip the kernel table and its inverse
_compound_poisson = lru_cache(maxsize=8)(_CompoundPoisson)


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
                f"at rate {process.rate:.4g}; raise jump_cutoff")
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


def _passage_sampler(model: SubordinatorModel, t: float, cfg: McConfig):
    """draw(rng, n) -> n exact draws of E(t) (compound-Poisson models: of the truncated process)."""
    indices = model.stable_indices
    if indices:
        return lambda rng, n: _stable_sum_passage(indices, t, rng, n)
    process = _compound_poisson(model, cfg.jump_cutoff, 2.0 * t + 1.0)
    return lambda rng, n: _compound_poisson_passage(process, t, rng, n)


def first_passage(
    model: SubordinatorModel,
    t: float,
    rng: np.random.Generator,
    cfg: McConfig | None = None,
) -> float:
    """One draw of the inverse time E(t) = inf{s : S(s) > t}, with no time steps.

    Sums of stables are drawn exactly; compound-Poisson models find the
    passage of their truncated process exactly, at a jump or between two.
    """
    _check_level(t)
    if t == 0.0:
        return 0.0
    draw = _passage_sampler(model, t, cfg or McConfig())
    return float(draw(rng, 1)[0])


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def _dynamic_values(dynamic: Dynamic, draws: np.ndarray) -> np.ndarray:
    if isinstance(dynamic, (Monomial, Exponential)):
        return np.asarray(dynamic.value(draws), dtype=float)
    raise UnsupportedDynamicError("Monte Carlo needs a time-domain dynamic (monomial/exponential)")


def _worker_cap(requested: int) -> int:
    cap = os.environ.get(_ENV_THREAD_CAP)
    if not cap:
        return max(1, requested)
    if not cap.strip().isdecimal() or int(cap) < 1:
        raise ConfigError(f"{_ENV_THREAD_CAP} must be a positive integer, got {cap!r}")
    return max(1, min(requested, int(cap)))


def estimate_ue(
    model: SubordinatorModel,
    dynamic: Dynamic,
    t: float,
    cfg: McConfig,
) -> McEstimate:
    """Estimate u^E(t) = E[u(E(t))] with its standard error.

    Every draw of E(t) is exact, with no time steps: sums of stables solve
    for it directly, and compound-Poisson models find each path's passage
    from its events (the one approximation is `cfg.jump_cutoff`).  Estimates
    are reduced chunk-by-chunk in a fixed order, so (seed, n_paths) pins
    the result bit-for-bit whatever the worker count.  A mean or standard
    error that is not finite raises ConvergenceError, and so does an
    effective sample size below 10: a rare-event expectation carried by a
    few draws has a standard error as unreliable as its mean.
    """
    _check_level(t)
    if t == 0.0:
        raise ConfigError("need t > 0")
    draw = _passage_sampler(model, t, cfg)

    n_chunks = (cfg.n_paths + _CHUNK - 1) // _CHUNK

    def run_chunk(c: int):
        n = min(_CHUNK, cfg.n_paths - c * _CHUNK)
        vals = _dynamic_values(dynamic, draw(_chunk_rng(cfg.seed, c), n))
        return float(vals.sum()), float(np.dot(vals, vals)), n

    workers = _worker_cap(cfg.workers)
    sums = np.zeros(n_chunks)
    squares = np.zeros(n_chunks)
    counts = np.zeros(n_chunks, dtype=int)
    if workers == 1 or n_chunks == 1:
        results = map(run_chunk, range(n_chunks))
        for c, (s, q, n) in enumerate(results):
            sums[c], squares[c], counts[c] = s, q, n
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for c, (s, q, n) in enumerate(pool.map(run_chunk, range(n_chunks))):
                sums[c], squares[c], counts[c] = s, q, n

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
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_total), n=n_total, ess=ess)
