"""Monte Carlo oracle for the time-changed dynamics.

Samples the subordinator and its inverse, estimating u^E(t) = E[u(E(t))]
with standard errors.  Every model that states stable terms, l K(l) =
sum_i w_i l^(a_i), is a sum of independent stables, and its E(t) is drawn
exactly, with no time steps: one term gives E(t) = (t/S(1))^a / w in law,
and several give the root in s of sum_i (w_i s)^(1/a_i) A_i = t with A_i
one unit stable draw per term (that curve is increasing and has the
one-dimensional laws of S(s), so P(root > s) = P(S(s) <= t) = P(E(t) > s)),
found by Newton in log s on a log-sum-exp whose shift is fixed before the
loop, its exponents clamped at log(tiny) (see _stable_sum_passage).
Stable variates are drawn in logs, so small indices whose S(1) leaves the
doubles stay finite.  The distributed-order model states 16 terms, its
order integral by Gauss-Legendre; a model that states none cannot be
drawn.  No estimate calls an inverter.  Streams are counter-based per
fixed-size chunk and reduced in chunk order, so results are bit-identical
for a given (seed, n_paths) at any thread count (`McConfig.workers`,
capped by the chunk and CPU counts).
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

_CHUNK = 4096          # fixed chunk size; part of the reproducibility contract


@dataclass(frozen=True)
class McConfig:
    """Paths, seed and worker threads.  Extra workers pay off where a chunk is
    long numpy work.  Two against one on 2 shared cores: distributed-order
    (4e4 paths) 52 against 82 ms, two-stable (1e5 paths) 27-32 against 30-40
    ms, one stable index (1e5 paths) 8.6-9.2 against 8.8 ms, no gain."""

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


def _stable_sum_passage(terms: tuple, t: float, rng, n: int) -> np.ndarray:
    """n exact draws of E(t) for S a sum of independent stables with exponent sum_i w_i l^(a_i).

    The term (a, w) is (w s)^(1/a) A at time s, A a unit stable draw.  One
    term draws (t/S(1))^a / w.  Several draw log A_i for each term in order,
    fold the weight in as log A_i + log(w_i)/a_i, and solve
    g(x) = log sum_i exp(x/a_i + log A_i - log t) = 0 in x = log s by
    Newton from the smallest single-term root min_i a_i (log t - log A_i).
    g is convex and increasing, so the iterates fall monotonically onto the
    root and stay left of every term's own root: each exponent is <= 0 and
    the exps sum to at least 1, so the shift log A_i - log t is fixed before
    the loop, with no running max.  Exponents are clamped at log(tiny),
    which keeps exp off its slow subnormal path and cannot move a sum >= 1.
    A term with A_i = 0 drops out; A_i = inf puts the root at s = 0.
    """
    if len(terms) == 1:
        (alpha, weight), = terms
        return sample_inverse_stable(alpha, t, rng, n) / weight
    alphas = np.array([a for a, _ in terms])
    log_a = np.stack([_log_stable_unit(a, *_stable_variates(rng, n)) + math.log(w) / a
                      for a, w in terms])
    log_t = math.log(t)
    x = np.min(alphas[:, None] * (log_t - log_a), axis=0)
    live = np.flatnonzero(np.isfinite(x))
    xs, shifted = x[live], log_a[:, live] - log_t
    z = np.empty_like(shifted)
    rows = np.stack([np.ones_like(alphas), 1.0 / alphas])   # g's sum and slope in one product
    finishing = False
    for _ in range(_NEWTON_CAP):
        np.add(np.multiply.outer(rows[1], xs, out=z), shifted, out=z)
        np.exp(np.maximum(z, _LOG_TINY, out=z), out=z)
        total, slope = rows @ z
        dx = np.log(total) * total / slope
        xs -= dx
        if finishing:
            x[live] = xs
            return np.exp(x)
        finishing = bool(np.all(np.abs(dx) <= _NEWTON_TOL * np.maximum(1.0, np.abs(xs))))
    raise ConvergenceError("stable-sum passage root did not converge")


def _check_level(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"need a finite level t >= 0, got {t!r}")


def _passage_sampler(model: SubordinatorModel, t: float):
    """draw(rng, n): n exact draws of E(t) from the model's stable terms.

    A model that states no stable terms raises UnsupportedModelError.
    """
    terms = model.stable_terms
    if not terms:
        raise UnsupportedModelError(
            f"{type(model).__name__} states no stable terms: Monte Carlo cannot draw it")
    return lambda rng, n: _stable_sum_passage(terms, t, rng, n)


def first_passage(
    model: SubordinatorModel,
    t: float,
    rng: np.random.Generator,
) -> float:
    """One exact draw of the inverse time E(t) = inf{s : S(s) > t}, with no time steps."""
    _check_level(t)
    if t == 0.0:
        return 0.0
    return float(_passage_sampler(model, t)(rng, 1)[0])


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

    Every draw of E(t) is exact, with no time steps: the root of the
    model's sum of stables at level t.  Estimates are reduced
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
    draw = _passage_sampler(model, t)

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
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_total), n=n_total, ess=ess)
