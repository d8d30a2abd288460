"""Monte Carlo oracle for the time-changed dynamics.

Samples the subordinator and its inverse, estimating u^E(t) = E[u(E(t))]
with standard errors.  What a model states decides the sampler.  A sum of
independent stables is drawn exactly, with no time steps: one index gives
E(t) = (t/S(1))^alpha in law, and several give the root in s of
sum_i s^(1/alpha_i) A_i = t with A_i one unit stable draw per index (that
curve is increasing and has the one-dimensional laws of S(s), so
P(root > s) = P(S(s) <= t) = P(E(t) > s)).  Every other model simulates
compound-Poisson paths built from its tail kernel and records the first
passage above the level t (a model without a time-domain kernel cannot be
simulated).  Streams are counter-based per fixed-size chunk, so results
are bit-identical for a given (seed, n_paths) no matter how many workers
run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, UnsupportedDynamicError
from .models import Dynamic, Exponential, Monomial, SubordinatorModel

_CHUNK = 4096          # fixed chunk size; part of the reproducibility contract
_ENV_THREAD_CAP = "FRACTIME_THREADS"


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    seed: int = 0
    workers: int = 1
    jump_cutoff: float = 1e-4   # small-jump truncation for compound-Poisson path models

    def __post_init__(self):
        if self.n_paths < 100:
            raise ConfigError("n_paths must be at least 100")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        if not (0.0 < self.jump_cutoff < 1.0):
            raise ConfigError("jump_cutoff must lie in (0, 1)")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based substream for one chunk; independent of worker count."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


def _stable_variates(rng: np.random.Generator, size):
    """The uniform angle on (0, pi) and unit exponential behind one stable draw."""
    return rng.uniform(0.0, np.pi, size), rng.exponential(1.0, size)


def sample_stable(alpha: float, t: float, rng: np.random.Generator, size=None):
    """Draw S(t) for the stable subordinator normalized by E[e^{-l S(t)}] = e^{-t l^a}.

    Uses the exact trigonometric construction (uniform angle + unit
    exponential), rejection-free, with S(t) = t^(1/a) S(1) by self-similarity.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"stable index must lie in (0,1), got {alpha}")
    if t <= 0.0:
        raise ConfigError("need t > 0")
    u, w = _stable_variates(rng, size)
    unit = (
        np.sin(alpha * u)
        / np.sin(u) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )
    return t ** (1.0 / alpha) * unit


def sample_inverse_stable(alpha: float, t: float, rng: np.random.Generator, size=None):
    """Draw E(t) = inf{s : S(s) > t} for the stable model: (t / S(1))^alpha in law."""
    s1 = sample_stable(alpha, 1.0, rng, size)
    return (t / s1) ** float(alpha)


def _log_stable_unit(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """log S(1) for index alpha, from the variates sample_stable draws.

    Taken in logs, so that small indices, whose S(1) over- or underflows a
    double (or turns NaN as inf * 0), keep a finite value.
    """
    u, w = _stable_variates(rng, size)
    with np.errstate(divide="ignore"):
        return (np.log(np.sin(alpha * u)) - np.log(np.sin(u)) / alpha
                + (1.0 - alpha) / alpha * (np.log(np.sin((1.0 - alpha) * u)) - np.log(w)))


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
    log_a = np.stack([_log_stable_unit(a, rng, n) for a in indices])
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
# Compound-Poisson path simulation
# ---------------------------------------------------------------------------

class _CompoundPoissonIncrements:
    """Compound Poisson above the cutoff plus deterministic small-jump drift.

    Jumps above the cutoff have survival function k(x)/k(cutoff) (k is the
    Levy tail itself), inverted on a precomputed log-log table.  Jumps
    beyond the table cap are clamped to the cap, which is harmless for
    first passage as long as the cap exceeds the passage level.
    """

    def __init__(self, model: SubordinatorModel, cutoff: float, cap: float):
        self.rate = float(model.kernel(cutoff))
        # mean of the removed small jumps per unit time: integral of tau dsigma
        # over (0, cutoff], by parts = K1(cutoff) - cutoff k(cutoff)
        self.drift = float(model.kernel_integral(cutoff)) - cutoff * self.rate
        xs = np.geomspace(cutoff, cap, 800)
        survival = np.asarray(model.kernel(xs)) / self.rate
        # survival is strictly decreasing; store reversed for interpolation
        self._log_u = np.log(survival[::-1])
        self._log_x = np.log(xs[::-1])
        self.cap = cap
        self.cutoff = cutoff

    def _jump_sizes(self, n: int, rng) -> np.ndarray:
        u = rng.uniform(0.0, 1.0, n)
        u = np.maximum(u, 1e-300)
        lu = np.log(u)
        out = np.exp(np.interp(lu, self._log_u, self._log_x))
        out[lu <= self._log_u[0]] = self.cap
        return out

    def draw(self, dt: float, size: int, rng) -> np.ndarray:
        counts = rng.poisson(self.rate * dt, size)
        total = int(counts.sum())
        inc = np.full(size, self.drift * dt)
        if total:
            jumps = self._jump_sizes(total, rng)
            owners = np.repeat(np.arange(size), counts)
            inc += np.bincount(owners, weights=jumps, minlength=size)
        return inc


def _increment_sampler(model: SubordinatorModel, cfg: McConfig, level: float):
    """Compound-Poisson path increments of the model; UnsupportedModelError without a kernel."""
    return _CompoundPoissonIncrements(model, cfg.jump_cutoff, cap=2.0 * level + 1.0)


def _first_passage_block(sampler, t: float, rng, step: float, n: int,
                         max_steps: int = 1 << 21) -> np.ndarray:
    """First-passage times above level t for n paths; bias O(step).

    When a step crosses the level, one fresh half-step increment decides
    which half of the bracketing interval the passage lands in (a single
    bisection level); the returned time is that half's midpoint.
    """
    times = np.zeros(n)
    s_path = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    elapsed = 0.0
    k = 0
    while alive.any():
        k += 1
        if k > max_steps:
            raise ConvergenceError("first passage not reached within the step cap")
        idx = np.flatnonzero(alive)
        inc = sampler.draw(step, idx.size, rng)
        new_vals = s_path[idx] + inc
        crossed = new_vals > t
        cidx = idx[crossed]
        if cidx.size:
            half = sampler.draw(0.5 * step, cidx.size, rng)
            first_half = s_path[cidx] + half > t
            times[cidx] = elapsed + np.where(first_half, 0.25, 0.75) * step
            alive[cidx] = False
        keep = idx[~crossed]
        s_path[keep] = new_vals[~crossed]
        elapsed += step
    return times


def _check_level(t: float, step: float | None) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"need a finite level t >= 0, got {t!r}")
    if step is not None and not (math.isfinite(step) and step > 0.0):
        raise ConfigError(f"need a finite step > 0, got {step!r}")


def _passage_sampler(model: SubordinatorModel, t: float, step: float, cfg: McConfig):
    """draw(rng, n) -> n draws of E(t): exact for stable sums, path-simulated otherwise."""
    indices = model.stable_indices
    if indices:
        return lambda rng, n: _stable_sum_passage(indices, t, rng, n)
    sampler = _increment_sampler(model, cfg, level=t)
    return lambda rng, n: _first_passage_block(sampler, t, rng, step, n)


def first_passage(
    model: SubordinatorModel,
    t: float,
    rng: np.random.Generator,
    step: float,
    cfg: McConfig | None = None,
) -> float:
    """One draw of the inverse time E(t) = inf{s : S(s) > t}.

    Sums of stables are drawn exactly; compound-Poisson models simulate a
    path with time step `step` (validated, but unused, for stable sums).
    """
    _check_level(t, step)
    if t == 0.0:
        return 0.0
    draw = _passage_sampler(model, t, step, cfg or McConfig())
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
    step: float | None = None,
) -> McEstimate:
    """Estimate u^E(t) = E[u(E(t))] with its standard error.

    Sums of stables draw E(t) exactly; `step` applies to compound-Poisson
    models only, whose passage scan defaults to a step of t/512.  Estimates
    are reduced chunk-by-chunk in a fixed order, so (seed, n_paths) pins
    the result bit-for-bit whatever the worker count.
    """
    _check_level(t, step)
    if t == 0.0:
        raise ConfigError("need t > 0")
    draw = _passage_sampler(model, t, t / 512.0 if step is None else step, cfg)

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
    mean = float(np.sum(sums)) / n_total
    ssq = float(np.sum(squares))
    var = max(0.0, (ssq - n_total * mean * mean) / (n_total - 1))
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_total), n=n_total)
