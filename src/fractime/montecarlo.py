"""Monte Carlo oracle for the time-changed dynamics.

Samples the subordinator and its inverse, estimating u^E(t) = E[u(E(t))]
with standard errors.  What a model states decides the sampler: a model
with a single stable index uses the exact one-draw construction (E(t)
equals (t/S(1))^alpha in law); every other model simulates subordinator
paths and records the first passage above the level t, with exact
increments when it is a sum of stables and compound-Poisson increments
built from its tail kernel otherwise (a model without a time-domain
kernel cannot be simulated).  Streams are counter-based per fixed-size
chunk, so results are bit-identical for a given (seed, n_paths) no matter
how many workers run.
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
    u = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
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


# ---------------------------------------------------------------------------
# Increment samplers for path simulation
# ---------------------------------------------------------------------------

class _StableSumIncrements:
    """Exact increments: independent sum of stable draws, one per index.

    The indices are drawn in the model's order and summed in place.
    """

    def __init__(self, indices: tuple):
        self.indices = indices

    def draw(self, dt: float, size: int, rng) -> np.ndarray:
        first, *rest = self.indices
        out = sample_stable(first, dt, rng, size)
        for index in rest:
            out += sample_stable(index, dt, rng, size)
        return out


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
            np.add.at(inc, owners, jumps)
        return inc


def _increment_sampler(model: SubordinatorModel, cfg: McConfig, level: float):
    """Path increments of the model; UnsupportedModelError without a kernel."""
    if model.stable_indices:
        return _StableSumIncrements(model.stable_indices)
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


def first_passage(
    model: SubordinatorModel,
    t: float,
    rng: np.random.Generator,
    step: float,
    cfg: McConfig | None = None,
) -> float:
    """One first-passage draw of the inverse time E(t) by path simulation."""
    if t < 0.0:
        raise ConfigError("need t >= 0")
    if t == 0.0:
        return 0.0
    if step <= 0.0:
        raise ConfigError("need step > 0")
    sampler = _increment_sampler(model, cfg or McConfig(), level=t)
    return float(_first_passage_block(sampler, t, rng, step, 1)[0])


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

    Single-index stable models draw E(t) directly; path models default to
    a step of t/512 for the passage scan.  Estimates are reduced chunk-by-chunk in a
    fixed order, so (seed, n_paths) pins the result bit-for-bit whatever
    the worker count.
    """
    if t <= 0.0:
        raise ConfigError("need t > 0")
    direct = len(model.stable_indices) == 1
    sampler = None if direct else _increment_sampler(model, cfg, level=t)
    if step is None:
        step = t / 512.0

    n_chunks = (cfg.n_paths + _CHUNK - 1) // _CHUNK

    def run_chunk(c: int):
        n = min(_CHUNK, cfg.n_paths - c * _CHUNK)
        rng = _chunk_rng(cfg.seed, c)
        if direct:
            draws = sample_inverse_stable(model.stable_indices[0], t, rng, n)
        else:
            draws = _first_passage_block(sampler, t, rng, step, n)
        vals = _dynamic_values(dynamic, draws)
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
