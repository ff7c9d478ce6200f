"""Order-statistic stopping times under a budget and their expectation bound.

Given n positive claims and a budget s, the stopping time N(n, s) is the
number of claims that fit the budget when served smallest first.  Its
expectation is bounded by sum_i n_i * F_i(t), where the threshold t solves
sum_i n_i * integral_0^t x dF_i(x) = s.  The bound needs no independence
between claims, so the estimator offers both independent and comonotone
sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BudgetExceedsMass, ConfigError, NumericFailure

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
MODES = ("independent", "comonotone")  # the sampling modes of estimate_expected_stop
MAX_CLAIMS = 4_000_000  # claims of a population: one trial's, drawn and sorted together


class ClaimDistribution:
    """Absolutely continuous claim distribution on (0, inf).

    Subclasses provide the cdf F, the partial mean PM(t) = integral_0^t x dF,
    the total mean (may be inf) and a vectorized quantile function.
    """

    def cdf(self, t: float) -> float:
        raise NotImplementedError

    def partial_mean(self, t: float) -> float:
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(ClaimDistribution):
    """Uniform claims on (0, b)."""

    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0):
            raise ConfigError(f"uniform upper bound must be positive, got {self.b}")

    def cdf(self, t):
        return min(max(t / self.b, 0.0), 1.0)

    def partial_mean(self, t):
        if t <= 0.0:
            return 0.0
        # t / b first, since t * t overflows from t = 1.4e154
        return t * (t / self.b) / 2.0 if t < self.b else self.b / 2.0

    @property
    def mean(self):
        return self.b / 2.0

    def ppf(self, u):
        return u * self.b


@dataclass(frozen=True)
class Exponential(ClaimDistribution):
    """Exponential claims with the given rate."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ConfigError(f"exponential rate must be positive, got {self.rate}")

    def cdf(self, t):
        return -math.expm1(-self.rate * t) if t > 0.0 else 0.0

    def partial_mean(self, t):
        if t <= 0.0:
            return 0.0
        x = self.rate * t
        if x >= 0.5:  # the closed form loses at most 4 bits from here on
            return (1.0 - math.exp(-x) * (1.0 + x)) / self.rate
        # 1 - e^-x (1 + x) = sum_{k>=2} (-1)^k (k - 1) x^k / k!, whose terms
        # fall by a factor x k / ((k + 1)(k - 1)) <= 1/3 at a step
        total, term, k = 0.0, -x, 1  # term: (-x)^k / k!
        while True:
            k += 1
            term *= -x / k
            total += (k - 1) * term
            if abs(term) * k <= 2.0**-60 * total:
                return total / self.rate

    @property
    def mean(self):
        return 1.0 / self.rate

    def ppf(self, u):
        return -np.log1p(-u) / self.rate


@dataclass(frozen=True, init=False)
class CustomClaim(ClaimDistribution):
    """Claim distribution given by user cdf and partial-mean callables.

    Registration cross-checks the pair on a grid: F must be a cdf starting
    at 0, PM must be nondecreasing from 0 with PM(t) <= t * F(t), and the
    finite-difference derivative of PM must match t * dF/dt, since a wrong
    partial mean silently corrupts the threshold equation.  A quantile
    function may be supplied; otherwise each quantile is the least float t
    with F(t) >= u, searched from ``scale``: for all the uniforms of a call
    at once, one cdf call a halving, when the cdf takes arrays.
    """

    cdf_fn: Callable[[float], float]
    partial_mean_fn: Callable[[float], float]
    total_mean: float
    ppf_fn: Callable | None
    scale: float

    def __init__(self, cdf, partial_mean, mean, ppf=None, scale: float = 1.0):
        object.__setattr__(self, "cdf_fn", cdf)
        object.__setattr__(self, "partial_mean_fn", partial_mean)
        object.__setattr__(self, "total_mean", float(mean))
        object.__setattr__(self, "ppf_fn", ppf)
        object.__setattr__(self, "scale", float(scale))
        if not 0 < self.total_mean < math.inf:
            raise ConfigError(f"claim mean must be finite and positive, got {mean}")
        if not 0 < self.scale < math.inf:
            raise ConfigError(f"scale must be finite and positive, got {scale}")
        self._validate()

    def _validate(self):
        if abs(self.cdf_fn(0.0)) > 1e-9 or abs(self.partial_mean_fn(0.0)) > 1e-9:
            raise ConfigError("claim cdf and partial mean must vanish at 0")
        grid = self.scale * np.geomspace(1e-3, 1e3, 61)
        prev_f = 0.0
        prev_pm = 0.0
        for t in grid:
            f = self.cdf_fn(t)
            pm = self.partial_mean_fn(t)
            if f < prev_f - 1e-9 or not 0.0 <= f <= 1.0 + 1e-9:
                raise ConfigError(f"cdf is not a nondecreasing [0, 1] function at t={t}")
            if pm < prev_pm - 1e-9:
                raise ConfigError(f"partial mean decreases at t={t}")
            if pm > t * f + 1e-9 * max(1.0, t):
                raise ConfigError(f"partial mean exceeds t * F(t) at t={t}")
            prev_f, prev_pm = f, pm
        # PM'(t) = t F'(t): compare central differences where F is moving
        for t in self.scale * np.geomspace(1e-2, 1e2, 17):
            h = 1e-4 * t
            df = self.cdf_fn(t + h) - self.cdf_fn(t - h)
            dpm = self.partial_mean_fn(t + h) - self.partial_mean_fn(t - h)
            if df > 1e-6 and abs(dpm - t * df) > 0.02 * t * df + 1e-12:
                raise ConfigError(
                    f"partial mean is inconsistent with the cdf near t={t}: "
                    f"dPM={dpm:.6g} vs t*dF={t * df:.6g}")

    def cdf(self, t):
        return float(self.cdf_fn(t))

    def partial_mean(self, t):
        return float(self.partial_mean_fn(t))

    @property
    def mean(self):
        return self.total_mean

    @cached_property
    def _takes_arrays(self) -> bool:
        """Whether the cdf maps an array of the validation grid to the floats
        it gives each point alone."""
        grid = self.scale * np.geomspace(1e-3, 1e3, 61)
        try:
            values = np.asarray(self.cdf_fn(grid), dtype=np.float64)
        except Exception:  # a cdf of scalars may raise anything on an array
            return False
        return values.shape == grid.shape and values.tolist() == [self.cdf(t) for t in grid]

    def ppf(self, u):
        if self.ppf_fn is not None:
            return np.asarray(self.ppf_fn(u), dtype=np.float64)
        f = self.cdf_fn if self._takes_arrays else np.vectorize(self.cdf, otypes=[np.float64])
        u = np.asarray(u, dtype=np.float64)
        return _least_crossings(f, u.ravel(), self.scale).reshape(u.shape)


@dataclass(frozen=True, init=False)
class Population:
    """Groups of claims sharing a distribution, plus the budget s."""

    groups: tuple[tuple[int, ClaimDistribution], ...]
    s: float

    def __init__(self, groups, s):
        parsed = []
        for count, dist in groups:
            if int(count) != count or count < 1:
                raise ConfigError(f"group count must be a positive integer, got {count}")
            if not isinstance(dist, ClaimDistribution):
                raise ConfigError(f"group distribution must be a ClaimDistribution, "
                                  f"got {type(dist).__name__}")
            parsed.append((int(count), dist))
        if not parsed:
            raise ConfigError("population needs at least one group")
        if not (math.isfinite(s) and s > 0):
            raise ConfigError(f"budget must be positive and finite, got {s}")
        object.__setattr__(self, "groups", tuple(parsed))
        object.__setattr__(self, "s", float(s))

    @property
    def total_count(self) -> int:
        return sum(count for count, _ in self.groups)


def stopping_time(claims, s: float) -> int:
    """Largest k such that the k smallest claims sum to at most s."""
    arr = np.asarray(claims, dtype=np.float64)
    if arr.size and float(arr.min()) <= 0.0:
        raise ValueError("claims must be strictly positive")
    if not s > 0.0:
        raise ValueError(f"budget must be positive, got {s}")
    prefix = np.cumsum(np.sort(arr))
    return int(np.count_nonzero(prefix <= s))


def _partial_mean_sum(pop: Population, t: float) -> float:
    return math.fsum(count * dist.partial_mean(t) for count, dist in pop.groups)


def _least_crossing(f, y: float, start: float) -> float:
    """``_least_crossings`` of one y, for an f of scalars."""
    return float(_least_crossings(np.vectorize(f, otypes=[np.float64]), np.array([y]), start)[0])


def _least_crossings(f, y, start: float) -> np.ndarray:
    """The least float t >= 0 with f(t) >= y for each entry of an array y,
    for a nondecreasing f that takes arrays.

    t doubles from ``start`` until f(t) >= y, then the bracket halves until
    its ends are adjacent floats; each step doubles, or halves, the bracket
    of every entry not yet done with one call of f.
    """
    lo, hi = np.zeros(y.size), np.full(y.size, start, dtype=np.float64)
    live = np.arange(y.size)
    while live.size:
        live = live[np.asarray(f(hi[live])) < y[live]]
        lo[live] = hi[live]
        with np.errstate(over="ignore"):  # inf ends the search
            hi[live] *= 2.0
        if (out := live[np.isinf(hi[live])]).size:
            raise NumericFailure(f"no t up to the largest float has f(t) >= {y[out[0]]}")
    mid = lo + 0.5 * (hi - lo)
    live = np.flatnonzero((mid != lo) & (mid != hi))
    while live.size:
        below = np.asarray(f(mid[live])) < y[live]
        lo[live[below]], hi[live[~below]] = mid[live[below]], mid[live[~below]]
        mid[live] = lo[live] + 0.5 * (hi[live] - lo[live])
        live = live[(mid[live] != lo[live]) & (mid[live] != hi[live])]
    if (zero := lo == 0.0).any():  # t = 0 when f(0) >= y already
        hi[zero & ~(float(f(0.0)) < y)] = 0.0
    return hi


def solve_threshold(pop: Population) -> float:
    """Least float t with sum_i n_i * PM_i(t) >= s, the root of the equation.

    Raises BudgetExceedsMass when the total expected claim mass is at most
    s, in which case the equation has no finite root and the stopping-time
    bound degenerates to the population size.
    """
    s = pop.s
    mass = math.fsum(count * dist.mean for count, dist in pop.groups)
    if mass <= s:
        raise BudgetExceedsMass(
            f"total expected claim mass {mass} is within the budget {s}; "
            f"the bound degenerates to n = {pop.total_count}")
    return _least_crossing(lambda t: _partial_mean_sum(pop, t), s, 1.0)


def brs_bound(pop: Population, t: float) -> float:
    """Bound sum_i n_i * F_i(t) on E N(n, s) at solve_threshold's t, or n when t is nan."""
    if math.isnan(t):
        return float(pop.total_count)
    return math.fsum(count * dist.cdf(t) for count, dist in pop.groups)


@dataclass(frozen=True)
class StopEstimate:
    """Monte Carlo estimate of E[N(n, s)] with a 99% halfwidth."""

    mean: float
    halfwidth: float
    trials: int
    mode: str


def estimate_expected_stop(pop: Population, trials: int, rng,
                           mode: str = "independent") -> StopEstimate:
    """Monte Carlo mean of the stopping time over sampled claim vectors.

    ``independent`` draws every claim independently; ``comonotone`` drives
    all claims within a group by one shared uniform per trial, the extreme
    positive dependence.  The expectation bound holds for both.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mode not in MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    n = pop.total_count
    s = pop.s
    block_rows = max(1, min(trials, MAX_CLAIMS // max(n, 1)))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        rows = min(block_rows, trials - done)
        cols = []
        for count, dist in pop.groups:
            if mode == "independent":
                cols.append(np.asarray(dist.ppf(rng.random((rows, count))),
                                       dtype=np.float64))
            else:
                u = rng.random((rows, 1))
                cols.append(np.broadcast_to(np.asarray(dist.ppf(u), dtype=np.float64),
                                            (rows, count)))
        claims = np.concatenate(cols, axis=1)
        prefix = np.cumsum(np.sort(claims, axis=1), axis=1)
        stops = (prefix <= s).sum(axis=1).astype(np.float64)
        total += float(stops.sum())
        total_sq += float((stops * stops).sum())
        done += rows
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    else:
        var = 0.0
    halfwidth = Z99 * math.sqrt(var / trials)
    return StopEstimate(mean=mean, halfwidth=halfwidth, trials=trials, mode=mode)
