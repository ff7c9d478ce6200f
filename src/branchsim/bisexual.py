"""Two-sex branching: mating functions, unit dynamics, per-unit mean reproduction.

Each generation the mating units reproduce independently; every offspring is
male with probability alpha, female otherwise; the next generation's units
are M(females, males) for a mating function M that is nondecreasing in each
argument.  The sex split is drawn as one binomial over the generation total,
which is distributionally identical to assigning sexes one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .brs import Z99
from .engine import (DEFAULT_POPULATION_CAP, BatchResult, _run_batch, _run_vector_block,
                     sample_offspring_total, sample_offspring_totals)
from .errors import ConfigError
from .law import ExplicitPmf, OffspringLaw
from .rng import STREAM_SEX, TrialStreams

_GRID_MAX = 64  # custom mating functions are validated on [0, 64]^2


@dataclass(frozen=True)
class Min:
    """M(x, y) = min(x, y): every union needs one female and one male."""

    name = "min"

    def units(self, females: int, males: int) -> int:
        return min(females, males)

    def units_vector(self, females: np.ndarray, males: np.ndarray) -> np.ndarray:
        return np.minimum(females, males)


@dataclass(frozen=True)
class DaleyMonogamy:
    """M(x, y) = x * min(1, y): all females mate as soon as one male exists."""

    name = "daley_monogamy"

    def units(self, females: int, males: int) -> int:
        return females * min(1, males)

    def units_vector(self, females: np.ndarray, males: np.ndarray) -> np.ndarray:
        return females * np.minimum(1, males)


@dataclass(frozen=True)
class DaleyPolygamy:
    """M(x, y) = min(x, d * y): each male serves up to d females."""

    d: int

    name = "daley_polygamy"

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ConfigError(f"polygamy degree must be a positive integer, got {self.d}")

    def units(self, females: int, males: int) -> int:
        return min(females, self.d * males)

    def units_vector(self, females: np.ndarray, males: np.ndarray) -> np.ndarray:
        return np.minimum(females, self.d * males)


@dataclass(frozen=True, init=False)
class CustomMating:
    """User-supplied mating function.

    Validated on the grid [0, 64]^2: values must be nonnegative integers,
    nondecreasing in each argument, with M(0, 0) = 0 so that zero units
    remain absorbing.
    """

    f: Callable[[int, int], int]

    name = "custom"

    def __init__(self, f: Callable[[int, int], int]):
        object.__setattr__(self, "f", f)
        if f(0, 0) != 0:
            raise ConfigError(f"mating function must satisfy M(0, 0) = 0, got {f(0, 0)}")
        prev_row = None
        for x in range(_GRID_MAX + 1):
            row = [f(x, y) for y in range(_GRID_MAX + 1)]
            for y, v in enumerate(row):
                if int(v) != v or v < 0:
                    raise ConfigError(f"M({x}, {y}) = {v!r}; expected a nonnegative integer")
                if y and v < row[y - 1]:
                    raise ConfigError(f"M({x}, ...) decreases at y = {y}")
                if prev_row is not None and v < prev_row[y]:
                    raise ConfigError(f"M(..., {y}) decreases at x = {x}")
            prev_row = row

    def units(self, females: int, males: int) -> int:
        return int(self.f(females, males))

    def units_vector(self, females: np.ndarray, males: np.ndarray) -> np.ndarray:
        out = np.empty(females.shape, dtype=np.int64)
        flat_f = females.ravel()
        flat_m = males.ravel()
        flat_o = out.ravel()
        for i in range(flat_f.size):
            flat_o[i] = self.f(int(flat_f[i]), int(flat_m[i]))
        return out


MatingFunction = Min | DaleyMonogamy | DaleyPolygamy | CustomMating


@dataclass(frozen=True)
class BisexualState:
    """Population state of one generation.

    ``units`` equals M(females, males) for every stepped state; the initial
    state carries the configured ancestral units with zero recorded adults.
    """

    females: int
    males: int
    units: int
    generation: int


def initial_state(units: int) -> BisexualState:
    if units < 0:
        raise ConfigError(f"initial units must be nonnegative, got {units}")
    return BisexualState(females=0, males=0, units=int(units), generation=0)


def bisexual_step(state: BisexualState, law: OffspringLaw, alpha: float,
                  mating: MatingFunction, streams: TrialStreams,
                  population_cap: int = DEFAULT_POPULATION_CAP) -> BisexualState:
    """One generation: units reproduce, offspring get sexes, new units mate.

    The offspring total comes from the offspring stream and the sex split
    from the dedicated sex stream, so unit counts can be coupled against a
    plain single-sex run driven by the same seed.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    n = state.generation + 1
    total = sample_offspring_total(law, state.units, streams.offspring(n),
                                   population_cap=population_cap)
    males = int(streams.sex(n).binomial(total, alpha)) if total else 0
    females = total - males
    return BisexualState(females=females, males=males,
                         units=int(mating.units(females, males)), generation=n)


@dataclass(frozen=True)
class MeanReproduction:
    """Estimate of the mean reproduction per unit started from k units."""

    k: int
    estimate: float
    halfwidth: float
    trials: int
    exact: bool


def _exact_mean_units(k: int, law: ExplicitPmf, alpha: float,
                      mating: MatingFunction) -> float:
    """Exact E[units after one step from k units] by full enumeration."""
    ks, ps = law.pmf_table()
    dist = np.zeros(1)
    dist[0] = 1.0
    unit_pmf = np.zeros(int(ks[-1]) + 1)
    unit_pmf[ks] = ps
    for _ in range(k):
        dist = np.convolve(dist, unit_pmf)
    expected = 0.0
    for total, p_total in enumerate(dist):
        if p_total <= 0.0:
            continue
        # binomial sex split of this total
        w = (1.0 - alpha) ** total
        ratio = alpha / (1.0 - alpha)
        for males in range(total + 1):
            expected += p_total * w * mating.units(total - males, males)
            w *= ratio * (total - males) / (males + 1) if males < total else 0.0
    return expected


def mean_reproduction_per_unit(k: int, law: OffspringLaw, alpha: float,
                               mating: MatingFunction, trials: int, rng,
                               exact: bool | None = None) -> MeanReproduction:
    """Mean units produced per starting unit, E[Z_1 | Z_0 = k] / k.

    Uses exhaustive enumeration when the one-generation offspring total is
    provably at most 24 (finite-support laws, small k); otherwise a Monte
    Carlo estimate with a 99% normal-approximation halfwidth.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    mk = law.max_k()
    can_enumerate = isinstance(law, ExplicitPmf) and mk is not None and k * mk <= 24
    if exact is None:
        exact = can_enumerate
    if exact:
        if not can_enumerate:
            raise ConfigError("exact enumeration needs a finite-support law "
                              f"with k * max_k <= 24, got k={k}")
        value = _exact_mean_units(k, law, alpha, mating) / k
        return MeanReproduction(k=k, estimate=value, halfwidth=0.0,
                                trials=0, exact=True)

    totals = sample_offspring_totals(law, k, trials, rng)
    males = rng.binomial(totals, alpha)
    females = totals - males
    units = mating.units_vector(females, males).astype(np.float64)
    est = float(units.mean()) / k
    sd = float(units.std(ddof=1)) if trials > 1 else 0.0
    halfwidth = Z99 * sd / math.sqrt(trials) / k
    return MeanReproduction(k=k, estimate=est, halfwidth=halfwidth,
                            trials=trials, exact=False)


@dataclass(frozen=True)
class BoundednessReport:
    """Evidence about m(k) = E[Z_1 | Z_0 = k] / k over a geometric k grid.

    ``evidence_for_extinction`` is set when the estimates show no significant
    growth and are eventually at most 1 within their confidence bands.  This
    is statistical evidence, never a proof.
    """

    estimates: tuple[MeanReproduction, ...]
    bounded: bool
    eventually_leq_one: bool
    evidence_for_extinction: bool
    note: str = ("statistical evidence from finitely many k; "
                 "not a proof of extinction")


def theorem4_check(law: OffspringLaw, alpha: float, mating: MatingFunction,
                   k_max: int, trials_per_k: int, rng) -> BoundednessReport:
    """Estimate m(k) on k = 1, 2, 4, ... and test boundedness and m(k) <= 1."""
    if k_max < 2:
        raise ConfigError(f"k_max must be >= 2, got {k_max}")
    grid = []
    k = 1
    while k <= k_max:
        grid.append(k)
        k *= 2
    if grid[-1] != k_max:
        grid.append(k_max)

    estimates = [mean_reproduction_per_unit(k, law, alpha, mating,
                                            trials_per_k, rng, exact=False)
                 for k in grid]
    ests = [e.estimate for e in estimates]
    hws = [e.halfwidth for e in estimates]

    # growth check, satisfied by either route:
    #  - every estimate sits at or below 1 within its band (bounded by the
    #    only ceiling the extinction statement cares about), or
    #  - the sequence stops making significant new highs at the end of the
    #    grid.  A sequence still climbing past its running maximum at the
    #    final point fails both routes.
    ceiling_ok = all(e <= 1.0 + 3.0 * h for e, h in zip(ests, hws))
    slack_last = 3.0 * (hws[-1] + hws[-2])
    no_new_high = (ests[-1] <= ests[-2] + slack_last
                   or ests[-1] <= max(ests[:-1]) + 3.0 * hws[-1])
    bounded = ceiling_ok or no_new_high

    # eventual bound: the last estimates sit at or below 1 within their bands
    suffix_ok = [e <= 1.0 + 3.0 * h for e, h in zip(ests, hws)]
    eventually = suffix_ok[-1] and all(suffix_ok[len(suffix_ok) // 2:])

    note = "statistical evidence from finitely many k; not a proof of extinction"
    if eventually and ests[-1] + 3.0 * hws[-1] >= 1.0:
        note += "; tail estimates sit within confidence slack of 1 (boundary case)"

    return BoundednessReport(estimates=tuple(estimates), bounded=bounded,
                             eventually_leq_one=eventually,
                             evidence_for_extinction=bounded and eventually,
                             note=note)


def run_bisexual_batch(config, threads: int = 1) -> BatchResult:
    """Monte Carlo batch over the mating-unit process.

    Runs on the single-sex batch kernel: the offspring totals of the live
    units are drawn exactly as there, then split by sex on the block's sex
    stream and mated.  Aggregation and the failure budget are the same.
    """
    alpha, mating = config.alpha, config.mating

    def finish(off, n, gens):
        males = gens[STREAM_SEX].binomial(off.astype(np.int64), alpha)
        return mating.units_vector(off - males, males)

    return _run_batch(config, getattr(config, "initial_units", 1), False,
                      partial(_run_vector_block, None, finish))
