"""Two-sex branching: mating functions, unit dynamics, per-unit mean reproduction.

Each generation the mating units reproduce independently; every offspring is
male with probability alpha, female otherwise; the next generation's units
are M(females, males) for a mating function M that is nondecreasing in each
argument.  So the units follow a Markov chain whose transition law from z
units is p_{T|z} K, for the pmf p_{T|z} of the offspring total T of z units
and the units kernel K[t, u] = P(M(t - B, B) = u), B ~ Bin(t, alpha) the
males among t offspring.  For a built-in mating, a generation whose unit
counts are all at most 32 draws each count's next units with one table
lookup in those rows, from the offspring stream alone; any other
generation, and every generation of a custom mating, draws the offspring
total and then splits it by sex with one exact binomial on the sex stream,
which is distributionally identical to assigning sexes one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import ControlPolicy, _counts
from .engine import (DEFAULT_POPULATION_CAP, BatchResult, _binomial_exact, _run_batch,
                     sample_offspring_total, sample_offspring_totals)
from .errors import ConfigError
from .law import ExplicitPmf, OffspringLaw
from .rng import STREAM_SEX, TrialStreams
from .table import _TABLE_COUNTS, _binomial_weights, _pmf_rows, _TableDraw

_GRID_MAX = 64  # custom mating functions are validated on [0, 64]^2
_KERNEL_TOTALS = 1 << 9  # a units table's offspring totals stay below this


@dataclass(frozen=True)
class Min:
    """M(x, y) = min(x, y): every union needs one female and one male."""

    def units(self, females, males):
        return np.minimum(females, males)


@dataclass(frozen=True)
class DaleyMonogamy:
    """M(x, y) = x * min(1, y): all females mate as soon as one male exists."""

    def units(self, females, males):
        return females * np.minimum(1, males)


@dataclass(frozen=True)
class DaleyPolygamy:
    """M(x, y) = min(x, d * y): each male serves up to d females."""

    d: int

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ConfigError(f"polygamy degree must be a positive integer, got {self.d}")

    def units(self, females, males):
        # min(x, d y) is x once y passes x // d, and d y <= x otherwise, so
        # no product leaves the dtype of the counts
        cut = females // self.d
        return np.where(males > cut, females, self.d * np.minimum(males, cut))


@dataclass(frozen=True, init=False)
class CustomMating:
    """User-supplied mating function.

    Validated on the grid [0, 64]^2: values must be nonnegative integers,
    nondecreasing in each argument, with M(0, 0) = 0 so that zero units
    remain absorbing.
    """

    f: Callable[[int, int], int]

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

    def units(self, females, males):
        if np.ndim(females) == 0:
            return int(self.f(int(females), int(males)))
        # M(x, y) = x * y passes the grid check and goes past int64 from 2^32 on
        return _counts([int(self.f(x, y)) for x, y in zip(females.tolist(), males.tolist())])


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

    The offspring total is ``sample_offspring_total`` on the offspring
    stream, and the sex split is drawn from the dedicated sex stream.
    """
    step = _MatingStep(alpha, mating)
    n = state.generation + 1
    total = _counts([sample_offspring_total(law, state.units, streams.offspring(n),
                                            population_cap=population_cap)])
    females, males = step.split(total, streams.sex(n))
    return BisexualState(females=int(females[0]), males=int(males[0]),
                         units=int(mating.units(females, males)[0]), generation=n)


@dataclass(frozen=True)
class _MatingStep(ControlPolicy):
    """The kernel's rule for mating units: split by sex on the sex stream, then mate."""

    alpha: float
    mating: MatingFunction

    stream = STREAM_SEX

    grows = property(lambda self: isinstance(self.mating, CustomMating))

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")

    def split(self, counts, rng):
        """(females, males) of each count, the males one exact binomial each."""
        males = _binomial_exact(counts, self.alpha, rng)
        return counts - males, males

    def apply(self, counts, generation: int, rng=None):
        return self.mating.units(*self.split(counts, rng))


def _kernel(alpha: float, mating: MatingFunction, top: int):
    """The units kernel K[t, u] = P(M(t - B, B) = u), B ~ Bin(t, alpha), over
    totals t <= top, as two square arrays (w, u): w[t, b] = P(B = b) and u[t,
    b] = M(t - b, b), both 0 for b > t, so that K[t] is the bincount of u[t]
    weighted by w[t] and E[M(t - B, B)] = w[t] . u[t].  w is
    ``_binomial_weights`` of alpha <= 1/2, and those of 1 - alpha read from
    the other end for alpha > 1/2."""
    flip = alpha > 0.5
    w = _binomial_weights(1.0 - alpha if flip else alpha, top)  # exact for alpha > 1/2
    t, b = np.ogrid[:top + 1, :top + 1]
    k, inside = np.maximum(t - b, 0), b <= t
    if flip:
        w = w[t, k] * inside
    units = mating.units(k.ravel(), np.where(inside, b, 0).ravel())
    return w, units.reshape(top + 1, top + 1)


def _units_table(law: OffspringLaw, alpha: float, mating: MatingFunction, cap: int):
    """A batch's own table whose row z draws the next units of z mating units,
    from the pmf p_{T|z} K (``OffspringLaw.sum_pmf``, ``_kernel``), K (up to
    4 MB) grown as the rows need it.  None for a custom mating, and where
    the offspring totals of its rows may reach ``_KERNEL_TOTALS`` or pass
    the cap, which fails a trial and so must be drawn."""
    mk = law.max_k()
    if isinstance(mating, CustomMating) or _TABLE_COUNTS * (mk or law.mean()) >= _KERNEL_TOTALS:
        return None
    most = law.sum_pmf(_TABLE_COUNTS).size - 1
    if most >= _KERNEL_TOTALS or most > cap:
        return None
    kernel = None

    def rows(z0, z1):
        nonlocal kernel
        pmfs = [law.sum_pmf(z) for z in range(z0, z1)]
        size = max(pmf.size for pmf in pmfs)
        if kernel is None or len(kernel[0]) < size:  # grown to the totals of twice the units
            kernel = _kernel(alpha, mating, law.sum_pmf(min(2 * z1, _TABLE_COUNTS)).size - 1)
        w, units = (a[:size, :size] for a in kernel)
        k = np.bincount((units + size * np.arange(size)[:, None]).ravel(), weights=w.ravel(),
                        minlength=size * size).reshape(size, size)
        p = np.zeros((len(pmfs), size))
        for row, pmf in zip(p, pmfs):
            row[:pmf.size] = pmf
        return _pmf_rows(p @ k)
    return _TableDraw(rows, _TABLE_COUNTS, most)


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
    """Exact E[units after one step from k units]: p_{T|k} K u."""
    pmf = law.sum_pmf(k)
    w, units = _kernel(alpha, mating, pmf.size - 1)
    return float(pmf @ (w * units.astype(np.float64)).sum(axis=1))


def mean_reproduction_per_unit(k: int, law: OffspringLaw, alpha: float,
                               mating: MatingFunction, trials: int, rng,
                               exact: bool | None = None) -> MeanReproduction:
    """Mean units produced per starting unit, E[Z_1 | Z_0 = k] / k.

    Exact, p_{T|k} K u from ``sum_pmf`` and ``_kernel``
    (``_exact_mean_units``), when the one-generation offspring total is
    provably at most 24 (finite-support laws, small k); otherwise a Monte
    Carlo estimate with a 99% normal-approximation halfwidth.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    step = _MatingStep(alpha, mating)
    mk = law.max_k()
    can_be_exact = isinstance(law, ExplicitPmf) and mk is not None and k * mk <= 24
    if exact is None:
        exact = can_be_exact
    if exact:
        if not can_be_exact:
            raise ConfigError("the exact mean p_{T|k} K u needs a finite-support law "
                              f"with k * max_k <= 24, got k={k}")
        value = _exact_mean_units(k, law, alpha, mating) / k
        return MeanReproduction(k=k, estimate=value, halfwidth=0.0,
                                trials=0, exact=True)

    from .brs import Z99
    units = step.apply(sample_offspring_totals(law, k, trials, rng), 1, rng).astype(np.float64)
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

    note = BoundednessReport.note
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
    stream and mated, except that a generation whose counts all fit the rows
    of the batch's own ``_units_table`` draws its units there with one lookup a count.
    Aggregation, the cap and the failure budget are the same.
    """
    if getattr(config, "coupled", False):
        raise ConfigError("bisexual batches have no coupled mode")
    step = _MatingStep(config.alpha, config.mating)
    cap = int(getattr(config, "population_cap", DEFAULT_POPULATION_CAP))
    return _run_batch(config, getattr(config, "initial_units", 1), step,
                      _units_table(config.law, step.alpha, step.mating, cap))
