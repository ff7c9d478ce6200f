"""Core simulation: offspring-sum sampling, trajectory stepping, Monte Carlo batches.

Population counts are exact integers, so runs may pass 2^63 when the
configured cap allows it.  Batches step every live trial of a block
together.  Offspring sums are exact closed-form equivalents (Poisson,
negative binomial, binomial, multinomial): one sized draw per generation
for the trials within the block bound, which keeps every numpy draw inside
int64 and every binomial count within 2^53, then a few vectorized draws per
trial past it, whatever its size.  There a Binomial trial is one binomial,
halved at beta order statistics down to 2^53 trials, and a pmf trial one
per atom but the last; a Poisson trial is one Poisson(lam z), a Geometric
one Gamma(z) then Poisson(m G), and means past 2^32 are first cut down with
gamma-distributed Poisson arrival times.  Binomial counts and means past
2^90 fail the trial.  Counts are int64 whenever all fit and Python integers
(object arrays) otherwise.  Python ints sum only the arrival rounds of means
of 2^62 or more and the alive sizes of object blocks; an int64 alive sum
that may pass 2^63 adds 32-bit halves.  The dtype changes no drawn number
and no report byte.  A sized binomial draw (a Binomial law, a two-atom pmf)
whose counts all have 1 to 32 trials, with 0 < p < 1, on a PCG64, is looked
up in a table of the binomial cdf (``table._binomial_draw``), one uniform
a count as numpy's inversion draw takes, and its numbers but for under
6e-14 of them.  For a block whose policy reproduces its counts as they are
and never raises them (no phi, custom rule or custom mating, coupled
streams or failure replay, and a cap past every table total) the table
draws a span of generations per ``random_raw`` call: up to 2^13 outputs
(``_SPAN_RAWS``), each span twice the generations that the last one drew,
which a death or a count past the table's rows cuts short; each first
grows the rows to its parent counts.  A batch given a units table (the
mating step of a built-in mating) draws a generation whose counts are all
within its rows with one lookup a count, which is what ``apply`` would
leave, so neither the offspring draw nor ``apply`` runs for it.  A
per-particle inverse-CDF mode exists for monotone coupling: with
generation-keyed streams, the draw for parent i is the same in two runs, so
the offspring total is nondecreasing in the parent count.
Coupled batches step on the same kernel, each trial on such streams; custom
absorbing rules, which see each trajectory so far, apply trial by trial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControlPolicy, CustomAbsorption, _counts
from .errors import BatchTrialError, BranchsimError, ConfigError, PopulationOverflow
from .law import INT64_MAX, Binomial, ExplicitPmf, Geometric, OffspringLaw, Poisson
from .rng import STREAM_OFFSPRING, block_generators, spawn_generator
from .table import _binomial_draw, _TableDraw

DEFAULT_POPULATION_CAP = 1 << 48

# Largest parent block, and binomial count, handed to one numpy draw.  Blocks
# must be exactly representable as float64 (<= 2^53) and keep block * mean
# well under 2^63; numpy's binomial draws are all even from 2^56 trials.
_MAX_BLOCK = 1 << 53
_MEAN_BUDGET = 1 << 61
_SLAB = 1 << 20  # uniforms per slab of the per-particle sampler
_COUPLED_CAP = 1 << 24  # per-particle counts: one uniform, about 25 ns, per parent
# largest binomial count and Poisson mean of the exact lane: its draws hold
# their moments there, while Poisson means of 2^96 lost 2% of their variance
_EXACT_LIMIT = 1 << 90
_SPAN_RAWS = 1 << 13  # raw outputs of one span of table draws: 64 kB


def _make_block_draw(law: OffspringLaw):
    """Return draw(z, rng): the offspring totals of an int64 array z of
    parent counts, each within the block size."""
    if isinstance(law, Poisson):
        return lambda z, rng: rng.poisson(z * law.lam)
    if isinstance(law, Geometric):
        return lambda z, rng: rng.negative_binomial(z, 1.0 - law.r)
    if isinstance(law, Binomial):
        return _binomial_draw(law.p, trials=law.n)
    if not isinstance(law, ExplicitPmf):
        raise ConfigError(f"no sampler for law kind {law.kind!r}")
    ks_np, ps = law.pmf_table()
    pvals = ps.astype(np.float64).copy()
    # multinomial rejects pvals whose head sums a few ulp above 1
    pvals[-1] = max(0.0, 1.0 - pvals[:-1].sum())
    if len(ks_np) == 2:
        # a two-atom pmf needs only one binomial count
        k_lo, k_hi = (int(k) for k in ks_np)
        return _binomial_draw(float(pvals[1]), k_hi - k_lo, base=k_lo)
    return lambda z, rng: rng.multinomial(z, pvals) @ ks_np


_POISSON_EXACT = 1 << 32  # largest mean handed to numpy's Poisson sampler
_ARRIVAL_MARGIN = 16.0  # in standard deviations: Gamma(n) passes lam about once in 10^57 draws


def _poisson_exact(lam, rng) -> np.ndarray:
    """Poisson(lam) counts for float64 means, int64 when all fit, object otherwise.

    numpy draws Poisson variates in double precision, and from a mean of
    about 2^48 on their variance is off by up to three quarters and their
    low bits lose their spread.  So a mean above ``_POISSON_EXACT`` is
    first cut down with the arrival times of a unit-rate Poisson process:
    with n = floor(lam - 16 sqrt(lam)) and S ~ Gamma(n), the time of the
    n-th arrival, the count is n + Poisson(lam - S) whenever S <= lam (an
    S past lam, about once in 10^57 draws, counts as n).  Each round draws
    one gamma for every mean still above ``_POISSON_EXACT``, in ascending
    order; then every mean takes one Poisson draw, in ascending order.
    Only the rounds of means of 2^62 or more, which may pass int64, sum as Python ints.
    """
    lam = lam.copy()
    wide = lam >= 2.0**62  # only these counts can pass int64
    arrivals = []
    while True:
        big = np.flatnonzero(lam > _POISSON_EXACT)
        if not big.size:
            break
        n = np.floor(lam[big] - _ARRIVAL_MARGIN * np.sqrt(lam[big]))
        lam[big] = np.maximum(lam[big] - rng.standard_gamma(n), 0.0)
        arrivals.append((big, n))
    counts = rng.poisson(lam)
    at = np.flatnonzero(wide)
    totals = counts[at].tolist()
    for big, n in arrivals:
        if at.size:
            w = wide[big]
            for j, k in zip(np.searchsorted(at, big[w]).tolist(), n[w].tolist()):
                totals[j] += int(k)
            big, n = big[~w], n[~w]
        counts[big] += n.astype(np.int64)
    if at.size:
        totals = _counts(totals)
        counts = counts.astype(totals.dtype, copy=False)
        counts[at] = totals
    return counts


def _binomial_exact(n, p: float, rng) -> np.ndarray:
    """Bin(n, p) counts for an int64 or object array n of counts, each below
    2^101: int64 when every count fits, object otherwise.

    A count above ``_MAX_BLOCK`` is halved at order statistics (Knuth, TAOCP
    vol. 2, 3.4.1; Devroye, 1986, ch. X).  Its (n + 1) mod 2^s trials, s the
    bit length of n + 1 less 53, are one numpy draw, and the 2k - 1 trials
    left have a float64-exact k.  Their k-th uniform is U ~ Beta(k, k), two
    Gamma(k) draws: the count is k + Bin(k - 1, (p - U) / (1 - U)) if U < p
    and Bin(k - 1, p / U) otherwise, and k - 1 trials halve the same way down
    to 2^53.  Draw order: the remainders, then one beta a round, for the
    counts past 2^53; then one binomial for every count; each ascending.
    """
    wide = np.flatnonzero(n > _MAX_BLOCK)
    if not wide.size:
        return rng.binomial(n.astype(np.int64, copy=False), p)
    succ = [v + 1 for v in n[wide].tolist()]
    rems = [v % (1 << v.bit_length() - 53) for v in succ]
    two_k = np.array([float(v - r) for v, r in zip(succ, rems)])  # 2k, float64-exact
    probs = np.full(n.size, p)
    q, bits = probs[wide], np.zeros(wide.size, dtype=np.int64)
    head = rng.binomial(rems, q)
    live = np.arange(wide.size)
    while live.size:  # a round halves two_k: the k-th uniform of the 2k - 1 trials left
        k = two_k[live] = two_k[live] / 2
        u, ql = rng.beta(k, k), q[live]
        low = u < ql
        q[live] = np.where(low, (ql - u) / (1.0 - u), ql / u)
        bits[live] = 2 * bits[live] + low
        live = live[k > _MAX_BLOCK]
    trials = np.minimum(n, _MAX_BLOCK).astype(np.int64)
    trials[wide] = two_k.astype(np.int64) - 1
    probs[wide] = q
    out = rng.binomial(trials, probs).astype(object)
    out[wide] += head + two_k.astype(np.int64).astype(object) * bits  # the k of U < p rounds
    return _counts(out.tolist())


def _multinomial_exact(z, ps, rng) -> list:
    """Multinomial(z, ps) counts of an array z of counts, one object array
    per atom, by the chain rule: atom i takes Bin(left, p_i / (p_i + ... +
    p_j)) of the counts that atoms 1 to i - 1 left, one ``_binomial_exact``
    call for every count, and the last atom takes what is left."""
    left, hits = z.astype(object), []
    for q in (ps[:-1] / np.cumsum(ps[::-1])[::-1][:-1]).tolist():  # every weight is positive
        hits.append(_binomial_exact(left, q, rng).astype(object))
        left = left - hits[-1]
    return hits + [left]


def _make_past_draw(law: OffspringLaw):
    """Return past(z, rng): the exact totals of the counts in the array z,
    each past the block bound and at most the lane's limit, int64 when every
    total fits and object otherwise.

    A Binomial(n, p) total is Bin(n z, p), and a pmf total weighs its atom
    counts.  A Poisson or Geometric total is one ``_poisson_exact`` draw,
    with z split into the float64-exact parts z - z mod 2^40 and z mod 2^40.
    A Poisson mean is lam times their sum.  A Geometric total, a negative
    binomial, is Poisson(m G) for the law's mean m and G ~ Gamma(z), drawn
    count by count as the gammas of the two parts (a zero part draws none).
    """
    if isinstance(law, Binomial):
        return lambda z, rng: _binomial_exact(z.astype(object) * law.n, law.p, rng)
    if isinstance(law, ExplicitPmf):
        ks, ps = law.pmf_table()
        return lambda z, rng: _counts(sum(k * hits for k, hits in
                                          zip(ks.tolist(), _multinomial_exact(z, ps, rng))).tolist())
    mixed, scale = isinstance(law, Geometric), law.mean()

    def past(z, rng):
        # z <= _EXACT_LIMIT, so z - z mod 2^40 has at most 50 significant bits
        low = z % (1 << 40)
        parts = np.stack((z - low, low), axis=1).astype(np.float64)
        if mixed:
            parts = rng.standard_gamma(parts)
        return _poisson_exact(scale * (parts[:, 0] + parts[:, 1]), rng)
    return past


def _lanes(law: OffspringLaw, cap: int):
    """The (bound, draw, past, limit, cap, max_k) arguments of ``_draw_offspring``
    for a law, which ``_run_batch`` builds once a batch: a batch builds its
    binomial table once and shares it with no other.  ``bound``, the block
    size, keeps the int64 lane's totals within int64; ``limit``, the largest
    parent count the exact lane draws, keeps its binomial counts and means
    within ``_EXACT_LIMIT``."""
    m, mk = law.mean(), law.max_k()
    bound = min(_MAX_BLOCK, int(_MEAN_BUDGET / m)) if m > 1.0 else _MAX_BLOCK
    if mk:
        bound = min(bound, _MEAN_BUDGET // mk)
    limit = int(_EXACT_LIMIT / max(m, 1.0))
    if isinstance(law, Binomial):
        bound, limit = min(bound, _MAX_BLOCK // law.n), _EXACT_LIMIT // law.n
    return bound, _make_block_draw(law), _make_past_draw(law), limit, cap, mk


@functools.lru_cache(maxsize=256)
def _make_total_sampler(law: OffspringLaw, population_cap: int, per_particle: bool):
    """Build fn(z, rng) -> int distributed as the sum of z draws from law:
    per particle, one inverse-CDF uniform a parent, or else the batch
    kernel's ``_draw_offspring`` on one entry."""
    if per_particle:
        population_cap = min(population_cap, _COUPLED_CAP)
        ks, ps = law.pmf_table()
        # one clipped atom passes the cap, and a slab of them sums far below 2^63
        ks = np.minimum(ks, population_cap + 1)
        cdf = np.cumsum(ps)
        top = len(ks) - 1

        def sample(z, rng):
            if z > population_cap:
                raise PopulationOverflow(f"parent count {z} exceeds cap {population_cap}")
            total = 0
            for done in range(0, z, _SLAB):
                # cdf.searchsorted and np.add.reduce skip dispatch layers: us per coupled step
                idx = cdf.searchsorted(rng.random(min(z - done, _SLAB)), side="right")
                np.minimum(idx, top, out=idx)  # residual tail mass maps to the last atom
                total += int(np.add.reduce(ks[idx]))
                if total > population_cap:
                    raise PopulationOverflow(f"offspring total exceeded cap {population_cap}")
            return total

        return sample

    lanes = _lanes(law, population_cap)

    def sample(z, rng):  # the batch kernel's draw, on one entry
        off, failed = _draw_offspring(_counts([z]), rng, *lanes)
        if failed:
            raise failed[0]
        return int(off[0])

    return sample


def sample_offspring_total(law: OffspringLaw, z: int, rng,
                           population_cap: int = DEFAULT_POPULATION_CAP) -> int:
    """Total offspring of z independent parents drawn from the law, as the
    batch kernel draws one trial of z parents.

    ``rng`` is a numpy Generator.  Raises PopulationOverflow when the total
    (or the parent count itself) exceeds ``population_cap``.
    """
    if z < 0:
        raise ValueError(f"parent count must be nonnegative, got {z}")
    return _make_total_sampler(law, population_cap, False)(int(z), rng)


def sample_offspring_totals(law: OffspringLaw, z: int, size: int, rng,
                            population_cap: int = DEFAULT_POPULATION_CAP) -> np.ndarray:
    """Vector of ``size`` independent copies of the z-parent offspring total,
    drawn as the batch kernel draws ``size`` trials of z parents."""
    if z < 0:
        raise ValueError(f"parent count must be nonnegative, got {z}")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    totals, failed = _draw_offspring(_counts([z]).repeat(size), rng, *_lanes(law, population_cap))
    if failed:
        raise failed[min(failed)]
    return totals


@dataclass
class Trajectory:
    """Generation-indexed population counts with absorption metadata.

    counts[0] is the initial size and len(counts) == horizon + 1; once a
    count hits 0 the remaining entries are 0.  ``absorbed_at`` is the first
    zero generation, and stays None for policies that can revive from 0
    (phi with phi(0) > 0), where only a zero count at the horizon is treated
    as extinction.
    """

    counts: list[int]
    absorbed_at: int | None
    horizon: int

    @property
    def final(self) -> int:
        return self.counts[-1]

    def extinction_generation(self) -> int | None:
        """First generation counted as extinct, or None if surviving."""
        if self.absorbed_at is not None:
            return self.absorbed_at
        if self.counts[-1] == 0:
            return self.horizon
        return None


@dataclass
class BatchResult:
    """Aggregates over a batch of independent trajectories.

    ``extinction_generations[i]`` is the generation at which trial i was
    first counted extinct, or -1 if it survived to the horizon.  Counts are
    exact integers, so identical configs reproduce identical results no
    matter how trials were scheduled.  Trajectories alive at the horizon
    count as surviving, so the extinction fraction underestimates the
    limiting extinction probability.
    """

    trials: int
    horizon: int
    extinct_by_horizon: int
    extinction_fraction: float
    mean_final_size_given_survival: float
    per_generation_extinct_counts: np.ndarray = field(repr=False)
    per_generation_alive_counts: np.ndarray = field(repr=False)
    per_generation_alive_size_sums: list = field(repr=False)
    extinction_generations: np.ndarray = field(repr=False)
    sampled_trajectories: list = field(repr=False)
    failed_trials: list = field(repr=False)


# Trials that share one set of block streams; trial t always belongs to block
# t // _TRIAL_BLOCK, whatever the trial count.  A block pays a fixed cost per
# generation (numpy's argument checks, the exact lane's array work, its
# straggler generations), so larger blocks pay it less often, but a failure
# within the budget replays the whole block and a custom rule keeps every
# trial's history in it.  2^14 is the largest block whose alive sum at the
# default cap is one int64 sum: 2^48 * 2^14 = 2^62.
_TRIAL_BLOCK = 1 << 14


@dataclass(frozen=True)
class _Batch:
    """Validated settings that every block of a batch shares."""

    law: OffspringLaw
    horizon: int
    seed: int
    initial: int
    cap: int
    n_sample: int
    budget: int
    coupled: bool
    lanes: tuple  # the ``_lanes`` of the law and cap, built for this batch
    units_table: object = None  # a _TableDraw of what a mating step leaves


def _draw_offspring(units, gen, bound, draw, past, limit, cap, max_k):
    """Offspring totals for ``units`` parents each, and {position: failure}.

    Entries within the int64 bound take one sized ``draw``, in ascending
    trial order.  Entries past it follow, drawn together by ``past``; one
    above the cap or ``limit`` fails and draws nothing.  The totals are
    int64 when every one fits, object otherwise.
    The law's ``max_k`` (None: unbounded) can spare the last cap check.
    """
    failures = {}
    top = np.maximum.reduce(units, initial=0)  # skips ndarray.max's Python layer
    if top <= bound and np.count_nonzero(units) == units.size:  # one draw, no masks
        off = draw(units.astype(np.int64, copy=False), gen)
    else:
        small = (units > 0) & (units <= bound)
        off = np.zeros(units.size, dtype=np.int64)
        if small.any():
            off[small] = draw(units[small].astype(np.int64), gen)
    if top > bound:
        where = np.flatnonzero(units > bound)
        z = units[where]
        over, many = z > cap, z > limit
        for i, zi in zip(where[over].tolist(), z[over].tolist()):
            failures[i] = PopulationOverflow(f"parent count {zi} exceeds cap {cap}")
        for i, zi in zip(where[many & ~over].tolist(), z[many & ~over].tolist()):
            failures[i] = PopulationOverflow(f"parent count {zi} exceeds {limit}, "
                                             f"the largest the exact lane draws")
        where, z = where[~(over | many)], z[~(over | many)]
        totals = past(z, gen)
        over = totals > cap
        for i in where[over].tolist():
            failures[i] = PopulationOverflow(f"offspring total exceeded cap {cap}")
        if over.any():  # the failed totals may be the only ones past int64
            where, totals = where[~over], _counts(totals[~over].tolist())
        off = off.astype(totals.dtype, copy=False)
        off[where] = totals
    ceiling = INT64_MAX if max_k is None else int(min(top, bound)) * max(max_k, 1)
    if ceiling > cap and (top > cap or off.max(initial=0) > cap):
        for i in np.flatnonzero(((units > cap) & (units <= bound)) | (off > cap)).tolist():
            failures[i] = PopulationOverflow(
                f"{units[i]} parents with {off[i]} offspring exceed cap {cap}")
    return off, failures


def _draw_coupled(sample, units, seed, trials, n):
    """``_draw_offspring`` per particle, on each trial's generation-keyed stream."""
    off, failures = [0] * len(units), {}
    for i, (t, u) in enumerate(zip(trials.tolist(), units.tolist())):
        try:
            off[i] = sample(u, spawn_generator(seed, t, STREAM_OFFSPRING, n)) if u else 0
        except PopulationOverflow as exc:
            failures[i] = exc
    return _counts(off), failures


def _run_vector_block(policy, batch, lo, hi, counted=None):
    """Step trials [lo, hi) together, generation by generation, ``policy.units``
    before and ``policy.apply`` after each draw; ``counted`` masks the trials
    that enter the aggregates.  A custom rule, given each trial's counts so
    far, or a coupled rule that draws applies to one live trial at a time.
    On the table lane a step may be a span of generations, in all of which
    but the last every trial lives; with the batch's ``units_table`` a step
    whose counts fit its rows is one lookup, and neither units nor apply runs.
    Returns (extinction generations, alive counts, alive sums, samples, failures)."""
    gens = block_generators(batch.seed, lo // _TRIAL_BLOCK)
    horizon, revive, stream = batch.horizon, policy.revives_zero, policy.stream
    custom = isinstance(policy, CustomAbsorption)
    each = custom or batch.coupled and stream is not None
    sample = batch.coupled and _make_total_sampler(batch.law, batch.cap, True)
    small_sums = not policy.grows and batch.cap * (hi - lo) < 1 << 63  # each count <= cap
    eg = np.full(hi - lo, -1, dtype=np.int64)
    alive_counts = [0] * (horizon + 1)
    alive_sums = [0] * (horizon + 1)
    tracks = [[] for _ in range(hi - lo if custom else min(max(batch.n_sample - lo, 0), hi - lo))]
    failures = []
    idx = np.arange(hi - lo)  # live trials, ascending, with their counts z
    z = np.repeat(_counts([batch.initial]), hi - lo)
    if batch.initial == 0 and not revive:
        eg[:] = 0
        idx, z = idx[:0], z[:0]
    draw, ctl = batch.lanes[1], None if stream is None else gens[stream]
    tabled = batch.units_table
    # a table-lane block steps a span of generations per ``random_raw``
    spanning = (isinstance(draw, _TableDraw) and draw.spans and draw.most <= batch.cap
                and counted is None and not (batch.coupled or custom or policy.grows)
                and type(policy).units is ControlPolicy.units)
    n, span = 0, 1
    while True:
        seen = z if counted is None else z[counted[idx]]
        if revive:
            seen = seen[seen > 0]
        alive_counts[n] = seen.size
        if seen.dtype == object or small_sums or not int(seen.max(initial=0)) * seen.size >> 63:
            alive_sums[n] = int(seen.sum())  # of Python ints for an object block
        else:  # 32-bit halves of at most 2^14 nonnegative counts each sum below 2^46
            alive_sums[n] = (int((seen >> 32).sum()) << 32) + int((seen & 0xFFFFFFFF).sum())
        if tracks:
            k = int(np.searchsorted(idx, len(tracks)))
            for t, zt in zip(idx[:k].tolist(), z[:k].tolist()):
                tracks[t].append(zt)
        if n == horizon or not idx.size:
            break
        if tabled:  # a generation of what the policy leaves, in one lookup
            rows = tabled.steps(z, 1, gens[STREAM_OFFSPRING])
        else:
            count = min(span, horizon - n, _SPAN_RAWS // idx.size) if spanning else 0
            rows = draw.steps(z, count, gens[STREAM_OFFSPRING], policy, n, ctl) if count else ()
        span = max(2 * len(rows), 1)
        if len(rows):  # every trial is alive in each row but the last
            alive_counts[n + 1:n + len(rows)] = [idx.size] * (len(rows) - 1)
            alive_sums[n + 1:n + len(rows)] = np.add.reduce(rows[:-1], axis=1).tolist()
            if tracks:
                for t, col in zip(idx[:k].tolist(), rows[:-1, :k].T.tolist()):
                    tracks[t].extend(col)
            n, z, failed = n + len(rows), rows[-1].copy(), {}  # a copy: the span can go
            del rows
        else:
            n += 1
            off, failed = (_draw_coupled(sample, policy.units(z), batch.seed, lo + idx, n)
                           if batch.coupled else
                           _draw_offspring(policy.units(z), gens[STREAM_OFFSPRING], *batch.lanes))
            rng = ctl
            for i, t in enumerate(idx.tolist() if each else ()):
                if batch.coupled and rng is not None:  # the trial's own stream
                    rng = spawn_generator(batch.seed, lo + t, stream, n)
                try:
                    if i not in failed:
                        off[i:i + 1] = policy.apply(off[i:i + 1], n, rng,
                                                    *((tracks[t],) if custom else ()))
                except ConfigError:
                    raise
                except BranchsimError as exc:
                    failed[i] = exc
            z = off if each else policy.apply(off, n, rng)
            if policy.grows:  # no draw bounded the counts the rule leaves
                for i in np.flatnonzero(z > batch.cap).tolist():
                    failed.setdefault(i, PopulationOverflow(f"{z[i]} units exceed cap {batch.cap}"))
        if failed or not revive and np.count_nonzero(z) < z.size:
            drop = (z == 0) & (not revive)
            eg[idx[drop]] = n
            for i, exc in failed.items():
                eg[idx[i]] = -1
                drop[i] = True
                failures.append(BatchTrialError(lo + int(idx[i]), exc))
            idx, z = idx[~drop], z[~drop]
    if counted is None and failures and len(failures) <= batch.budget:
        # a failed trial contributes to no aggregate: replay the block, whose
        # draws do not depend on what is counted, leaving the failed trials out
        counted = np.ones(hi - lo, dtype=bool)
        counted[[f.trial_index - lo for f in failures]] = False
        return _run_vector_block(policy, batch, lo, hi, counted)
    if revive:
        eg[idx[z == 0]] = horizon
    failed_at = {f.trial_index for f in failures}
    sampled = []
    for t, counts in enumerate(tracks[:max(batch.n_sample - lo, 0)]):
        if lo + t not in failed_at:
            counts.extend([0] * (horizon + 1 - len(counts)))
            absorbed = None if revive or eg[t] < 0 else int(eg[t])
            sampled.append(Trajectory(counts=counts, absorbed_at=absorbed, horizon=horizon))
    return eg, alive_counts, alive_sums, sampled, failures


def _run_batch(config, initial, policy, units_table=None) -> BatchResult:
    """Validate the shared settings, run the blocks and aggregate.  Trial
    failures beyond ``config.failure_budget`` abort the batch at the block
    that passes it, with the failure of the lowest trial index.
    ``units_table`` is a ``table._TableDraw`` whose row z draws what
    ``policy.apply`` leaves of the offspring of z parents, from the
    offspring stream alone, with no total past the cap, or None.
    """
    horizon, trials, initial = int(config.horizon), int(config.trials), int(initial)
    cap = int(getattr(config, "population_cap", DEFAULT_POPULATION_CAP))
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if initial < 0 or initial > cap:
        raise ConfigError(f"initial size {initial} outside [0, cap]")
    batch = _Batch(law=config.law, horizon=horizon, seed=int(config.master_seed),
                   initial=initial, cap=cap, lanes=_lanes(config.law, cap),
                   n_sample=int(getattr(config, "sample_trajectories", 0)),
                   budget=int(getattr(config, "failure_budget", 0)),
                   coupled=bool(getattr(config, "coupled", False)), units_table=units_table)

    # blocks run one after another: a thread pool over blocks made the
    # 2-thread benchmark workload slower, since the exact lane and the
    # per-generation bookkeeping hold the interpreter lock
    results, failures = [], []
    for lo in range(0, trials, _TRIAL_BLOCK):
        results.append(_run_vector_block(policy, batch, lo, min(lo + _TRIAL_BLOCK, trials)))
        failures += sorted(results[-1][4], key=lambda f: f.trial_index)
        if len(failures) > batch.budget:  # later blocks hold only later trials
            raise failures[0]
    eg = np.delete(np.concatenate([r[0] for r in results]),
                   [f.trial_index for f in failures])
    alive_counts = np.sum([r[1] for r in results], axis=0, dtype=np.int64)
    alive_sums = [sum(col) for col in zip(*(r[2] for r in results))]
    n_ok = eg.size
    extinct_mask = eg >= 0
    extinct = int(extinct_mask.sum())
    # a trial survives iff it is alive at the horizon
    survivors = int(alive_counts[horizon])
    return BatchResult(
        trials=n_ok,
        horizon=horizon,
        extinct_by_horizon=extinct,
        extinction_fraction=extinct / n_ok if n_ok else math.nan,
        mean_final_size_given_survival=(alive_sums[horizon] / survivors
                                        if survivors else math.nan),
        per_generation_extinct_counts=np.cumsum(
            np.bincount(eg[extinct_mask], minlength=horizon + 1)[:horizon + 1]),
        per_generation_alive_counts=alive_counts,
        per_generation_alive_size_sums=alive_sums,
        extinction_generations=eg,
        sampled_trajectories=[traj for r in results for traj in r[3]],
        failed_trials=failures,
    )


def run_batch(config, threads: int = 1) -> BatchResult:
    """Run ``config.trials`` independent trajectories and aggregate them.

    Trials run in blocks of ``_TRIAL_BLOCK`` (2^14), trial t in block
    t // ``_TRIAL_BLOCK`` whatever the trial count, so every full block of a
    batch repeats in any longer batch of the same config.  A block steps
    all its live trials together on streams keyed by the block or, coupled,
    by trial and generation, so the result is a pure function of the
    config.  Trial failures beyond ``config.failure_budget`` abort the
    batch.  ``threads`` is accepted for compatibility and changes nothing.
    """
    policy = getattr(config, "policy", None) or ControlPolicy()
    return _run_batch(config, getattr(config, "initial_size", 1), policy)
