"""Core simulation: offspring-sum sampling, trajectory stepping, Monte Carlo batches.

Population counts are Python integers, so runs may exceed 2^63 when the
configured cap allows it.  Offspring sums are drawn from exact closed-form
equivalents (Poisson, negative binomial, binomial, multinomial) in parent
blocks small enough that every underlying numpy draw stays safely inside
int64.  Batches step every live trial of a block together: one sized draw
per generation for the trials within the int64 bound, and one exact draw
per trial past it.  A per-particle inverse-CDF mode exists for monotone
coupling: with generation-keyed streams, the draw for parent i is the same
in two runs, so the offspring total is nondecreasing in the parent count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .control import (Absorbing, CustomAbsorption, Disaster, LowerBoundary, Phi,
                      Truncation, TruncationAsAbsorption, apply_absorption,
                      apply_truncation)
from .errors import BatchTrialError, BranchsimError, ConfigError, PopulationOverflow
from .law import Binomial, ExplicitPmf, Geometric, OffspringLaw, Poisson
from .rng import STREAM_CONTROL, STREAM_OFFSPRING, TrialStreams, block_generators

DEFAULT_POPULATION_CAP = 1 << 48

# Largest parent block handed to one numpy draw.  Blocks must be exactly
# representable as float64 (<= 2^53) and keep block * mean well under 2^63.
_MAX_BLOCK = 1 << 53
_MEAN_BUDGET = 1 << 61
_SLAB = 1 << 20  # numpy draws per vectorized slab when many blocks are needed

HORIZON_NOTE = ("trajectories alive at the horizon count as surviving; "
                "the extinction fraction therefore underestimates the "
                "limiting extinction probability")


def _block_size(law: OffspringLaw) -> int:
    m = law.mean()
    block = _MAX_BLOCK
    if m > 1.0:
        block = min(block, int(_MEAN_BUDGET / m))
    mk = law.max_k()
    if mk is not None and mk > 0:
        block = min(block, _MEAN_BUDGET // mk)
    if isinstance(law, Binomial):
        block = min(block, _MEAN_BUDGET // law.n)
    return max(block, 1)


def _make_block_draw(law: OffspringLaw):
    """Return draw(z, size, rng): ``size`` offspring totals of z parents each,
    or one total when size is None, for z (a count or an int64 array of
    counts) within the block size."""
    if isinstance(law, Poisson):
        return lambda z, size, rng: rng.poisson(z * law.lam, size=size)
    if isinstance(law, Geometric):
        return lambda z, size, rng: rng.negative_binomial(z, 1.0 - law.r, size=size)
    if isinstance(law, Binomial):
        return lambda z, size, rng: rng.binomial(z * law.n, law.p, size=size)
    if not isinstance(law, ExplicitPmf):
        raise ConfigError(f"no sampler for law kind {law.kind!r}")
    ks_np, ps = law.pmf_table()
    pvals = ps.astype(np.float64).copy()
    # multinomial rejects pvals whose head sums a few ulp above 1
    pvals[-1] = max(0.0, 1.0 - pvals[:-1].sum())
    if len(ks_np) == 1:
        k0 = int(ks_np[0])
        return lambda z, size, rng: np.full(() if size is None else size, k0 * z,
                                            dtype=np.int64)
    if len(ks_np) == 2:
        # a two-atom pmf needs only one binomial count
        k_lo, k_hi = (int(k) for k in ks_np)
        p_hi = float(pvals[1])
        return lambda z, size, rng: k_lo * z + (k_hi - k_lo) * rng.binomial(z, p_hi, size=size)
    return lambda z, size, rng: rng.multinomial(z, pvals, size=size) @ ks_np


@lru_cache(maxsize=256)
def _make_total_sampler(law: OffspringLaw, population_cap: int, per_particle: bool):
    """Build fn(z, rng) -> int distributed as the sum of z draws from law."""
    if per_particle:
        ks, ps = law.pmf_table()
        cdf = np.cumsum(ps)
        top = len(ks) - 1

        def sample(z, rng):
            if z == 0:
                return 0
            if z > population_cap:
                raise PopulationOverflow(f"parent count {z} exceeds cap {population_cap}")
            total = 0
            done = 0
            while done < z:
                take = min(z - done, _SLAB)
                idx = np.searchsorted(cdf, rng.random(take), side="right")
                if top == 0:
                    total += int(ks[0]) * take
                else:
                    np.minimum(idx, top, out=idx)  # residual tail mass maps to the last atom
                    total += int(ks[idx].sum())
                done += take
                if total > population_cap:
                    raise PopulationOverflow(f"offspring total exceeded cap {population_cap}")
            return total

        return sample

    block = _block_size(law)
    draw = _make_block_draw(law)

    def sample(z, rng):
        if z == 0:
            return 0
        if z > population_cap:
            raise PopulationOverflow(f"parent count {z} exceeds cap {population_cap}")
        if z <= block:
            total = int(draw(z, None, rng))
        else:
            full, rem = divmod(z, block)
            total = int(draw(rem, None, rng)) if rem else 0
            while full > 0:
                take = min(full, _SLAB)
                total += sum(draw(block, int(take), rng).tolist())
                full -= take
                if total > population_cap:
                    raise PopulationOverflow(f"offspring total exceeded cap {population_cap}")
        if total > population_cap:
            raise PopulationOverflow(f"offspring total {total} exceeds cap {population_cap}")
        return total

    return sample


def sample_offspring_total(law: OffspringLaw, z: int, rng,
                           population_cap: int = DEFAULT_POPULATION_CAP,
                           per_particle: bool = False) -> int:
    """Total offspring of z independent parents drawn from the law.

    ``rng`` is a numpy Generator.  Raises PopulationOverflow when the total
    (or the parent count itself) exceeds ``population_cap``.
    """
    if z < 0:
        raise ValueError(f"parent count must be nonnegative, got {z}")
    return _make_total_sampler(law, population_cap, per_particle)(int(z), rng)


def sample_offspring_totals(law: OffspringLaw, z: int, size: int, rng,
                            population_cap: int = DEFAULT_POPULATION_CAP) -> np.ndarray:
    """Vector of ``size`` independent copies of the z-parent offspring total.

    Intended for estimators with moderate z; z must fit into one sampling
    block so each total is a single int64-safe draw.
    """
    if z < 0:
        raise ValueError(f"parent count must be nonnegative, got {z}")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    if z == 0:
        return np.zeros(size, dtype=np.int64)
    if z > _block_size(law):
        raise ValueError(f"parent count {z} too large for vectorized sampling")
    totals = np.asarray(_make_block_draw(law)(z, size, rng), dtype=np.int64)
    if totals.size and int(totals.max()) > population_cap:
        raise PopulationOverflow(f"offspring total exceeds cap {population_cap}")
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


def _make_stepper(law, policy, population_cap, per_particle):
    """Return advance(z, n, streams, counts) -> the next count of one trial."""
    draw = _make_total_sampler(law, population_cap, per_particle)
    if policy is None:
        def advance(z, n, streams, counts):
            return draw(z, streams.offspring(n))
    elif isinstance(policy, Truncation):
        def advance(z, n, streams, counts):
            return apply_truncation(draw(z, streams.offspring(n)), n, policy.g)
    elif isinstance(policy, Absorbing):
        def advance(z, n, streams, counts):
            offspring = draw(z, streams.offspring(n))
            return apply_absorption(offspring, n, policy.rule, counts, streams.control(n))
    elif isinstance(policy, Phi):
        def advance(z, n, streams, counts):
            return draw(int(policy.phi(z)), streams.offspring(n))
    else:
        raise ConfigError(f"unknown control policy {type(policy).__name__}")
    return advance


def step(state: int, law: OffspringLaw, policy, generation: int, history, rng,
         population_cap: int = DEFAULT_POPULATION_CAP, per_particle: bool = False) -> int:
    """Advance one generation from ``state`` under the optional policy.

    ``rng`` is a TrialStreams bundle; ``history`` (a Trajectory, or any
    object with a ``counts`` list) is consulted only by custom absorbing
    rules.  Without a policy this is just the offspring total of ``state``
    parents.
    """
    if generation < 1:
        raise ValueError(f"generation must be >= 1, got {generation}")
    if state < 0:
        raise ValueError(f"state must be nonnegative, got {state}")
    advance = _make_stepper(law, policy, population_cap, per_particle)
    counts = getattr(history, "counts", history)
    return advance(state, generation, rng, counts)


def simulate_trajectory(law: OffspringLaw, policy, horizon: int, streams: TrialStreams,
                        initial_size: int = 1,
                        population_cap: int = DEFAULT_POPULATION_CAP,
                        per_particle: bool = False) -> Trajectory:
    """Run one trajectory to the horizon (or to absorption)."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if initial_size < 0 or initial_size > population_cap:
        raise ConfigError(f"initial size {initial_size} outside [0, cap]")
    advance = _make_stepper(law, policy, population_cap, per_particle)
    revive = isinstance(policy, Phi) and policy.revives_zero

    z = initial_size
    counts = [z]
    absorbed = None
    if z == 0 and not revive:
        absorbed = 0
    else:
        for n in range(1, horizon + 1):
            z = advance(z, n, streams, counts)
            counts.append(z)
            if z == 0 and not revive:
                absorbed = n
                break
    if len(counts) < horizon + 1:
        counts.extend([0] * (horizon + 1 - len(counts)))
    return Trajectory(counts=counts, absorbed_at=absorbed, horizon=horizon)


@dataclass
class BatchResult:
    """Aggregates over a batch of independent trajectories.

    ``extinction_generations[i]`` is the generation at which trial i was
    first counted extinct, or -1 if it survived to the horizon.  Counts are
    exact integers, so identical configs reproduce identical results no
    matter how trials were scheduled.
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
    horizon_note: str = HORIZON_NOTE


_TRIAL_BLOCK = 4096  # trials that share one set of block streams; trial t always
                     # belongs to block t // _TRIAL_BLOCK, whatever the trial count


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
    revive: bool


def _counts(values) -> np.ndarray:
    """Exact integer array: int64 when every value fits, object otherwise."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _vector_policy(policy):
    """Return (units, finish) for the generation-synchronous kernel.

    ``units`` maps the counts of the live trials to their reproducing units;
    ``finish`` maps their offspring totals, the generation and the block's
    generators (indexed by stream) to the next counts.  Both work on int64
    and object arrays alike; None stands for the identity.
    """
    if isinstance(policy, Phi):
        return (lambda z: _counts([int(policy.phi(x)) for x in z.tolist()])), None
    rule = policy.rule if isinstance(policy, Absorbing) else policy
    if rule is None:
        finish = None
    elif isinstance(rule, (Truncation, TruncationAsAbsorption)):
        # absorbing the overshoot above g(n) leaves min(offspring, g(n))
        def finish(off, n, gens):
            cap = int(rule.g(n))
            off[off > cap] = cap
            return off
    elif isinstance(rule, Disaster):
        def finish(off, n, gens):
            off[gens[STREAM_CONTROL].random(off.size) < rule.delta.prob(n)] = 0
            return off
    elif isinstance(rule, LowerBoundary):
        def finish(off, n, gens):
            off[off < int(rule.b(n))] = 0
            return off
    else:
        raise ConfigError(f"unknown control policy {type(policy).__name__}")
    return None, finish


def _draw_offspring(units, gen, bound, draw, sample, cap):
    """Offspring totals for ``units`` parents each, and {position: failure}.

    Entries within the int64 bound take one sized draw, in ascending trial
    order; entries past it then take one exact Python-int draw each.
    """
    big = units > bound
    small = (units > 0) & ~big
    off = np.zeros(units.size, dtype=object if big.any() else np.int64)
    if small.any():
        parents = units[small].astype(np.int64)
        off[small] = draw(parents, parents.size, gen)
    failures = {}
    for i in np.flatnonzero(big).tolist():
        try:
            off[i] = sample(int(units[i]), gen)
        except PopulationOverflow as exc:
            failures[i] = exc
    for i in np.flatnonzero(small & ((units > cap) | (off > cap))).tolist():
        failures[i] = PopulationOverflow(
            f"{units[i]} parents with {off[i]} offspring exceed cap {cap}")
    return off, failures


def _run_vector_block(units, finish, batch, lo, hi, counted=None):
    """Step trials [lo, hi) together, generation by generation, on the block's
    streams; ``counted`` masks the trials that enter the aggregates."""
    gens = block_generators(batch.seed, lo // _TRIAL_BLOCK)
    lanes = (_block_size(batch.law), _make_block_draw(batch.law),
             _make_total_sampler(batch.law, batch.cap, False), batch.cap)
    horizon, revive = batch.horizon, batch.revive
    eg = np.full(hi - lo, -1, dtype=np.int64)
    alive_counts = [0] * (horizon + 1)
    alive_sums = [0] * (horizon + 1)
    tracks = [[] for _ in range(min(max(batch.n_sample - lo, 0), hi - lo))]
    failures = []
    idx = np.arange(hi - lo)  # live trials, ascending, with their counts z
    z = np.repeat(_counts([batch.initial]), hi - lo)
    if batch.initial == 0 and not revive:
        eg[:] = 0
        idx, z = idx[:0], z[:0]
    for n in range(horizon + 1):
        if n:
            off, failed = _draw_offspring(z if units is None else units(z),
                                          gens[STREAM_OFFSPRING], *lanes)
            z = off if finish is None else finish(off, n, gens)
            drop = (z == 0) & (not revive)
            eg[idx[drop]] = n
            for i, exc in failed.items():
                eg[idx[i]] = -1
                drop[i] = True
                failures.append(BatchTrialError(lo + int(idx[i]), exc))
            idx, z = idx[~drop], z[~drop]
        seen = z if counted is None else z[counted[idx]]
        if revive:
            seen = seen[seen > 0]
        alive_counts[n] = seen.size
        alive_sums[n] = sum(seen.tolist())
        k = int(np.searchsorted(idx, len(tracks)))
        for t, zt in zip(idx[:k].tolist(), z[:k].tolist()):
            tracks[t].append(zt)
        if not idx.size:
            break
    if counted is None and failures and len(failures) <= batch.budget:
        # a failed trial contributes to no aggregate: replay the block, whose
        # draws do not depend on what is counted, leaving the failed trials out
        counted = np.ones(hi - lo, dtype=bool)
        counted[[f.trial_index - lo for f in failures]] = False
        return _run_vector_block(units, finish, batch, lo, hi, counted)
    if revive:
        eg[idx[z == 0]] = horizon
    failed_at = {f.trial_index for f in failures}
    sampled = []
    for t, counts in enumerate(tracks):
        if lo + t not in failed_at:
            counts.extend([0] * (horizon + 1 - len(counts)))
            absorbed = None if revive or eg[t] < 0 else int(eg[t])
            sampled.append(Trajectory(counts=counts, absorbed_at=absorbed, horizon=horizon))
    return eg, alive_counts, alive_sums, sampled, failures


def _run_trials(policy, coupled, batch, lo, hi):
    """Step trials [lo, hi) one at a time, each on its own streams."""
    eg = np.full(hi - lo, -1, dtype=np.int64)
    alive_counts = [0] * (batch.horizon + 1)
    alive_sums = [0] * (batch.horizon + 1)
    sampled = []
    failures = []
    for t in range(lo, hi):
        try:
            traj = simulate_trajectory(batch.law, policy, batch.horizon,
                                       TrialStreams(batch.seed, t, coupled),
                                       batch.initial, batch.cap, coupled)
        except BranchsimError as exc:  # a failed trial joins no aggregate
            failures.append(BatchTrialError(t, exc))
            continue
        extinct_at = traj.extinction_generation()
        eg[t - lo] = -1 if extinct_at is None else extinct_at
        for n, zn in enumerate(traj.counts):
            if zn:
                alive_counts[n] += 1
                alive_sums[n] += zn
        if t < batch.n_sample:
            sampled.append(traj)
    return eg, alive_counts, alive_sums, sampled, failures


def _run_batch(config, initial, revive, run_block) -> BatchResult:
    """Validate the shared settings, run every block and aggregate.

    ``run_block(batch, lo, hi)`` returns, for trials [lo, hi), their
    extinction generations, the alive counts and alive size sums per
    generation, their sampled trajectories and their failures.  Trial
    failures beyond ``config.failure_budget`` abort the batch.
    """
    batch = _Batch(law=config.law, horizon=int(config.horizon),
                   seed=int(config.master_seed), initial=int(initial),
                   cap=int(getattr(config, "population_cap", DEFAULT_POPULATION_CAP)),
                   n_sample=int(getattr(config, "sample_trajectories", 0)),
                   budget=int(getattr(config, "failure_budget", 0)), revive=revive)
    horizon, trials = batch.horizon, int(config.trials)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if batch.initial < 0 or batch.initial > batch.cap:
        raise ConfigError(f"initial size {batch.initial} outside [0, cap]")

    # blocks run one after another: a thread pool over blocks made the
    # 2-thread benchmark workload slower, since the exact lane and the
    # per-generation bookkeeping hold the interpreter lock
    results = [run_block(batch, lo, min(lo + _TRIAL_BLOCK, trials))
               for lo in range(0, trials, _TRIAL_BLOCK)]
    failures = sorted((f for r in results for f in r[4]), key=lambda f: f.trial_index)
    if len(failures) > batch.budget:
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

    Trials run in blocks of ``_TRIAL_BLOCK``, each block stepping all its
    live trials together on streams keyed by the block, so the result is a
    pure function of the config.  Coupled per-particle mode and custom
    absorbing rules step one trial at a time on per-trial streams.  Trial
    failures beyond ``config.failure_budget`` abort the batch.  ``threads``
    is accepted for compatibility and changes nothing.
    """
    policy = getattr(config, "policy", None)
    coupled = bool(getattr(config, "coupled", False))
    initial = getattr(config, "initial_size", 1)
    revive = isinstance(policy, Phi) and policy.revives_zero
    if coupled or (isinstance(policy, Absorbing)
                   and isinstance(policy.rule, CustomAbsorption)):
        run_block = partial(_run_trials, policy, coupled)
    else:
        run_block = partial(_run_vector_block, *_vector_policy(policy))
    return _run_batch(config, initial, revive, run_block)
