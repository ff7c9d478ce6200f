"""Engine: offspring-total sampling, trajectories, batch aggregation."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import sys
import threading
import tracemalloc
import weakref
from dataclasses import dataclass, field
from types import SimpleNamespace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import (
    BatchTrialError,
    Binomial,
    ConfigError,
    ControlPolicy,
    CustomAbsorption,
    Disaster,
    DisasterSchedule,
    ExplicitPmf,
    Geometric,
    InvalidRuleError,
    Phi,
    Poisson,
    PopulationOverflow,
    Trajectory,
    Truncation,
    GrowthFunction,
    LowerBoundary,
    TruncationAsAbsorption,
    run_batch,
    sample_offspring_total,
    sample_offspring_totals,
)
from branchsim import engine, table
from branchsim.bisexual import Min, _units_table, run_bisexual_batch
from branchsim.rng import STREAM_CONTROL, STREAM_OFFSPRING, spawn_generator
from branchsim.engine import (_EXACT_LIMIT, _TRIAL_BLOCK, _binomial_exact, _counts,
                              _draw_offspring, _lanes, _make_block_draw, _make_total_sampler,
                              _multinomial_exact, _poisson_exact)

BIG_CAP = 1 << 200


@dataclass
class Batch:
    """Minimal run_batch config for tests."""

    law: object
    horizon: int
    trials: int
    master_seed: int
    policy: object = None
    initial_size: int = 1
    population_cap: int = BIG_CAP
    coupled: bool = False
    sample_trajectories: int = 0
    failure_budget: int = 0


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------ total sampling

def test_zero_parents_produce_zero_offspring():
    assert sample_offspring_total(Poisson(5.0), 0, rng()) == 0


def test_single_atom_law_is_deterministic():
    law = ExplicitPmf({3: 1.0})
    assert sample_offspring_total(law, 7, rng()) == 21


def test_chunked_sampling_is_exact_at_huge_parent_counts():
    # deterministic law: the blockwise path must add up exactly
    law = ExplicitPmf({2: 1.0})
    total = sample_offspring_total(law, 1 << 60, rng(), population_cap=BIG_CAP)
    assert total == 1 << 61


def test_totals_are_python_ints_beyond_int64():
    law = ExplicitPmf({2: 1.0})
    total = sample_offspring_total(law, 1 << 62, rng(), population_cap=BIG_CAP)
    assert isinstance(total, int)
    assert total == 1 << 63  # larger than any int64


@pytest.mark.parametrize("law,m,var", [
    (Poisson(2.0), 2.0, 2.0),
    (Geometric(0.6), 1.5, 0.6 / 0.4**2),
    (Binomial(4, 0.3), 1.2, 4 * 0.3 * 0.7),
    (ExplicitPmf({0: 0.25, 2: 0.75}), 1.5, 3.0 - 1.5**2),
    (ExplicitPmf({0: 0.2, 1: 0.5, 4: 0.3}), 1.7, 0.2 * 0 + 0.5 * 1 + 0.3 * 16 - 1.7**2),
])
def test_total_matches_law_mean_and_variance(law, m, var):
    z, n = 30, 40_000
    totals = sample_offspring_totals(law, z, n, rng(12))
    se = math.sqrt(z * var / n)
    assert float(totals.mean()) == pytest.approx(z * m, abs=5 * se)
    assert float(totals.var()) == pytest.approx(z * var, rel=0.1)


def test_per_particle_sampler_matches_closed_form_distribution():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    z, n = 25, 30_000
    sample, g = _make_total_sampler(law, engine.DEFAULT_POPULATION_CAP, True), rng(3)
    by_particle = np.array([sample(z, g) for _ in range(n)])
    se = math.sqrt(z * 0.75 * (4 - 2.25) / n)
    assert float(by_particle.mean()) == pytest.approx(z * 1.5, abs=6 * se)
    assert set(np.unique(by_particle)) <= set(range(0, 2 * z + 1, 2))


def test_negative_parent_count_rejected():
    with pytest.raises(ValueError):
        sample_offspring_total(Poisson(1.0), -1, rng())


def test_cap_guards_parent_count_and_total():
    law = ExplicitPmf({2: 1.0})
    with pytest.raises(PopulationOverflow):
        sample_offspring_total(law, 2_000, rng(), population_cap=1_000)
    with pytest.raises(PopulationOverflow):
        sample_offspring_total(law, 600, rng(), population_cap=1_000)


def test_vectorized_totals_validate_arguments():
    with pytest.raises(ValueError):
        sample_offspring_totals(Poisson(1.0), -1, 10, rng())
    with pytest.raises(ValueError):
        sample_offspring_totals(Poisson(1.0), 1, -10, rng())
    assert sample_offspring_totals(Poisson(1.0), 0, 5, rng()).tolist() == [0] * 5


def binomial_reference(counts, p, gen):
    """``_binomial_exact`` drawn the plain way, in Python ints.  Entry by
    entry for the counts n past 2^53: Bin((n + 1) mod 2^s, p), s the bit
    length of n + 1 less 53, leaving 2k - 1 trials.  Then, round by round
    while more than 2^53 trials are left, entry by entry: U, the k-th of
    them, as A / (A + B) for two Gamma(k) draws; if U < p, k successes and
    p = (p - U) / (1 - U), otherwise p = p / U; k - 1 trials are left.
    Then, entry by entry, one numpy binomial of the trials left."""
    totals, left, probs = [0] * len(counts), [int(n) for n in counts], [p] * len(counts)
    wide = [i for i, n in enumerate(left) if n > 2**53]
    for i in wide:
        rem = (left[i] + 1) % 2 ** ((left[i] + 1).bit_length() - 53)
        totals[i] += int(gen.binomial(rem, p))
        left[i] -= rem
    while live := [i for i in wide if left[i] > 2**53]:
        for i in live:
            k = (left[i] + 1) // 2
            a, b = gen.standard_gamma(float(k)), gen.standard_gamma(float(k))
            u = a / (a + b)
            if u < probs[i]:
                totals[i] += k
                probs[i] = (probs[i] - u) / (1.0 - u)
            else:
                probs[i] /= u
            left[i] = k - 1
    return [t + int(gen.binomial(n, q)) for t, n, q in zip(totals, left, probs)]


def reference_offspring(law, units, gen, bound, limit, cap):
    """The exact lane drawn the plain way: one sized draw for the entries
    within the bound, then the entries past it in ascending order; an entry
    above the cap, or above ``limit``, draws nothing.

    Past the bound, a Binomial(n, p) law draws Bin(n z, p) entry by entry
    as ``binomial_reference`` does.  A pmf law of atoms k_1 .. k_j draws,
    for i = 1 .. j - 1, Bin(left, p_i / (p_i + ... + p_j)), the sum taken
    from p_j down, of every entry's parents that atoms 1 .. i - 1 left, as
    ``binomial_reference``; the last atom takes what is left.  A Poisson or Geometric law instead
    takes, entry by entry, the parts z - z mod 2^40 and z mod 2^40, and
    lam = lam_law (a + b) for a Poisson law, while a Geometric law draws a
    and b as the gammas of those shapes and takes lam = m (a + b); then,
    round by round while a lam is above 2^32, entry by entry, it counts
    n = floor(lam - 16 sqrt(lam)) arrivals and takes lam - Gamma(n), or 0 if
    that is negative; then, entry by entry, one Poisson(lam)."""
    draw = _make_block_draw(law)
    units = [int(u) for u in units]
    small = [i for i, u in enumerate(units) if 0 < u <= bound]
    off = [0] * len(units)
    if small:
        parents = np.array([units[i] for i in small], dtype=np.int64)
        for i, total in zip(small, draw(parents, gen).tolist()):
            off[i] = total
    failures = {}
    past = []
    for i, u in enumerate(units):
        if u <= bound:
            continue
        if u > cap:
            failures[i] = f"parent count {u} exceeds cap {cap}"
        elif u > limit:
            failures[i] = f"parent count {u} exceeds {limit}, the largest the exact lane draws"
        else:
            past.append(i)
    totals = dict.fromkeys(past, 0)
    if isinstance(law, (Poisson, Geometric)):
        lam = {}
        for i in past:
            a, b = float(units[i] - units[i] % 2**40), float(units[i] % 2**40)
            if isinstance(law, Poisson):
                lam[i] = law.lam * (a + b)
            else:
                lam[i] = law.r / (1 - law.r) * (gen.standard_gamma(a) + gen.standard_gamma(b))
        while any(lam[i] > 2**32 for i in past):
            for i in past:
                if lam[i] > 2**32:
                    n = math.floor(lam[i] - 16 * math.sqrt(lam[i]))
                    lam[i] = max(lam[i] - gen.standard_gamma(float(n)), 0.0)
                    totals[i] += n
        for i in past:
            totals[i] += int(gen.poisson(lam[i]))
    elif isinstance(law, Binomial):
        drawn = binomial_reference([units[i] * law.n for i in past], law.p, gen)
        totals = dict(zip(past, drawn))
    else:
        ks, ps = (a.tolist() for a in law.pmf_table())
        left = [units[i] for i in past]
        for j, k in enumerate(ks[:-1]):
            hits = binomial_reference(left, ps[j] / sum(reversed(ps[j:])), gen)
            for i, hit in zip(past, hits):
                totals[i] += k * hit
            left = [n - hit for n, hit in zip(left, hits)]
        for i, n in zip(past, left):
            totals[i] += ks[-1] * n
    for i, total in totals.items():
        if total > cap:
            failures[i] = f"offspring total exceeded cap {cap}"
        else:
            off[i] = total
    for i in small:
        if units[i] > cap or off[i] > cap:
            failures[i] = f"{units[i]} parents with {off[i]} offspring exceed cap {cap}"
    return off, failures


# the last law has mean 999, past 256, so its block size is 2^61 / 999, not 2^53
EXACT_LANE_LAWS = [Poisson(1.5), Geometric(0.6), Binomial(3, 0.5), ExplicitPmf({2: 1.0}),
                   ExplicitPmf({0: 0.25, 2: 0.75}), ExplicitPmf({0: 0.2, 1: 0.3, 3: 0.5}),
                   Geometric(0.999)]


@pytest.mark.parametrize("law", EXACT_LANE_LAWS, ids=repr)
@pytest.mark.parametrize("case", ["within", "within_no_zero", "within_small_cap",
                                  "within_total_over_cap", "int64", "roomy", "tight",
                                  "long_overflow", "past_limit", "past_small_totals"])
def test_batched_exact_lane_draws_like_one_sampler_call_per_trial(law, case):
    lane = _lanes(law, BIG_CAP)
    bound, limit = lane[0], lane[3]
    if isinstance(law, Binomial):  # numpy's binomial is exact up to 2^53 trials
        assert bound == (1 << 53) // law.n and limit == _EXACT_LIMIT // law.n
    else:
        assert bound == (1 << 53 if law.mean() <= 256 else int(2**61 / law.mean()))
    long = bound * ((1 << 20) + 1) + 1
    if case == "within":  # every entry at or below the bound, some of them zero
        units = [0, 5, bound, 17, 0, 1, bound - 1]
        cap = BIG_CAP
    elif case == "within_no_zero":
        units = [5, bound, 17, 1, bound - 1]
        cap = BIG_CAP
    elif case == "within_small_cap":
        # a unit above the cap, and a unit within it whose total passes it
        units = [3, 151, 0, 140, 1]
        cap = 150
    elif case == "within_total_over_cap":  # no unit above the cap, one total above it
        units = [3, 140, 1]
        cap = 150
    elif case == "int64":
        units = [0, 5, bound, 3 * bound, bound + 7, 17] + [900 * bound + 11] * 10 + [1]
        cap = BIG_CAP
    elif case == "long_overflow":
        # every law here has mean above 1, so the long entry's total passes
        # the cap, and the entry after it is still drawn
        units = [3, long, 2 * bound + 1, 4]
        cap = long
    elif case == "past_small_totals":
        # past the bound, with every total of every law here below 2^62
        units = [bound + 7, 0, 5, bound + bound // 2]
        cap = BIG_CAP
    elif case == "past_limit":
        # counts above the limit fail and draw nothing; the limit itself draws
        units = [3, 1 << 115, 1 << 115, 2 * bound + 1, limit + 1, limit, 4]
        cap = BIG_CAP
    else:
        units = [0, 5, bound, 3 * bound, bound + 7, 17, 5000 * bound + 3, 0, 4500 * bound,
                 5001 * bound, 3000 * bound, 7000 * bound, long, 2, 4097 * bound, 1]
        cap = BIG_CAP if case == "roomy" else 6000 * bound
    units = _counts(units)
    assert units.dtype == (object if case in ("roomy", "tight", "long_overflow", "past_limit")
                           else np.int64)
    lane = _lanes(law, cap)
    for entries in (units, units.astype(object)):  # phi may hand small units as objects
        gen, twin = np.random.default_rng(41), np.random.default_rng(41)
        off, failures = _draw_offspring(entries, gen, *lane)
        want_off, want_failures = reference_offspring(law, entries, twin, bound, limit, cap)
        assert off.tolist() == want_off
        assert {i: str(exc) for i, exc in failures.items()} == want_failures
        assert gen.bit_generator.state == twin.bit_generator.state
        assert off.dtype == (np.int64 if max(want_off) < 1 << 63 else object)
    small_mean = law.mean() <= 2  # a mean-999 law passes a cap of 150 from 1 parent on
    if case == "within_small_cap" and small_mean:
        assert {i: str(exc) for i, exc in failures.items()} == {
            1: f"151 parents with {off[1]} offspring exceed cap 150",
            3: f"140 parents with {off[3]} offspring exceed cap 150"}
    if case == "within_total_over_cap" and small_mean:
        assert {i: str(exc) for i, exc in failures.items()} == {
            1: f"140 parents with {off[1]} offspring exceed cap 150"}
    if case == "tight":
        assert set(failures) >= {6, 8, 9, 11, 12}
        assert str(failures[8]) == f"offspring total exceeded cap {cap}"
        assert str(failures[11]) == f"parent count {units[11]} exceeds cap {cap}"
    if case == "long_overflow":
        assert {i: str(exc) for i, exc in failures.items()} == {
            1: f"offspring total exceeded cap {cap}"}
        assert off[2] > 0
    if case == "past_limit":
        assert set(failures) == {1, 2, 4}
        assert str(failures[1]) == (f"parent count {1 << 115} exceeds {limit}, "
                                    "the largest the exact lane draws")
        assert off[3] > 0 and off[5] > 0 and off[6] > 0
    if case in ("int64", "roomy"):
        # the lane draws every entry's first-stage draws (arrival times,
        # gammas, remainders) before any final draw, so the one-trial sampler
        # matches it one entry at a time
        sample = _make_total_sampler(law, cap, False)
        for u in units.tolist():
            gen, third = np.random.default_rng(41), np.random.default_rng(41)
            one, failed = _draw_offspring(_counts([u]), gen, *lane)
            assert not failed and sample(u, third) == one[0]
            assert third.bit_generator.state == gen.bit_generator.state


# ----------------------------------------------------- binomial table lookup

def replay_inversion(m, n, p):
    """numpy's random_binomial_inversion on the uniform m 2^-53, p <= 1/2:
    its X, or bound + 1 where it would restart."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, math.exp(n * math.log(q)), m * 2.0**-53
    while u > px:
        x += 1
        if x > bound:
            return x
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


@pytest.mark.parametrize("p", [0.25, 0.5, 0.3, 0.123456789, 0.1, 0.001, 0.01, 1e-300,
                               0.4999999, 0.45, 0.37, 1e-9, 0.75, 0.999])
@pytest.mark.parametrize("n", range(1, 33))
def test_binomial_rows_step_within_64_units_of_numpys_loop(n, p):
    # X >= k at T_k and above in a table row; numpy's loop passes k - 1 within
    # 64 units of 2^-53 of it, and every row ends at 2^53, past every uniform
    q = min(p, 1.0 - p)
    (row, values), = table._binomial_draw(p)._rows(n, n + 1)
    assert row[-1] == 1 << 53 and np.all(np.diff(row) >= 0)
    assert values.tolist() == [n - x if p > 0.5 else x for x in range(row.size)]
    for k, key in enumerate(row.tolist(), 1):
        assert replay_inversion(max(key - 65, 0), n, q) <= k - 1, k
        if key + 64 < 1 << 53:  # 2^53 and past: never drawn
            assert replay_inversion(key + 64, n, q) >= k, k


@pytest.mark.parametrize("p", [0.75, 0.5, 0.3, 0.123456789, 0.9, 0.999, 0.01, 1.0])
def test_binomial_draw_gives_numpys_numbers(p):
    draw = table._binomial_draw(p)
    gen, twin = rng(7), rng(7)
    counts = rng(8)
    for size in (1, 2, 7, 284, 1000):
        for top in (1, 14, 32, 40):  # counts of 33 to 40 hand the call to numpy
            varied = counts.integers(1, top + 1, size)
            for n in (varied, np.full(size, top), np.full(size, varied[0])):
                assert draw(n, gen).tolist() == twin.binomial(n, p, size=size).tolist()
                assert gen.random() == twin.random()
    assert gen.bit_generator.state == twin.bit_generator.state


def row_values(draw, z):
    """A copy of ``draw``'s table values, with the slice of them that row z
    draws: its keys run from the first past z << 53 to (z + 1) << 53, and
    the value drawn below each key sits at that key's index."""
    keys, values, _ = draw._table
    at = int(keys.searchsorted(z << 53, side="right"))
    values = values.copy()
    return values, values[at:int(keys.searchsorted((z + 1) << 53)) + 1]


def edit_table(draw, values):
    """Give draw's table these values, and drop the buckets and lookup
    tables built from the old ones."""
    keys, _, built = draw._table
    draw._table, draw._merged, draw._folds = (keys, values, built), None, {}


# lookups of one count, of 500, on either side of 1024 and of 15,000, the
# trials of bench/run.py's bisexual_min config
LOOKUP_WIDTHS = [1, 500, 1023, 1024, 1025, 15_000]


@pytest.mark.parametrize("size", LOOKUP_WIDTHS)
@pytest.mark.parametrize("p", [0.75, 0.3])
def test_a_row_the_table_cannot_draw_hands_the_call_to_numpy(p, size):
    draw = table._binomial_draw(p)
    draw(np.arange(1, 6), rng())  # builds rows 1 to 10, twice the largest count
    values, row = row_values(draw, 4)
    # every uniform past the first threshold now draws -1
    row[1:] = -1
    edit_table(draw, values)
    gen, twin = rng(11), rng(11)
    for g in (gen, twin):  # a buffered 32-bit half must survive the rewind
        g.integers(0, 10, dtype=np.uint32)
    units = np.resize([4, 1, 2, 4, 5, 3, 4], size)
    want = twin.binomial(units, p, size=units.size)
    assert draw(units, gen).tolist() == want.tolist()
    assert gen.bit_generator.state == twin.bit_generator.state
    assert gen.integers(0, 1 << 32, dtype=np.uint32) == twin.integers(0, 1 << 32, dtype=np.uint32)


# fresh tables of each kind
GUIDED_TABLES = {
    "binomial": lambda: table._binomial_draw(0.3),
    "units_pmf3": lambda: _units_table(ExplicitPmf({0: 0.25, 1: 0.05, 3: 0.7}), 0.5, Min(),
                                       1 << 48),
    "units_poisson": lambda: _units_table(Poisson(1.5), 0.5, Min(), 1 << 48),
}


@pytest.mark.parametrize("name", [*GUIDED_TABLES, "bucket_ends"])
def test_the_guide_gives_the_searchsorted_index_of_every_key(name):
    draw = GUIDED_TABLES.get(name, GUIDED_TABLES["binomial"])()
    draw(np.arange(1, 33), rng())  # builds all 32 rows
    keys, values, _ = draw._table
    if name == "bucket_ends":  # keys alone at the first or the last key of a guide cell
        keys = (1 << 53) + np.array([0, (1 << 45) - 1, 3 << 45, (5 << 45) - 1, 1 << 53])
        values = np.arange(-1, keys.size)
    # the keys increase, but for the Poisson units table's, which repeat past
    # a value of probability 0: a tail threshold rounded to 2^53 - 1
    steps = np.diff(keys)
    assert steps.min() >= 0 and (steps.min() == 0) == (name == "units_poisson")
    gen = rng(3)
    row = np.concatenate([
        (gen.integers(0, 35, 100_000) << 53) + gen.integers(0, 1 << 53, 100_000),
        keys - 1, keys, keys + 1, [0, (1 << 53) - 1, 34 << 53, (1 << 63) - 1]])
    guide = table._guide(keys)
    assert guide.dtype == np.int32
    assert np.array_equal(table._guided(row.copy(), guide, keys),
                          keys.searchsorted(row, side="right"))


def searched(draw, z, count, twin, cap):
    """Up to ``count`` generations from the counts z, each a search of
    draw's keys (z << 53) + m for the raw outputs of ``twin``, capped at
    ``cap``: the generations before one with a count of 0, which draws
    nothing from ``twin``."""
    keys, values, _ = draw._table
    rows = []
    while len(rows) < count and z.min() > 0:
        m = (twin.bit_generator.random_raw(z.size) >> np.uint64(11)).astype(np.int64)
        z = np.minimum(values[keys.searchsorted((z << 53) + m, side="right")], cap)
        rows.append(z.tolist())
    return rows


@pytest.mark.parametrize("width", LOOKUP_WIDTHS)
@pytest.mark.parametrize("name", GUIDED_TABLES)
def test_lookups_of_every_width_draw_what_a_search_of_the_keys_draws(name, width):
    # one generation of counts up to 32, then a span of counts capped at 5,
    # folded, in which counts die: the counts and generator state of a
    # search of the table's keys
    draw, gen, twin = GUIDED_TABLES[name](), rng(21), rng(21)
    z = rng(22).integers(1, 33, width)
    first = draw.steps(z, 1, gen)
    span = draw.steps(np.minimum(z, 5), 8, gen, Truncation(GrowthFunction.constant(5)))
    assert len(first) == 1 and len(span) > 0
    assert first.tolist() == searched(draw, z, 1, twin, 1 << 62)
    assert span.tolist() == searched(draw, np.minimum(z, 5), 8, twin, 5)
    assert gen.bit_generator.state == twin.bit_generator.state


def test_steps_grow_the_rows_to_their_counts_and_draw_numpys_numbers():
    # 2 Bin(z, 1/2) a count on a fresh table: each call first builds the rows
    # of twice its largest count, then draws until a count passes them or dies
    draw, gen, twin = table._binomial_draw(0.5, 2), rng(1), rng(1)
    z, built = np.array([3, 1, 4]), []
    while (rows := draw.steps(z, 8, gen)).size:
        built.append(draw._table[2])
        for row in rows:
            z = 2 * twin.binomial(z, 0.5)
            assert row.tolist() == z.tolist()
        assert gen.bit_generator.state == twin.bit_generator.state
    assert built == [8, 20] and 0 in z


def test_binomial_law_totals_take_the_table_and_stay_numpys():
    law = Binomial(3, 0.6)
    for z in (1, 5, 10, 11, 40):  # 3 z trials: past 32 from 11 parents on
        gen, twin = rng(z), rng(z)
        totals = sample_offspring_totals(law, z, 300, gen)
        assert totals.tolist() == twin.binomial(3 * z, 0.6, size=300).tolist()
        assert gen.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("pmf", [{0: 0.25, 2: 0.75}, {1: 0.5, 3: 0.5}, {2: 0.9, 7: 0.1}])
def test_two_atom_pmf_totals_weigh_numpys_binomial_count(pmf):
    (k_lo, _), (k_hi, p_hi) = sorted(pmf.items())
    draw = _make_block_draw(ExplicitPmf(pmf))
    gen, twin = rng(5), rng(5)
    for z in (np.array([1, 7, 32, 2, 9]), np.array([3, 40, 1]), np.array([6])):  # 40: numpy's
        assert np.array_equal(draw(z, gen),
                              k_lo * z + (k_hi - k_lo) * twin.binomial(z, p_hi, size=z.size))
    assert gen.bit_generator.state == twin.bit_generator.state


def wrap_lanes(monkeypatch, prepare):
    """Hand the table draw of each ``engine._lanes`` built from now on to
    ``prepare``, before any block draws from it."""
    lanes = engine._lanes

    def prepared(law, cap):
        out = lanes(law, cap)
        prepare(out[1])
        return out
    monkeypatch.setattr(engine, "_lanes", prepared)


def test_lanes_build_each_table_row_once_per_batch(monkeypatch):
    weighed, built, weights = [], [], table._binomial_weights
    monkeypatch.setattr(table, "_binomial_weights",
                        lambda p, top: weighed.append((p, top)) or weights(p, top))
    g = GrowthFunction.log(2.0, 3.0, rounding="ceil")
    cfg = Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=60, trials=40_000, master_seed=3,
                policy=Truncation(g))
    assert cfg.trials > 2 * _TRIAL_BLOCK

    def record_rows(draw):
        rows = draw._rows
        draw._rows = lambda z0, z1: built.extend(range(z0, z1)) or rows(z0, z1)
    wrap_lanes(monkeypatch, record_rows)
    run_batch(cfg)
    assert weighed == [(0.25, 32)]  # one matrix for the batch, of rows of 0 to 32 trials
    assert sorted(built) == list(range(1, len(built) + 1)) and len(built) >= g(60)


def test_a_binomial_law_past_the_rows_draws_with_numpy():
    # n = 40 trials a parent: no count fits the 32 rows, so no table is built
    draw = _make_block_draw(Binomial(40, 0.3))
    assert not isinstance(draw, table._TableDraw)
    gen, twin, z = rng(3), rng(3), np.array([1, 2, 5])
    assert draw(z, gen).tolist() == twin.binomial(40 * z, 0.3).tolist()
    assert gen.bit_generator.state == twin.bit_generator.state


def test_large_poisson_means_draw_exact_moments_and_low_bits():
    # numpy's own poisson(1.5 * 2**53) draws have 1.39 times the variance,
    # and every one is even
    lam, n = 1.5 * 2**53, 40_000
    counts = _poisson_exact(np.full(n, lam), rng(5))
    dev = np.array([c - int(lam) for c in counts], dtype=np.float64)
    assert float(dev.mean()) == pytest.approx(0.0, abs=5 * math.sqrt(lam / n))
    assert float(dev.var()) == pytest.approx(lam, rel=0.05)
    share = np.bincount([c % 4 for c in counts], minlength=4) / n
    assert np.abs(share - 0.25).max() < 5 * math.sqrt(0.25 * 0.75 / n)


def poisson_exact_reference(lam, gen):
    """``_poisson_exact``'s draws in its order, every total summed as a Python int."""
    lam, arrivals = lam.copy(), []
    while (big := np.flatnonzero(lam > 2.0**32)).size:
        n = np.floor(lam[big] - 16.0 * np.sqrt(lam[big]))
        lam[big] = np.maximum(lam[big] - gen.standard_gamma(n), 0.0)
        arrivals.append((big, n))
    totals = gen.poisson(lam).tolist()
    for big, n in arrivals:
        for i, k in zip(big.tolist(), n.tolist()):
            totals[i] += int(k)
    return totals


@pytest.mark.parametrize("lam, past_int64", [
    ([3.0, 2.0**40, 1.9 * 2.0**63, 2.0**61, 2.0**62, 2.0**70, 0.5, 1.5 * 2.0**63, 2.0**62.5]
     + [2.0**63 - 2.0**20] * 6, True),
    ([2.0**62, 7.0, 2.0**61 + 2.0**50, 2.0**62 + 2.0**40, 2.0**35], False),
    ([3.0, 2.0**40, 2.0**61.9, 0.0], False),
])
def test_poisson_exact_sums_wide_means_apart_and_matches_python_sums(lam, past_int64):
    # means below 2^62 sum their arrival rounds in int64, the others as
    # Python ints; the totals, their dtype and the stream match summing all
    # of them as Python ints
    lam, gen, twin = np.array(lam), rng(17), rng(17)
    counts = _poisson_exact(lam, gen)
    expected = poisson_exact_reference(lam, twin)
    assert counts.tolist() == expected
    assert gen.bit_generator.state == twin.bit_generator.state
    assert (max(expected) >= 1 << 63) == past_int64
    assert counts.dtype == (object if past_int64 else np.int64)


@pytest.mark.parametrize("lam", [1.5, 999.0])
def test_poisson_totals_past_the_bound_match_law_moments_and_low_bits(lam):
    # a Poisson(lam z) total past the block bound is one _poisson_exact draw;
    # at lam = 999 the block is 2^61 / 999 and the totals pass 2^62
    law = Poisson(lam)
    lane = _lanes(law, BIG_CAP)
    z, n = 3 * lane[0] + 7, 40_000
    off, failures = _draw_offspring(np.full(n, z, dtype=np.int64), rng(12), *lane)
    assert not failures and off.dtype == np.int64
    dev = off.astype(np.float64) - z * lam
    assert float(dev.mean()) == pytest.approx(0.0, abs=5 * math.sqrt(z * lam / n))
    assert float(dev.var()) == pytest.approx(z * lam, rel=0.05)
    share = np.bincount(off % 4, minlength=4) / n
    assert np.abs(share - 0.25).max() < 5 * math.sqrt(0.25 * 0.75 / n)


@pytest.mark.parametrize("r", [0.6, 0.999])
def test_geometric_totals_past_the_bound_match_law_mean_and_variance(r):
    # no other test draws Geometric totals past the block bound in bulk
    law = Geometric(r)
    m, var = r / (1 - r), r / (1 - r) ** 2
    z, n = 3 * 2**53 + 7, 40_000
    lane = _lanes(law, BIG_CAP)
    assert z > 2 * lane[0]
    off, failures = _draw_offspring(np.full(n, z, dtype=np.int64), rng(12), *lane)
    assert not failures
    dev = np.array(off.tolist(), dtype=np.float64) - z * m
    se = math.sqrt(z * var / n)
    assert float(dev.mean()) == pytest.approx(0.0, abs=5 * se)
    assert float(dev.var()) == pytest.approx(z * var, rel=0.1)


def assert_moments(counts, mean, var):
    """Exact counts with mean ``mean`` (a Fraction) and variance ``var``:
    their mean and variance within 4 standard errors, and their residues
    mod 4 within 5 standard errors of uniform."""
    n, base = len(counts), int(mean)
    dev = np.array([c - base for c in counts], dtype=np.float64) - float(mean - base)
    assert abs(float(dev.mean())) < 4 * math.sqrt(var / n)
    assert abs(float(dev.var()) - var) < 4 * var * math.sqrt(2 / n)
    share = np.bincount([c % 4 for c in counts], minlength=4) / n
    assert np.abs(share - 0.25).max() < 5 * math.sqrt(0.25 * 0.75 / n)


@pytest.mark.parametrize("counts", [
    [5, 2**53, 0, 17],
    [3, 2**53, 2**53 + 1, 0, 2**62 + 5, 2**63 - 1, 2**56, 1],
    [2**90, 7, 2**70 + 3, 2**53 + 2, 0, 2**63 + 1, 2**100 + 12345],
])
def test_exact_binomial_matches_its_plain_reference(counts):
    # int64 counts up to 2^63 - 1, whose n + 1 passes int64, and object
    # counts past it: equal draws, stream and dtype
    gen, twin = rng(23), rng(23)
    drawn = _binomial_exact(_counts(counts), 0.3, gen)
    assert drawn.tolist() == binomial_reference(counts, 0.3, twin)
    assert gen.bit_generator.state == twin.bit_generator.state
    assert drawn.dtype == (np.int64 if max(drawn.tolist()) < 1 << 63 else object)


@pytest.mark.parametrize("n, p", [(2**60, 0.6), (2**80, 0.3), (_EXACT_LIMIT, 0.6)],
                         ids=["2^60", "2^80", "limit"])
def test_exact_binomial_draws_exact_moments_and_low_bits(n, p):
    # numpy's own binomial(2**60, p) draws are all multiples of 16
    counts = _binomial_exact(_counts([n] * 100_000), p, rng(7)).tolist()
    assert_moments(counts, Fraction(p) * n, n * p * (1 - p))


def test_binomial_law_past_2_53_trials_takes_the_exact_lane_from_one_parent():
    law = Binomial(2**60, 0.5)
    lane = _lanes(law, BIG_CAP)
    assert lane[0] == 0
    drawn, failures = _draw_offspring(np.ones(20_000, dtype=np.int64), rng(5), *lane)
    assert not failures
    assert_moments(drawn.tolist(), Fraction(2**59), 2**58)


def piecewise_totals(law, z, size, gen):
    """``size`` totals of z parents each, drawn trial after trial the plain
    piecewise way: z mod bound parents, then z // bound blocks of bound
    parents, one numpy draw per piece."""
    bound, draw = _lanes(law, BIG_CAP)[:2]
    full, rem = divmod(z, bound)
    return [int(draw(np.array([rem]), gen)[0]) + sum(draw(np.full(full, bound), gen).tolist())
            for _ in range(size)]


@pytest.mark.parametrize("law", [Binomial(3, 0.5), ExplicitPmf({0: 0.2, 1: 0.3, 3: 0.5})],
                         ids=repr)
def test_exact_lane_matches_the_piecewise_reference_in_distribution(law):
    # two samples, the lane's and the piecewise one's: means, variances and
    # residues mod 4 agree
    z, n = 3 * 2**53 + 7, 40_000
    drawn, failures = _draw_offspring(np.full(n, z, dtype=np.int64), rng(12),
                                      *_lanes(law, BIG_CAP))
    assert not failures
    base = int(z * law.mean())
    a = (drawn - base).astype(np.float64)
    b = (np.array(piecewise_totals(law, z, n, rng(13))) - base).astype(np.float64)
    var = (a.var() + b.var()) / 2
    assert abs(a.mean() - b.mean()) < 4 * math.sqrt(2 * var / n)
    assert abs(a.var() - b.var()) < 4 * 2 * var / math.sqrt(n)
    shares = [np.bincount(x.astype(np.int64) % 4, minlength=4) / n for x in (a, b)]
    assert np.abs(shares[0] - shares[1]).max() < 5 * math.sqrt(2 * 0.25 * 0.75 / n)


def test_multinomial_chain_counts_sum_to_z_and_match_each_atom():
    ps = ExplicitPmf({0: 0.2, 1: 0.3, 3: 0.5}).pmf_table()[1]
    z, n = 2**70 + 3, 20_000
    hits = [h.tolist() for h in _multinomial_exact(_counts([z] * n), ps, rng(31))]
    assert len(hits) == 3
    assert all(sum(col) == z for col in zip(*hits))
    for counts, p in zip(hits, ps.tolist()):
        assert_moments(counts, Fraction(p) * z, z * p * (1 - p))


def test_atoms_whose_weight_underflows_are_dropped_before_the_multinomial_chain():
    # 5e-324 / 4 rounds to 0, so the last two atoms would weigh 0; kept, their
    # tail of 0 divided 0 / 0, and the NaN it gave reached a binomial draw
    law = ExplicitPmf({0: 1, 2: 3, 3: 5e-324, 4: 5e-324})
    assert law.atoms == ((0, 0.25), (2, 0.75)) and law.max_k() == 2
    ks, ps = law.pmf_table()
    assert ks.tolist() == [0, 2] and ps.tolist() == [0.25, 0.75]
    with np.errstate(all="raise"):
        hits = [h.tolist() for h in _multinomial_exact(_counts([2**70, 5]), ps, rng(3))]
        totals = sample_offspring_totals(law, 2**70, 50, rng(4), population_cap=BIG_CAP)
    assert len(hits) == 2 and [a + b for a, b in zip(*hits)] == [2**70, 5]
    assert all(t % 2 == 0 and 0 <= t <= 2**71 for t in totals.tolist())


@pytest.mark.parametrize("law", [Poisson(999.0), Geometric(0.6)], ids=repr)
def test_poisson_lane_holds_its_moments_at_the_top_of_its_range(law):
    # numpy's gamma draws lose variance at huge shapes: totals of mean 2^100
    # came out about 4% short, and Poisson(999) admitted means up to 2^101
    lane = _lanes(law, BIG_CAP)
    z = lane[3]
    var = z * (law.lam if isinstance(law, Poisson) else law.r / (1 - law.r) ** 2)
    drawn, failures = _draw_offspring(_counts([z] * 100_000), rng(7), *lane)
    assert not failures
    assert_moments(drawn.tolist(), Fraction(law.mean()) * z, var)


@pytest.mark.parametrize("law", [Poisson(1.5), Geometric(0.6), Binomial(3, 0.5),
                                 ExplicitPmf({0: 0.25, 2: 0.75}),
                                 ExplicitPmf({0: 0.2, 1: 0.3, 3: 0.5})], ids=repr)
def test_one_count_sampler_is_the_kernel_draw_on_one_entry(law):
    sample, lane = _make_total_sampler(law, BIG_CAP, False), _lanes(law, BIG_CAP)
    for z in (0, 1, 7, 33, 2**53 - 1, 2**53 + 5, 2**60 + 3):
        gen, twin = rng(z % 1000), rng(z % 1000)
        one, failed = _draw_offspring(_counts([z]), twin, *lane)
        total = sample(z, gen)
        assert not failed and type(total) is int and total == one[0], z
        assert gen.bit_generator.state == twin.bit_generator.state, z


@pytest.mark.parametrize("law", EXACT_LANE_LAWS, ids=repr)
def test_scalar_sampler_fails_a_count_past_the_exact_lane_limit(law):
    limit = _lanes(law, BIG_CAP)[3]
    sample, gen = _make_total_sampler(law, BIG_CAP, False), rng(3)
    before = gen.bit_generator.state
    with pytest.raises(PopulationOverflow, match=f"parent count {limit + 1} exceeds {limit}"):
        sample(limit + 1, gen)
    assert gen.bit_generator.state == before


# -------------------------------------------------------------- trajectories

def sampled(law, horizon, policy=None, trials=20, **extra):
    """The sampled trajectories of a batch that samples every trial."""
    return run_batch(Batch(law, horizon=horizon, trials=trials, master_seed=1, policy=policy,
                           sample_trajectories=trials, **extra)).sampled_trajectories


def test_trajectory_shapes_and_zero_padding():
    for traj in sampled(Geometric(0.3), 50):
        assert len(traj.counts) == 51
        assert traj.counts[0] == 1
        if traj.absorbed_at is not None:
            n = traj.absorbed_at
            assert traj.counts[n] == 0
            assert all(c == 0 for c in traj.counts[n:])
            assert all(c > 0 for c in traj.counts[:n])
            assert traj.extinction_generation() == n
        assert traj.final == traj.counts[-1]


def test_trajectory_from_zero_initial_size():
    for traj in sampled(Poisson(2.0), 10, initial_size=0):
        assert traj.absorbed_at == 0
        assert traj.counts == [0] * 11


def test_trajectory_without_policy_steps_plain_offspring_totals():
    for traj in sampled(ExplicitPmf({3: 1.0}), 3, initial_size=4):
        assert traj.counts == [4, 12, 36, 108]


def test_trajectory_truncation_caps_every_generation():
    policy = Truncation(GrowthFunction.constant(5))
    for traj in sampled(ExplicitPmf({3: 1.0}), 3, policy, initial_size=4):
        assert traj.counts == [4, 5, 5, 5]


def test_batch_validates_horizon_and_initial_size():
    with pytest.raises(ConfigError):
        sampled(Poisson(1.0), 0)
    with pytest.raises(ConfigError):
        sampled(Poisson(1.0), 5, initial_size=-1)


def test_reviving_phi_defers_extinction_to_the_horizon():
    # phi(0) = 1 revives an empty generation; a zero count is only final
    # at the horizon, and absorbed_at stays None
    law = ExplicitPmf({0: 0.5, 1: 0.5})
    trajectories = sampled(law, 30, Phi(lambda x: max(x, 1)), trials=200)
    assert {traj.counts[-1] == 0 for traj in trajectories} == {True, False}
    for traj in trajectories:
        assert traj.absorbed_at is None
        expected = 30 if traj.counts[-1] == 0 else None
        assert traj.extinction_generation() == expected


@pytest.mark.parametrize("coupled", [False, True])
def test_negative_phi_is_a_config_error_for_a_batch(coupled):
    # a failure budget absorbs failed trials, never a fault of the config;
    # phi(150) = -50 slips past the probe points of Phi, which are all below 100
    cfg = Batch(Poisson(1.5), horizon=5, trials=10, master_seed=1,
                policy=Phi(lambda x: 100 - x), initial_size=150, coupled=coupled,
                failure_budget=10)
    with pytest.raises(ConfigError, match="phi must be nonnegative"):
        run_batch(cfg)


FIVE = GrowthFunction.constant(5)


@pytest.mark.parametrize("policy,draws", [
    (Truncation(FIVE), False),
    (TruncationAsAbsorption(FIVE), False),
    (LowerBoundary(GrowthFunction.constant(1)), False),
    (CustomAbsorption(lambda offspring, n, history: 0), False),
    (Phi.linear(0.5, 1.0), False),
    (Disaster(DisasterSchedule.constant(0.1)), True),
    (CustomAbsorption(lambda offspring, n, history, rng: 0), True),
], ids=["truncation", "truncation_as_absorption", "lower_boundary", "custom_3_args", "phi",
        "disaster", "custom_4_args"])
def test_coupled_batch_spawns_a_control_stream_only_for_rules_that_draw(policy, draws,
                                                                        monkeypatch):
    # each coupled control stream is a fresh generation-keyed spawn
    asked, spawn = set(), engine.spawn_generator
    monkeypatch.setattr(engine, "spawn_generator",
                        lambda *key: asked.add(key[2]) or spawn(*key))
    run_batch(Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=20, trials=3, master_seed=7,
                    policy=policy, initial_size=5, coupled=True))
    assert STREAM_OFFSPRING in asked
    assert (STREAM_CONTROL in asked) is draws


def assert_same_result(a, b):
    """Two BatchResults agree field for field, array for array."""
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        elif isinstance(value, float) and math.isnan(value):
            assert math.isnan(other), name
        else:
            assert value == other, name


def test_batch_runs_a_custom_rule_on_each_trajectory_so_far():
    seen = {}

    def rule(offspring, n, history):
        assert len(history) == n  # generations 0 .. n - 1
        seen.setdefault(n, []).append(history)
        return max(offspring - 2 * history[-1], 0)  # a population at most doubles

    cfg = Batch(Geometric(0.75), horizon=30, trials=200, master_seed=12,
                policy=CustomAbsorption(rule), sample_trajectories=200)
    res = run_batch(cfg)
    assert res.trials == 200 and len(res.sampled_trajectories) == 200
    for traj in res.sampled_trajectories:
        assert all(b <= 2 * a for a, b in zip(traj.counts, traj.counts[1:]))
    # each generation, the rule sees every live trial's counts so far, in trial order
    assert sorted(seen) == list(range(1, len(seen) + 1))
    for n, histories in seen.items():  # a kept view still shows generations 0 .. n - 1
        assert [tuple(h) for h in histories] == [tuple(traj.counts[:n])
                                                 for traj in res.sampled_trajectories
                                                 if traj.counts[n - 1]]


G = GrowthFunction.linear(0.5, 2.0)


@pytest.mark.parametrize("rule,builtin", [
    (lambda offspring, n, history: max(offspring - G(n), 0), TruncationAsAbsorption(G)),
    (lambda offspring, n, history, rng: offspring if rng.random() < 0.1 else 0,
     Disaster(DisasterSchedule.constant(0.1))),
], ids=["truncation_as_absorption", "disaster"])
def test_custom_rule_batch_equals_the_builtin_policy(rule, builtin):
    # on block streams a custom rule is applied to the live trials in ascending
    # order, drawing from the control stream as the built-in rule draws
    def run(policy):
        return run_batch(Batch(Geometric(0.6), horizon=30, trials=4500, master_seed=21,
                               policy=policy, sample_trajectories=50))
    assert_same_result(run(CustomAbsorption(rule)), run(builtin))


def test_a_bad_custom_rule_fails_only_its_own_trials():
    policy = CustomAbsorption(lambda offspring, n, history: -1 if offspring == 7 else 0)
    cfg = Batch(Geometric(0.6), horizon=20, trials=300, master_seed=3, policy=policy,
                failure_budget=300, sample_trajectories=300)
    res = run_batch(cfg)
    assert 0 < len(res.failed_trials) < 300
    assert all(isinstance(f.cause, InvalidRuleError) for f in res.failed_trials)
    kept = res.sampled_trajectories
    assert len(kept) == res.trials == 300 - len(res.failed_trials)
    for n in range(21):
        assert sum(t.counts[n] for t in kept) == res.per_generation_alive_size_sums[n]
    assert all(7 not in t.counts[1:] for t in kept)

    def config_fault(offspring, n, history):
        raise ConfigError("a fault of the config, not of one trial")

    with pytest.raises(ConfigError, match="a fault of the config"):
        run_batch(Batch(Geometric(0.6), horizon=20, trials=300, master_seed=3,
                        policy=CustomAbsorption(config_fault), failure_budget=300))
    cfg.failure_budget = len(res.failed_trials) - 1
    with pytest.raises(BatchTrialError, match="InvalidRuleError"):
        run_batch(cfg)


def test_kept_failures_hold_no_traceback_and_so_no_block_arrays():
    # a coupled failure raised in the per-particle sampler kept its traceback,
    # whose frames held the sampler's slab and the block's arrays: 2.6 MB
    # after these 3 failures, against 4 kB with the tracebacks cleared
    cfg = Batch(Geometric(0.6), horizon=40, trials=10, master_seed=5, coupled=True,
                population_cap=1 << 16, failure_budget=10)
    run_batch(cfg)  # allocations of a first run are not the failures'
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_batch(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(res.failed_trials) == 3 and held < 1 << 16, held
    rule = run_batch(Batch(Geometric(0.6), horizon=20, trials=300, master_seed=3,
                           policy=CustomAbsorption(lambda z, n, history: -1 if z == 7 else 0),
                           failure_budget=300))
    assert rule.failed_trials  # failures of the per-trial apply loop
    assert all(f.cause.__traceback__ is None for f in res.failed_trials + rule.failed_trials)


def test_trajectory_extinction_generation_reports_horizon_zero():
    t = Trajectory(counts=[1, 2, 0], absorbed_at=None, horizon=2)
    assert t.extinction_generation() == 2
    t2 = Trajectory(counts=[1, 2, 3], absorbed_at=None, horizon=2)
    assert t2.extinction_generation() is None


# ------------------------------------------------------------------ batches

def test_batch_instant_extinction():
    res = run_batch(Batch(ExplicitPmf({0: 1.0}), horizon=5, trials=64, master_seed=2))
    assert res.extinction_fraction == 1.0
    assert res.extinct_by_horizon == 64
    assert np.all(res.extinction_generations == 1)
    assert int(res.per_generation_extinct_counts[1]) == 64
    assert math.isnan(res.mean_final_size_given_survival)


def test_alive_sums_stay_exact_for_int64_counts_near_the_int64_limit():
    # every count is 2^62, an int64 whose sum over a full block is 2^76
    res = run_batch(Batch(ExplicitPmf({1: 1.0}), horizon=2, trials=_TRIAL_BLOCK, master_seed=5,
                          initial_size=1 << 62))
    assert res.per_generation_alive_size_sums == [_TRIAL_BLOCK * 2**62] * 3
    assert res.mean_final_size_given_survival == 2.0**62


def test_alive_sums_stay_exact_when_int64_counts_sum_past_the_int64_limit():
    # Geometric counts near 2^60 fit int64 while a generation's sum over 64
    # trials passes 2^63
    res = run_batch(Batch(Geometric(0.6), horizon=3, trials=64, master_seed=5,
                          initial_size=1 << 58, sample_trajectories=64))
    tracks = res.sampled_trajectories
    assert max(t.counts[-1] for t in tracks) < 1 << 63
    assert res.per_generation_alive_size_sums[-1] > 1 << 63
    for n in range(4):
        assert res.per_generation_alive_size_sums[n] == sum(t.counts[n] for t in tracks)


@pytest.mark.parametrize("pmf", [{0: 1.0}, {0: 0.25, 2: 0.75}])
def test_phi_units_above_the_cap_fail_every_trial(pmf):
    # phi(x) = 101 units over a cap of 100: no total passes the cap for
    # {0: 1} (max_k 0), yet the units do
    cfg = Batch(ExplicitPmf(pmf), horizon=5, trials=30, master_seed=2, policy=Phi.constant(101),
                population_cap=100, failure_budget=30, sample_trajectories=30)
    res = run_batch(cfg)
    assert len(res.failed_trials) == 30 and res.trials == 0
    for f in res.failed_trials:
        assert isinstance(f.cause, PopulationOverflow)
        assert str(f.cause).startswith("101 parents with")
    assert res.sampled_trajectories == []
    assert res.per_generation_alive_size_sums == [0] * 6


def test_batch_immortal_process():
    res = run_batch(Batch(ExplicitPmf({1: 1.0}), horizon=20, trials=32, master_seed=2))
    assert res.extinction_fraction == 0.0
    assert np.all(res.extinction_generations == -1)
    assert res.mean_final_size_given_survival == 1.0
    assert list(res.per_generation_alive_counts) == [32] * 21


def test_batch_results_do_not_depend_on_threads():
    cfg = Batch(Geometric(0.55), horizon=80, trials=3000, master_seed=9)
    r1 = run_batch(cfg, threads=1)
    r8 = run_batch(cfg, threads=8)
    assert np.array_equal(r1.extinction_generations, r8.extinction_generations)
    assert np.array_equal(r1.per_generation_extinct_counts,
                          r8.per_generation_extinct_counts)
    assert np.array_equal(r1.per_generation_alive_counts,
                          r8.per_generation_alive_counts)
    assert r1.per_generation_alive_size_sums == r8.per_generation_alive_size_sums
    assert r1.mean_final_size_given_survival == r8.mean_final_size_given_survival


def test_batch_aggregates_are_internally_consistent():
    res = run_batch(Batch(Geometric(0.55), horizon=60, trials=1500, master_seed=4))
    eg = res.extinction_generations
    for n in (0, 1, 5, 30, 60):
        extinct_by_n = int(np.sum((eg >= 0) & (eg <= n)))
        assert int(res.per_generation_extinct_counts[n]) == extinct_by_n
        assert int(res.per_generation_alive_counts[n]) == 1500 - extinct_by_n
    survivors = int(np.sum(eg < 0))
    assert res.extinct_by_horizon == 1500 - survivors
    if survivors:
        total_final = res.per_generation_alive_size_sums[-1]
        assert res.mean_final_size_given_survival == total_final / survivors


def test_batch_sampled_trajectories_match_seeded_reruns():
    # 5000 trials span two trial blocks; sampling some trajectories, or all,
    # draws nothing extra, so the sampled prefix is the same in both runs
    cfg = Batch(Geometric(0.5), horizon=25, trials=5000, master_seed=77,
                sample_trajectories=5)
    res = run_batch(cfg, threads=4)
    full = run_batch(Batch(Geometric(0.5), horizon=25, trials=5000, master_seed=77,
                           sample_trajectories=5000), threads=1)
    assert len(res.sampled_trajectories) == 5
    assert len(full.sampled_trajectories) == 5000
    for traj, ref in zip(res.sampled_trajectories, full.sampled_trajectories):
        assert traj.counts == ref.counts
        assert traj.absorbed_at == ref.absorbed_at
    assert np.array_equal(res.extinction_generations, full.extinction_generations)
    for t, traj in enumerate(full.sampled_trajectories):
        eg = int(full.extinction_generations[t])
        assert traj.absorbed_at == (eg if eg >= 0 else None)
    for n in range(26):
        assert sum(traj.counts[n] for traj in full.sampled_trajectories) \
            == full.per_generation_alive_size_sums[n]


def test_batch_failure_budget_excludes_failed_trials():
    cfg = Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=100, trials=200,
                master_seed=1, population_cap=10_000, failure_budget=200)
    res = run_batch(cfg)
    assert res.failed_trials
    assert res.trials + len(res.failed_trials) == 200
    # excluded trials contribute to no aggregate
    assert int(res.per_generation_alive_counts[0]) == res.trials
    assert len(res.extinction_generations) == res.trials
    assert np.all(res.extinction_generations >= 0)  # survivors all overflowed
    for f in res.failed_trials:
        assert isinstance(f, BatchTrialError)
        assert isinstance(f.cause, PopulationOverflow)


def within_cap(offspring, n, history):
    assert offspring <= 200  # a trial whose draw failed never reaches the rule
    return 0


@pytest.mark.parametrize("policy", [None, CustomAbsorption(within_cap)], ids=["none", "custom"])
def test_batch_failed_trials_leave_no_trace_in_aggregates(policy):
    cfg = Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=40, trials=300,
                master_seed=2, population_cap=200, failure_budget=300,
                sample_trajectories=300, policy=policy)
    res = run_batch(cfg)
    assert 0 < len(res.failed_trials) < 300
    kept = res.sampled_trajectories  # failed trials are never sampled
    assert len(kept) == res.trials
    for n in range(41):
        assert sum(t.counts[n] for t in kept) == res.per_generation_alive_size_sums[n]
        assert sum(t.counts[n] > 0 for t in kept) == res.per_generation_alive_counts[n]


def test_batch_exact_lane_keeps_counts_exact_past_int64():
    # 2^n passes the int64 bound near generation 60 and keeps growing
    cfg = Batch(ExplicitPmf({2: 1.0}), horizon=70, trials=3, master_seed=1,
                sample_trajectories=3)
    res = run_batch(cfg)
    for traj in res.sampled_trajectories:
        assert traj.counts == [2**n for n in range(71)]
    assert res.per_generation_alive_size_sums[70] == 3 * 2**70
    assert res.mean_final_size_given_survival == float(2**70)


def test_batch_starts_no_thread_for_any_thread_count(monkeypatch):
    def refuse(self):
        raise AssertionError("run_batch started a thread")

    # blocks run serially; a pool sized from a large cpu count would show here
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = Batch(Geometric(0.55), horizon=30, trials=9000, master_seed=9)
    r1 = run_batch(cfg, threads=1)
    many = run_batch(cfg, threads=10**9)
    assert np.array_equal(r1.extinction_generations, many.extinction_generations)
    assert r1.per_generation_alive_size_sums == many.per_generation_alive_size_sums


def test_batch_raises_when_failures_exceed_budget():
    cfg = Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=100, trials=50,
                master_seed=1, population_cap=10_000, failure_budget=0)
    with pytest.raises(BatchTrialError) as err:
        run_batch(cfg)
    assert isinstance(err.value.cause, PopulationOverflow)


def test_batch_past_its_budget_stops_at_the_block_that_passed_it(monkeypatch):
    monkeypatch.setattr(engine, "_TRIAL_BLOCK", 8)
    cfg = Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=100, trials=40,
                master_seed=1, population_cap=10_000, failure_budget=40)
    every_block = run_batch(cfg).failed_trials
    assert every_block[0].trial_index < 8 and every_block[-1].trial_index >= 32
    calls = []
    run_block = engine._run_vector_block
    monkeypatch.setattr(engine, "_run_vector_block",
                        lambda *args: calls.append(args[2]) or run_block(*args))
    cfg.failure_budget = 0
    with pytest.raises(BatchTrialError) as err:
        run_batch(cfg)
    assert calls == [0]
    assert err.value.trial_index == every_block[0].trial_index
    assert str(err.value.cause) == str(every_block[0].cause)


def test_batch_validates_config():
    with pytest.raises(ConfigError):
        run_batch(Batch(Poisson(1.0), horizon=0, trials=10, master_seed=0))
    with pytest.raises(ConfigError):
        run_batch(Batch(Poisson(1.0), horizon=10, trials=0, master_seed=0))


def test_extinction_fraction_matches_analytic_q():
    # Geometric(0.55): q = (1 - r) / r = 9/11
    cfg = Batch(Geometric(0.55), horizon=200, trials=20_000, master_seed=13)
    res = run_batch(cfg, threads=4)
    q = 0.45 / 0.55
    se = math.sqrt(q * (1 - q) / cfg.trials)
    assert res.extinction_fraction == pytest.approx(q, abs=5 * se + 0.003)


# ----------------------------------------------------------------- coupling

@pytest.mark.parametrize("policy", [
    Disaster(DisasterSchedule.constant(0.1)),
    CustomAbsorption(lambda offspring, n, history, rng: offspring if rng.random() < 0.1 else 0),
], ids=["disaster", "custom_4_args"])
def test_a_coupled_trial_is_keyed_by_its_trial_and_generation(policy, monkeypatch):
    # trial t draws generation n from spawn_generator(seed, t, stream, n), so
    # neither the trial count nor the block size moves its trajectory
    law = ExplicitPmf({0: 0.25, 2: 0.75})

    def trajectories(trials):
        return [traj.counts for traj in run_batch(Batch(
            law, horizon=30, trials=trials, master_seed=6, policy=policy, coupled=True,
            sample_trajectories=trials)).sampled_trajectories]

    full = trajectories(60)
    monkeypatch.setattr(engine, "_TRIAL_BLOCK", 8)
    assert trajectories(27) == full[:27]
    sample = _make_total_sampler(law, BIG_CAP, True)
    for t, counts in enumerate(full):
        off = _counts([sample(1, spawn_generator(6, t, STREAM_OFFSPRING, 1))])
        custom = isinstance(policy, CustomAbsorption)
        left = policy.apply(off, 1, spawn_generator(6, t, STREAM_CONTROL, 1),
                            *(([1],) if custom else ()))
        assert counts[1] == left[0]
    assert len({counts[1] for counts in full}) > 1


@pytest.mark.parametrize("policy", [None, Disaster(DisasterSchedule.constant(0.1))],
                         ids=["none", "disaster"])
def test_coupled_batches_are_monotone_in_initial_size(policy):
    small, large = (run_batch(Batch(ExplicitPmf({0: 0.3, 1: 0.4, 2: 0.3}), horizon=40,
                                    trials=200, master_seed=31, policy=policy,
                                    initial_size=k, coupled=True, sample_trajectories=200))
                    for k in (1, 4))
    for a, b in zip(small.sampled_trajectories, large.sampled_trajectories):
        assert all(x <= y for x, y in zip(a.counts, b.counts))
    assert np.all(large.per_generation_extinct_counts <= small.per_generation_extinct_counts)
    assert np.any(large.per_generation_extinct_counts < small.per_generation_extinct_counts)


def test_coupled_batch_fails_trials_past_the_per_particle_cap():
    # per-particle sampling holds populations to 2^24 whatever the configured cap
    cfg = Batch(ExplicitPmf({2: 1.0}), horizon=1, trials=3, master_seed=1,
                initial_size=(1 << 24) + 1, coupled=True, failure_budget=3)
    res = run_batch(cfg)
    assert res.trials == 0 and len(res.failed_trials) == 3
    assert all(isinstance(f.cause, PopulationOverflow) for f in res.failed_trials)
    cfg.coupled = False
    sums = run_batch(cfg).per_generation_alive_size_sums
    assert sums == [3 * cfg.initial_size, 6 * cfg.initial_size]


def test_coupled_atoms_past_the_cap_fail_their_trial_and_never_wrap():
    # four parents of 2^62 would sum past 2^63 without the clip at the cap
    cfg = Batch(ExplicitPmf({0: 0.5, 1 << 62: 0.5}), horizon=3, trials=20, master_seed=4,
                initial_size=4, coupled=True, failure_budget=20, sample_trajectories=20)
    res = run_batch(cfg)
    assert res.failed_trials
    assert all(isinstance(f.cause, PopulationOverflow) for f in res.failed_trials)
    assert min(res.per_generation_alive_size_sums) >= 0
    assert all(min(t.counts) >= 0 for t in res.sampled_trajectories)


def test_coupled_poisson_far_from_zero_keeps_its_mean():
    # p_0 = e^-800 underflows: the table is summed in logs
    res = run_batch(Batch(Poisson(800.0), horizon=1, trials=200, master_seed=1, coupled=True))
    se = math.sqrt(800.0 / res.trials)
    assert abs(res.mean_final_size_given_survival - 800.0) <= 5 * se


def test_coupled_batch_is_reproducible_and_thread_independent():
    cfg = Batch(Geometric(0.5), horizon=30, trials=500, master_seed=8, coupled=True)
    r1 = run_batch(cfg, threads=1)
    r8 = run_batch(cfg, threads=8)
    assert np.array_equal(r1.extinction_generations, r8.extinction_generations)


def test_trials_keep_their_block_whatever_the_trial_count():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    full = run_batch(Batch(law, horizon=8, trials=_TRIAL_BLOCK, master_seed=12))
    longer = run_batch(Batch(law, horizon=8, trials=_TRIAL_BLOCK + 37, master_seed=12))
    assert np.array_equal(longer.extinction_generations[:_TRIAL_BLOCK],
                          full.extinction_generations)


# ------------------------------------------------- table draws a span at a time

def span_run(cfg, one_generation, prepare=None, run=run_batch):
    """run_batch of cfg, its table draw handed to ``prepare`` first,
    the end states of its block generators (offspring, control and sex
    streams) and the spans of table draws it took, as (count, generations drawn, whether the last left a count of 0,
    the largest count it left), a one-generation draw's among them;
    with ``one_generation`` no span fits, so every step draws one generation."""
    gens, spans, steps = [], [], table._TableDraw.steps

    def recorded(self, z, count, rng, *policy):
        rows = steps(self, z, count, rng, *policy)
        spans.append((count, len(rows), len(rows) and int(rows[-1].min()) == 0,
                      len(rows) and int(rows[-1].max())))
        return rows
    with pytest.MonkeyPatch.context() as mp:
        if prepare:
            wrap_lanes(mp, prepare)
        blocks = engine.block_generators
        mp.setattr(engine, "block_generators", lambda *a: gens.append(blocks(*a)) or gens[-1])
        mp.setattr(table._TableDraw, "steps", recorded)
        if one_generation:
            mp.setattr(engine, "_SPAN_RAWS", 0)
        res = run(cfg)
    return res, [[g.bit_generator.state for g in block] for block in gens], spans


def assert_spans_change_nothing(cfg, prepare=None, run=run_batch):
    """cfg's result, failures and block generators' end states are those of
    one-generation steps; returns the result, the number of blocks run and
    the spans taken."""
    res, states, spans = span_run(cfg, False, prepare, run)
    ref, ref_states, none = span_run(cfg, True, prepare, run)
    assert all(count == 1 for count, *_ in none) and states == ref_states
    assert ([(f.trial_index, str(f)) for f in res.failed_trials]
            == [(f.trial_index, str(f)) for f in ref.failed_trials])
    res.failed_trials = ref.failed_trials
    assert_same_result(res, ref)
    return res, len(states), spans


PMF2 = ExplicitPmf({0: 0.25, 2: 0.75})
LOG_G = GrowthFunction.log(2.0, 3.0, rounding="ceil")


@pytest.mark.parametrize("run, cfg", [
    (run_batch, Batch(PMF2, horizon=200, trials=300, master_seed=6, policy=Truncation(LOG_G))),
    (run_bisexual_batch, SimpleNamespace(
        law=Poisson(1.5), horizon=60, trials=300, master_seed=8, alpha=0.5, mating=Min(),
        initial_units=3, population_cap=1 << 48, sample_trajectories=0, failure_budget=0))],
    ids=["truncation_log", "bisexual_units"])
def test_two_batches_of_one_config_build_their_own_tables_alike(monkeypatch, run, cfg):
    # no table outlives its batch: the second batch grows, buckets and spans
    # on rows of its own as the first did, and draws the same
    draws, calls, results = [], [], []
    init, grow, buckets, steps = (table._TableDraw.__init__, table._TableDraw._grow,
                                  table._buckets, table._TableDraw.steps)

    def record(name, fn, args):
        calls[-1].append((name, *args))
        return fn()
    monkeypatch.setattr(table._TableDraw, "__init__", lambda self, *a: (
        draws[-1].append(self), init(self, *a))[1])
    monkeypatch.setattr(table._TableDraw, "_grow", lambda self, top: record(
        "grow", lambda: grow(self, top), (draws[-1].index(self), top)))
    monkeypatch.setattr(table, "_buckets", lambda t: record(
        "buckets", lambda: buckets(t), (t[2],)))
    monkeypatch.setattr(table._TableDraw, "steps", lambda self, z, count, *a: record(
        "steps", lambda: steps(self, z, count, *a), (draws[-1].index(self), count, z.size)))
    for _ in range(2):
        draws.append([])
        calls.append([])
        results.append(run(cfg))
    assert calls[0] == calls[1] and {"grow", "buckets", "steps"} <= {name for name, *_ in calls[0]}
    assert_same_result(*results)
    assert len(draws[0]) == len(draws[1]) >= 1
    assert not any(a is b for a in draws[0] for b in draws[1])


def test_batches_of_one_law_on_two_threads_share_no_table():
    # a thread switch every microsecond interleaves two batches' row grows
    # and bucket builds, and each batch is still what it is on one thread
    configs = [Batch(PMF2, horizon=6, trials=trials, master_seed=5) for trials in (1100, 1300)]
    want = [run_batch(cfg) for cfg in configs]
    got, raised = [[], []], []

    def run(i):
        try:
            for _ in range(150):
                got[i].append(run_batch(configs[i]))
        except Exception as exc:  # a thread's exception is otherwise lost
            raised.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not raised and [len(results) for results in got] == [150, 150]
    for results, ref in zip(got, want):
        for res in results:
            assert_same_result(res, ref)


def test_a_span_is_dead_when_the_next_span_starts(monkeypatch):
    # a block keeps a copy of a span's last row and drops the span, so one
    # span's buffers are live at a time
    refs, live, steps = [], [], table._TableDraw.steps

    def recorded(self, *args):
        live.append(sum(ref() is not None for ref in refs))
        rows = steps(self, *args)
        if len(rows):
            refs.extend((weakref.ref(rows), weakref.ref(rows.base)))
        return rows
    monkeypatch.setattr(table._TableDraw, "steps", recorded)
    run_batch(Batch(PMF2, horizon=200, trials=300, master_seed=6, policy=Truncation(LOG_G)))
    assert len(refs) > 20 and not any(live)


def test_a_span_ends_after_a_generation_with_deaths():
    cfg = Batch(ExplicitPmf({0: 0.55, 2: 0.45}), horizon=80, trials=400, master_seed=5,
                initial_size=3)
    _, _, spans = assert_spans_change_nothing(cfg)
    assert any(died and done < count for count, done, died, _ in spans)


def test_no_span_ends_for_want_of_rows_under_a_truncation():
    # 3 z trials a count under a cap of 20: the first fold grows the rows to
    # 10 parents (32 // 3), so a span ends only where z passes 10 and numpy
    # draws, never where z needs a new row
    cfg = Batch(Binomial(3, 0.6), horizon=60, trials=1, master_seed=2,
                policy=Truncation(GrowthFunction.constant(20)))
    draws = []
    _, _, spans = assert_spans_change_nothing(cfg, draws.append)
    assert draws[0]._table[2] == 10 and any(done == count > 1 for count, done, *_ in spans)
    assert not any(0 < done < count and not died and 3 * top <= 32
                   for count, done, died, top in spans)


@pytest.mark.parametrize("seed, parents, past_32", [(4, 10, True)])
def test_a_span_ends_before_counts_past_the_built_rows_and_past_32(seed, parents, past_32):
    # 3 z trials a count: with the rows of up to 10 parents built, a span
    # ends where z passes 10 and numpy draws
    cfg = Batch(Binomial(3, 0.6), horizon=60, trials=1, master_seed=seed,
                policy=Truncation(GrowthFunction.constant(20)))
    _, _, spans = assert_spans_change_nothing(
        cfg, parents and (lambda draw: draw(np.array([parents]), rng())))
    assert any(0 < done < count and not died and (3 * top > 32) is past_32
               for count, done, died, top in spans)


def undrawable_row_4(draw, kept=-2):
    """As in test_a_row_the_table_cannot_draw_hands_the_call_to_numpy, but
    only a uniform of row 4 past its threshold ``kept`` (by default the
    next-to-last) draws -1."""
    draw(np.arange(1, 6), rng())
    values, row = row_values(draw, 4)
    row[kept + 1:] = -1
    edit_table(draw, values)


def numpys_lane(monkeypatch, cfg, run=run_batch):
    """run of cfg with every table draw handed to its numpy fallback."""
    make = engine._make_block_draw
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_make_block_draw", lambda law: (
            draw._numpy if isinstance(draw := make(law), table._TableDraw) else draw))
        return run(cfg)


# 3 trials a block, and 2048 one generation at a time, where no count dies
# and the last value of row 4, 4 + 4, has the probability 10^-4
@pytest.mark.parametrize("pmf, trials", [({0: 0.25, 2: 0.75}, 3), ({1: 0.7, 2: 0.3}, 3),
                                         ({1: 0.9, 2: 0.1}, 2048)], ids=["pmf0", "pmf1", "wide"])
def test_a_span_ends_before_a_row_the_table_cannot_draw(monkeypatch, pmf, trials):
    cfg = Batch(ExplicitPmf(pmf), horizon=300, trials=trials, master_seed=9, initial_size=2,
                policy=Truncation(GrowthFunction.constant(4)))
    res, _, spans = assert_spans_change_nothing(cfg, undrawable_row_4)
    assert any(0 < done < count and not died for count, done, died, _ in spans)
    assert_same_result(res, numpys_lane(monkeypatch, cfg))


def test_spans_under_a_disaster_draw_the_same_control_stream():
    cfg = Batch(ExplicitPmf({0: 0.002, 1: 0.998}), horizon=300, trials=40, master_seed=4,
                initial_size=12, policy=Disaster(DisasterSchedule.constant(0.005)))
    _, _, spans = assert_spans_change_nothing(cfg)
    assert max(span[1] for span in spans) >= 8


def test_spans_under_a_mating_step_draw_the_same_sex_stream():
    # the mating step leaves a new array of at most the offspring it is
    # given; a 40 cap is below the units table's largest total, 96, so the
    # binomial table lane spans
    law = Binomial(3, 0.8)
    cfg = SimpleNamespace(law=law, horizon=60, trials=20, master_seed=8, alpha=0.5,
                          mating=Min(), initial_units=3, population_cap=40,
                          sample_trajectories=0, failure_budget=0)
    assert _units_table(law, 0.5, Min(), 40) is None
    _, _, spans = assert_spans_change_nothing(cfg, run=run_bisexual_batch)
    assert max(span[1] for span in spans) >= 4


def test_a_mating_step_draws_one_generation_a_lookup():
    # the units table draws what the mating step leaves, a generation at a
    # time, while the counts fit its rows; numpy draws and splits the rest
    cfg = SimpleNamespace(law=ExplicitPmf({0: 0.5, 3: 0.5}), horizon=60, trials=20,
                          master_seed=8, alpha=0.5, mating=Min(), initial_units=40,
                          population_cap=1 << 48, sample_trajectories=0, failure_budget=0)
    _, _, spans = assert_spans_change_nothing(cfg, run=run_bisexual_batch)
    assert all(count == 1 for count, *_ in spans)
    assert {done for _, done, *_ in spans} == {0, 1}  # a count past the rows: numpy's


def test_phi_units_step_one_generation_at_a_time():
    cfg = Batch(PMF2, horizon=40, trials=300, master_seed=2,
                policy=Phi.from_table([0, 1, 2]), initial_size=2)
    _, _, spans = assert_spans_change_nothing(cfg)
    assert all(count == 1 for count, *_ in spans)


def test_sampled_trajectories_come_from_the_spans():
    cfg = Batch(PMF2, horizon=200, trials=300, master_seed=6, policy=Truncation(LOG_G),
                sample_trajectories=7)
    res, _, spans = assert_spans_change_nothing(cfg)
    assert len(res.sampled_trajectories) == 7 and max(span[1] for span in spans) >= 8


def test_a_failure_budget_replay_steps_one_generation_at_a_time():
    # spans while every count is in the table (a 200 cap is past every
    # table total), then numpy's draws pass the cap; none in the replay
    cfg = Batch(ExplicitPmf({1: 0.5, 2: 0.5}), horizon=13, trials=50, master_seed=3,
                population_cap=200, failure_budget=50)
    res, blocks, spans = assert_spans_change_nothing(
        cfg, lambda draw: draw(np.array([32]), rng()))
    assert 0 < len(res.failed_trials) < 50 and blocks == 2
    assert max(span[1] for span in spans) > 1


def test_a_long_log_truncation_with_samples_keeps_its_pin():
    # recorded when every generation took one draw of its own
    res = run_batch(Batch(PMF2, horizon=3000, trials=700, master_seed=17,
                          policy=Truncation(LOG_G), sample_trajectories=3,
                          population_cap=1 << 48))
    text = repr((res.extinction_generations.tolist(), res.per_generation_alive_counts.tolist(),
                 res.per_generation_alive_size_sums,
                 [(t.counts, t.absorbed_at) for t in res.sampled_trajectories]))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "8ccc7aac119128d9902e86cd822cb8e8e5edd944a40ce626a37fb15dc507e076")


# --------------------------------------------- policies folded into the table

FOLD_POLICIES = {
    "identity": None,
    "truncation_constant": Truncation(GrowthFunction.constant(5)),
    "truncation_log": Truncation(LOG_G),
    "truncation_linear": Truncation(GrowthFunction.linear(0.05, 1)),
    "truncation_table": Truncation(GrowthFunction.from_table([3, 1, 6, 2, 9, 4, 7])),
    "truncation_as_absorption": TruncationAsAbsorption(GrowthFunction.linear(0.1, 2)),
    "lower_boundary": LowerBoundary(GrowthFunction.from_table([1, 2, 2, 3])),
    "disaster": Disaster(DisasterSchedule.c_over_k(0.5)),
}
DECAY = ExplicitPmf({0: 0.05, 1: 0.95})
BASE = ExplicitPmf({1: 0.6, 2: 0.4})  # a two-atom pmf with base 1: 1 + Bin(1, 0.4) a parent
# (policy, law, initial size): each policy binds within small counts, where
# spans run for many generations
FOLD_CASES = {
    "identity": ("identity", DECAY, 6),
    "identity_binomial": ("identity", Binomial(3, 0.3), 6),
    "truncation_constant": ("truncation_constant", PMF2, 2),
    "truncation_constant_base": ("truncation_constant", BASE, 2),
    "truncation_log_binomial": ("truncation_log", Binomial(3, 0.6), 2),
    "truncation_linear_base": ("truncation_linear", BASE, 1),
    "truncation_table": ("truncation_table", PMF2, 2),
    "truncation_table_binomial": ("truncation_table", Binomial(3, 0.5), 2),
    "truncation_as_absorption_binomial": ("truncation_as_absorption", Binomial(3, 0.5), 2),
    "lower_boundary": ("lower_boundary", DECAY, 6),
    "lower_boundary_base": ("lower_boundary", ExplicitPmf({1: 0.97, 2: 0.03}), 2),
    "disaster": ("disaster", DECAY, 6),
    "disaster_binomial": ("disaster", Binomial(3, 0.3), 4),
}


@pytest.mark.parametrize("case", FOLD_CASES)
def test_a_folded_span_leaves_what_one_generation_steps_leave(case):
    policy, law, initial = FOLD_CASES[case]
    cfg = Batch(law, horizon=60, trials=30, master_seed=13, policy=FOLD_POLICIES[policy],
                initial_size=initial)
    _, _, spans = assert_spans_change_nothing(cfg)
    assert max(span[1] for span in spans) >= 4


# the initial size, seed and horizon of a Binomial(3, 0.6) run whose counts
# pass 10 parents, 32 trials, within a span
PAST_ROWS = {"truncation_log": (2, 4, 300), "truncation_as_absorption": (2, 4, 150),
             "lower_boundary": (3, 2, 60), "disaster": (2, 4, 60)}


@pytest.mark.parametrize("name", PAST_ROWS)
def test_folded_spans_end_at_a_death_a_row_the_table_cannot_draw_and_past_the_rows(name):
    policy, capped = FOLD_POLICIES[name], name.startswith("truncation")
    # a span keeps the generation of a death and ends there
    cfg = Batch(DECAY, horizon=80, trials=100, master_seed=5, initial_size=4, policy=policy)
    _, _, spans = assert_spans_change_nothing(cfg)
    assert any(died and done < count for count, done, died, _ in spans)
    # counts of at most 5, within the rows that undrawable_row_4 builds: a
    # span ends before a row the table cannot draw (a cap holds a growing law there)
    law, initial, trials = (ExplicitPmf({1: 0.4, 2: 0.6}), 1, 300) if capped else (DECAY, 5, 20)
    cfg = Batch(law, horizon=80, trials=trials, master_seed=9, initial_size=initial,
                policy=policy)
    _, _, spans = assert_spans_change_nothing(
        cfg, lambda draw: undrawable_row_4(draw, -2 if capped else 0))
    assert any(0 < done < count and not died and top <= 5 for count, done, died, top in spans)
    # 3 z trials past 32: numpy draws
    initial, seed, horizon = PAST_ROWS[name]
    cfg = Batch(Binomial(3, 0.6), horizon=horizon, trials=5, master_seed=seed,
                initial_size=initial, policy=policy)
    _, _, spans = assert_spans_change_nothing(
        cfg, lambda draw: draw(np.array([10]), rng()))
    assert any(0 < done < count and not died and 3 * top > 32
               for count, done, died, top in spans)


@pytest.mark.parametrize("name", ["truncation_constant", "truncation_log", "truncation_linear",
                                  "truncation_table", "truncation_as_absorption",
                                  "lower_boundary"])
def test_apply_on_the_totals_depends_on_the_generation_only_through_its_level(name):
    policy, left = FOLD_POLICIES[name], {}
    runs = policy.levels(1, 400)
    ends = [j for j, _ in runs[1:]] + [400]
    level = {n: v for (j, v), end in zip(runs, ends) for n in range(j, end)}
    assert list(level) == list(range(1, 400))  # the runs cover 1 .. 399 in order
    for n in range(1, 400):
        totals = policy.apply(np.arange(70), n).tolist()
        assert left.setdefault(level[n], totals) == totals
    # levels past every total act alike, as the fold cache assumes: here
    # totals of at most 2
    past = {tuple(policy.apply(np.arange(3), n)) for n in range(1, 400) if level[n] > 2}
    assert len(past) == 1


def test_policies_that_read_no_level_have_level_0():
    for policy in (ControlPolicy(), FOLD_POLICIES["disaster"]):
        assert policy.levels(7, 9) == [(7, 0)] and policy.levels(1, 100_001) == [(1, 0)]


def record_folds(monkeypatch):
    """The levels of the tables ``_fold`` builds, in order, and the sizes of
    the cache it adds each to."""
    folded, sizes, fold = [], [], table._TableDraw._fold

    def recorded(self, n, level):
        folded.append(level)
        sizes.append(len(self._folds))
        return fold(self, n, level)
    monkeypatch.setattr(table._TableDraw, "_fold", recorded)
    return folded, sizes


@dataclass(frozen=True)
class UnfoldedTruncation(ControlPolicy):
    """Truncation's ``apply`` without its ``levels``: it applies every generation."""

    g: GrowthFunction
    apply = Truncation.apply


def test_a_linear_g_over_the_largest_horizon_keeps_the_fold_cache_bounded(monkeypatch):
    # g(n) = n + 1 has a level of its own every generation, and the counts stay
    # within the table's 32 rows of a {0, 1} law: levels past 32 fold alike
    law, g = ExplicitPmf({0: 1e-6, 1: 1 - 1e-6}), GrowthFunction.linear(1, 1)
    cfg = Batch(law, horizon=100_000, trials=4, master_seed=3, initial_size=20,
                policy=Truncation(g))
    folded, sizes, draws = *record_folds(monkeypatch), []
    wrap_lanes(monkeypatch, draws.append)
    res = run_batch(cfg)
    draw = draws[0]
    assert len(draw._folds) <= draw.most + 2 == 34
    assert max(sizes) < draw.most + 2
    ref = run_batch(Batch(law, horizon=100_000, trials=4, master_seed=3, initial_size=20,
                          policy=UnfoldedTruncation(g)))
    assert res.per_generation_alive_counts[-1] == 4  # every trial lives to the end
    assert_same_result(res, ref)
    # each level folds once, levels up to 33 standing for all past every total
    assert len(folded) == len(set(folded)) <= 33 and max(folded) == 33


def fold_cache_bytes(draw):
    """The bytes of draw's fold cache: its folds and the buckets they share."""
    merged, guide, _, repeats, ident = draw._merged
    return (sum(f.nbytes for f in draw._folds.values())
            + merged.nbytes + guide.nbytes + repeats.nbytes + ident.nbytes)


@pytest.mark.parametrize("law, initial, horizon", [
    (ExplicitPmf({0: 1e-6, 1: 1 - 1e-6}), 20, 100_000), (PMF2, 1, 200)], ids=["pmf01", "pmf02"])
def test_the_fold_cache_keeps_within_its_bound(monkeypatch, law, initial, horizon):
    # g(n) = n + 1 folds a new level every generation; the {0, 2} law's
    # rows reach 32 counts (W = 1024), where its levels' folds pass 4 MiB in all
    seen, built, fold = [], [], table._TableDraw._fold

    def recorded(self, *args):
        out = fold(self, *args)
        built.append(out.nbytes)
        seen.append(fold_cache_bytes(self))
        return out
    monkeypatch.setattr(table._TableDraw, "_fold", recorded)
    cfg = Batch(law, horizon=horizon, trials=4, master_seed=3, initial_size=initial,
                policy=Truncation(GrowthFunction.linear(1, 1)))
    assert_spans_change_nothing(cfg)
    assert max(seen) <= table._FOLD_BYTES == 1 << 20
    assert (sum(built) > 4 << 20) == (law is PMF2)


def test_a_lower_boundary_past_every_total_folds_as_one_that_absorbs_every_count():
    # a {0, 1} law's totals are at most 32; b(n) = n leaves a count of 32 at
    # generation 32 and absorbs it at 33, where the level passes every total
    cfg = Batch(ExplicitPmf({0: 1e-9, 1: 1 - 1e-9}), horizon=40, trials=5, master_seed=2,
                initial_size=32, policy=LowerBoundary(GrowthFunction.linear(1, 0)))
    res, _, spans = assert_spans_change_nothing(cfg)
    assert res.extinction_generations.tolist() == [33] * 5
    assert max(span[1] for span in spans) >= 16


def fold_of(draw, policy, n, level):
    """draw's fold of ``policy`` at ``level``, over its built rows, and the
    buckets it folds over."""
    draw._policy, draw._folds, draw._merged = policy, {}, table._buckets(draw._table)
    return draw._fold(n, level), draw._merged


def assert_fold_leaves_what_apply_leaves(draw, policy, n, level):
    """Each state of the fold of every built row (-1, 0, each row and counts
    past the rows) at uniforms at each merged threshold and just below it, at
    0, at 2^53 - 1 and at 5000 random ones holds what ``apply`` leaves of the
    row's total; returns the most it leaves."""
    keys, values, built = draw._table
    fold, (merged, guide, shift, *_) = fold_of(draw, policy, n, level)
    assert fold.dtype == np.int64 and fold.size == (built + 1 << shift) + 1
    m = np.concatenate([merged, merged[1:] - 1, [0, (1 << 53) - 1],
                        rng(5).integers(0, 1 << 53, 5000)])
    b = table._guided(m.copy(), guide, merged)
    assert b.tolist() == merged.searchsorted(m, side="right").tolist() and b.max() < 1 << shift
    for s in range(-1, built + 4):
        got = fold.take((s << shift) + b, mode="clip") >> shift
        want = np.full(m.size, -1)
        if 0 < s <= built:
            totals = values.take(keys.searchsorted((s << 53) + m, side="right"))
            want = policy.apply(totals, n)
        assert got.tolist() == want.tolist(), s
    return int(fold.max()) >> shift


def test_a_fold_looks_up_what_the_policy_leaves_of_each_row_at_each_bucket():
    draw = table._binomial_draw(0.75, 2)
    draw(np.arange(1, 33), rng())  # builds all 32 rows
    cap = Truncation(GrowthFunction.constant(3))
    assert assert_fold_leaves_what_apply_leaves(draw, cap, 1, 3) == 3
    # a fold has a row for every built count, whatever its level leaves
    for policy, level, leaves in [(cap, 3, 3), (ControlPolicy(), 0, 64)]:
        fold, (_, _, shift, *_) = fold_of(draw, policy, 1, level)
        assert fold.size == ((32 + 1) << shift) + 1 and int(fold.max()) >> shift == leaves


SMALL_LAWS = st.one_of(
    st.builds(lambda lo, step, p: ExplicitPmf({lo: p, lo + step: 1 - p}),
              st.integers(0, 3), st.integers(1, 3), st.floats(0.01, 0.99)),
    st.builds(Binomial, st.integers(1, 4), st.floats(0.01, 0.99)))
SMALL_POLICIES = {"identity": lambda level: ControlPolicy(),
                  "truncation": lambda level: Truncation(GrowthFunction.constant(level)),
                  "truncation_as_absorption":
                      lambda level: TruncationAsAbsorption(GrowthFunction.constant(level)),
                  "lower_boundary": lambda level: LowerBoundary(GrowthFunction.constant(level))}


@settings(max_examples=80, deadline=None)
@given(law=SMALL_LAWS, kind=st.sampled_from(sorted(SMALL_POLICIES)), built=st.integers(1, 32),
       past=st.integers(-3, 3))
def test_folds_of_small_laws_leave_what_each_policy_leaves(law, kind, built, past):
    # levels below, at and past the built rows
    draw = engine._make_block_draw(law)
    built = min(built, draw.rows)
    draw(np.arange(1, built + 1), rng())
    level = max(built + past, 1)
    assert assert_fold_leaves_what_apply_leaves(draw, SMALL_POLICIES[kind](level), 1, level) \
        <= draw.most


@dataclass(frozen=True)
class OddGenerationsCapped(ControlPolicy):
    """A policy of one's own whose apply reads the generation but that has no
    levels of its own: it must not fold."""

    def apply(self, counts, generation, rng=None):
        if generation % 2:
            np.minimum(counts, 3, out=counts)
        return counts


@dataclass(frozen=True)
class LevelOnly(ControlPolicy):
    """A ``level`` method, which no table reads, and an apply that reads it."""

    def level(self, generation):
        return 3 if generation % 2 else 5

    def apply(self, counts, generation, rng=None):
        return np.minimum(counts, self.level(generation), out=counts)


@pytest.mark.parametrize("policy", [OddGenerationsCapped(), LevelOnly()],
                         ids=["apply_alone", "level_method"])
def test_a_policy_without_levels_of_its_own_applies_every_generation(monkeypatch, policy):
    folded, _ = record_folds(monkeypatch)
    cfg = Batch(PMF2, horizon=60, trials=30, master_seed=13, policy=policy, initial_size=2)
    res, _, spans = assert_spans_change_nothing(cfg)
    assert max(span[1] for span in spans) >= 4 and not folded


@dataclass(frozen=True)
class CappedByParity(ControlPolicy):
    """A policy of one's own with ``levels``: a cap of 3 in odd generations
    and of 5 in even ones."""

    def levels(self, n0, n1):
        return [(n, 3 if n % 2 else 5) for n in range(n0, n1)]

    def apply(self, counts, generation, rng=None):
        return np.minimum(counts, 3 if generation % 2 else 5, out=counts)


def test_a_policy_with_levels_of_its_own_folds_by_them(monkeypatch):
    folded, _ = record_folds(monkeypatch)
    cfg = Batch(PMF2, horizon=60, trials=30, master_seed=13, policy=CappedByParity(),
                initial_size=2)
    res, _, spans = assert_spans_change_nothing(cfg)
    assert max(span[1] for span in spans) >= 4 and set(folded) == {3, 5}
