"""Two-sex process: mating functions, unit steps, m(k) estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from branchsim import (
    BatchTrialError,
    BisexualState,
    ConfigError,
    CustomMating,
    DaleyMonogamy,
    DaleyPolygamy,
    ExplicitPmf,
    Geometric,
    Min,
    Poisson,
    PopulationOverflow,
    TrialStreams,
    bisexual_step,
    initial_state,
    mean_reproduction_per_unit,
    run_batch,
    run_bisexual_batch,
    theorem4_check,
)
from branchsim import bisexual, table
from branchsim.bisexual import _exact_mean_units, _MatingStep, _units_table
from branchsim.engine import _TRIAL_BLOCK
from branchsim.law import INT64_MAX


@dataclass
class Batch:
    law: object
    horizon: int
    trials: int
    master_seed: int
    alpha: float = 0.5
    mating: object = None
    initial_units: int = 1
    initial_size: int = 1
    population_cap: int = 1 << 200
    sample_trajectories: int = 0
    failure_budget: int = 0
    coupled: bool = False


def rng(seed=0):
    return np.random.default_rng(seed)


def min_poisson_mean(lam, tol=1e-12):
    """E min(X, Y) for independent X, Y ~ Poisson(lam), via sum of P(X >= j)^2."""
    total = 0.0
    p = math.exp(-lam)  # P(X = 0)
    tail = 1.0 - p
    j = 1
    while tail**2 > tol:
        total += tail**2
        p *= lam / j
        tail -= p
        j += 1
    return total


# ------------------------------------------------------------ mating functions

def test_mating_function_values():
    assert Min().units(3, 5) == 3
    assert Min().units(0, 5) == 0
    assert DaleyMonogamy().units(4, 0) == 0
    assert DaleyMonogamy().units(4, 1) == 4
    assert DaleyMonogamy().units(4, 9) == 4
    assert DaleyPolygamy(3).units(7, 2) == 6
    assert DaleyPolygamy(3).units(5, 2) == 5


def test_mating_vector_forms_match_scalar():
    fs = np.array([0, 1, 4, 7, 2])
    ms = np.array([3, 0, 4, 2, 2])
    for mating in (Min(), DaleyMonogamy(), DaleyPolygamy(2),
                   CustomMating(lambda x, y: x + y)):
        vec = mating.units(fs, ms)
        assert vec.tolist() == [mating.units(int(f), int(m)) for f, m in zip(fs, ms)]
    # d * males would wrap in int64
    big = np.array([1 << 62, 5])
    assert DaleyPolygamy(3).units(big, big).tolist() == [1 << 62, 5]
    # and so would d * (females // d + 1) for females within d of 2^63
    females, males = np.array([(1 << 63) - 10, 7, 9]), np.array([5, 1, 0])
    assert DaleyPolygamy(1 << 62).units(females, males).tolist() == [(1 << 63) - 10, 7, 0]
    assert DaleyPolygamy((1 << 63) - 1).units(females, males).tolist() == [(1 << 63) - 10, 7, 0]


def test_polygamy_degree_validated():
    with pytest.raises(ConfigError):
        DaleyPolygamy(0)
    with pytest.raises(ConfigError):
        DaleyPolygamy(1.5)


def test_custom_mating_validation():
    CustomMating(lambda x, y: x + y)  # valid
    with pytest.raises(ConfigError):
        CustomMating(lambda x, y: x + y + 1)  # M(0, 0) != 0
    with pytest.raises(ConfigError):
        CustomMating(lambda x, y: x - y)  # decreasing in y (and negative)
    with pytest.raises(ConfigError):
        CustomMating(lambda x, y: x * 0.5)  # fractional


# ------------------------------------------------------------------- stepping

def test_initial_state_carries_units_only():
    s = initial_state(5)
    assert (s.females, s.males, s.units, s.generation) == (0, 0, 5, 0)
    with pytest.raises(ConfigError):
        initial_state(-1)


def test_step_from_zero_units_is_absorbing():
    s = bisexual_step(initial_state(0), Poisson(2.0), 0.5, Min(), TrialStreams(0, 0))
    assert (s.females, s.males, s.units) == (0, 0, 0)
    assert s.generation == 1


def test_step_sex_counts_are_consistent():
    # deterministic law: each unit has exactly two offspring, so the sex
    # split must always account for 2 * units of them
    law = ExplicitPmf({2: 1.0})
    streams = TrialStreams(1, 0)
    state = initial_state(3)
    for _ in range(5):
        prev_units = state.units
        state = bisexual_step(state, law, 0.3, DaleyMonogamy(), streams)
        assert state.females + state.males == 2 * prev_units
        assert state.units == DaleyMonogamy().units(state.females, state.males)
        if state.units == 0:
            break


def test_step_units_follow_mating_function():
    streams = TrialStreams(9, 2)
    state = initial_state(4)
    for mating in (Min(), DaleyPolygamy(2)):
        nxt = bisexual_step(state, Poisson(1.5), 0.4, mating, streams)
        assert nxt.units == mating.units(nxt.females, nxt.males)


def test_step_mean_units_single_pair_law():
    # one unit, exactly two offspring: (F, M) is (2,0)/(1,1)/(0,2) with
    # probabilities 1/4, 1/2, 1/4, so E[min units] = 1/2
    law = ExplicitPmf({2: 1.0})
    n = 20_000
    units = []
    for t in range(n):
        s = bisexual_step(initial_state(1), law, 0.5, Min(), TrialStreams(11, t))
        units.append(s.units)
    est = float(np.mean(units))
    assert est == pytest.approx(0.5, abs=5 * 0.5 / math.sqrt(n))
    assert set(units) == {0, 1}


def test_step_alpha_validated():
    for alpha in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ConfigError):
            bisexual_step(initial_state(1), Poisson(1.0), alpha, Min(),
                          TrialStreams(0, 0))


# ---------------------------------------------------------- m(k) estimation

def test_mean_reproduction_exact_single_unit():
    r = mean_reproduction_per_unit(1, ExplicitPmf({2: 1.0}), 0.5, Min(),
                                   trials=10, rng=rng())
    assert r.exact
    assert r.estimate == pytest.approx(0.5, abs=1e-12)
    assert r.halfwidth == 0.0


def test_mean_reproduction_exact_two_units():
    # totals 0/2/4 with probs 1/4, 1/2, 1/4; E[min units] = 0.5625
    r = mean_reproduction_per_unit(2, ExplicitPmf({0: 0.5, 2: 0.5}), 0.5, Min(),
                                   trials=10, rng=rng())
    assert r.exact
    assert r.estimate == pytest.approx(0.5625 / 2, abs=1e-12)


def test_mean_reproduction_monte_carlo_matches_exact():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    exact = mean_reproduction_per_unit(2, law, 0.5, Min(), trials=1, rng=rng())
    mc = mean_reproduction_per_unit(2, law, 0.5, Min(), trials=150_000,
                                    rng=rng(7), exact=False)
    assert exact.exact and not mc.exact
    assert mc.halfwidth > 0
    assert abs(mc.estimate - exact.estimate) < 3 * mc.halfwidth


def test_mean_reproduction_poisson_min_oracle():
    oracle = min_poisson_mean(1.0)
    r = mean_reproduction_per_unit(1, Poisson(2.0), 0.5, Min(),
                                   trials=200_000, rng=rng(5))
    assert not r.exact
    assert abs(r.estimate - oracle) < 3 * r.halfwidth


def test_mean_reproduction_childless_law_is_zero():
    r = mean_reproduction_per_unit(3, ExplicitPmf({0: 1.0}), 0.5, Min(),
                                   trials=100, rng=rng())
    assert r.estimate == 0.0


def test_mean_reproduction_validation():
    with pytest.raises(ConfigError):
        mean_reproduction_per_unit(0, Poisson(1.0), 0.5, Min(), 10, rng())
    with pytest.raises(ConfigError):
        mean_reproduction_per_unit(1, Poisson(1.0), 0.5, Min(), 0, rng())
    with pytest.raises(ConfigError):
        mean_reproduction_per_unit(1, Poisson(1.0), 1.0, Min(), 10, rng())
    with pytest.raises(ConfigError):  # infinite support has no exact mean
        mean_reproduction_per_unit(1, Poisson(1.0), 0.5, Min(), 10, rng(),
                                   exact=True)


def test_min_mating_estimate_bounded_by_sex_means():
    # E[M(F, M)] <= min(E F, E M) by Jensen applied to min
    law = Poisson(2.0)
    for k in (1, 4):
        r = mean_reproduction_per_unit(k, law, 0.5, Min(), trials=50_000,
                                       rng=rng(k))
        assert r.estimate <= 2.0 * 0.5 + 3 * r.halfwidth


# ------------------------------------------------------------- theorem check

def test_boundedness_report_subcritical_min():
    rep = theorem4_check(Poisson(1.5), 0.5, Min(), k_max=64,
                         trials_per_k=20_000, rng=rng(17))
    assert rep.bounded
    assert rep.eventually_leq_one
    assert rep.evidence_for_extinction
    ks = [e.k for e in rep.estimates]
    assert ks == [1, 2, 4, 8, 16, 32, 64]
    assert all(e.estimate < 1.0 for e in rep.estimates)


def test_boundedness_report_flags_growing_sequence():
    rep = theorem4_check(Poisson(1.2), 0.5, CustomMating(lambda x, y: x * y),
                         k_max=32, trials_per_k=10_000, rng=rng(3))
    assert not rep.bounded
    assert not rep.evidence_for_extinction


def test_boundedness_report_supercritical_min():
    rep = theorem4_check(Poisson(3.0), 0.5, Min(), k_max=32,
                         trials_per_k=10_000, rng=rng(4))
    assert not rep.eventually_leq_one
    assert not rep.evidence_for_extinction


def test_boundedness_report_boundary_case_noted():
    rep = theorem4_check(ExplicitPmf({2: 1.0}), 0.5, DaleyMonogamy(), k_max=64,
                         trials_per_k=20_000, rng=rng(2))
    assert rep.bounded
    assert rep.eventually_leq_one
    assert "boundary" in rep.note


def test_boundedness_report_childless_law():
    rep = theorem4_check(ExplicitPmf({0: 1.0}), 0.5, Min(), k_max=8,
                         trials_per_k=100, rng=rng())
    assert rep.bounded and rep.eventually_leq_one and rep.evidence_for_extinction
    assert all(e.estimate == 0.0 for e in rep.estimates)


def test_theorem_check_validates_k_max():
    with pytest.raises(ConfigError):
        theorem4_check(Poisson(1.0), 0.5, Min(), k_max=1, trials_per_k=10,
                       rng=rng())


def test_theorem_check_grid_includes_irregular_k_max():
    rep = theorem4_check(ExplicitPmf({0: 1.0}), 0.5, Min(), k_max=12,
                         trials_per_k=10, rng=rng())
    assert [e.k for e in rep.estimates] == [1, 2, 4, 8, 12]


# ------------------------------------------------------------------ batches

def test_bisexual_batch_min_mating_goes_extinct_more_often_than_gwp():
    # mating can only lose units relative to the plain count process; the
    # short horizon keeps surviving populations within fast sampling range
    seed, horizon, trials = 23, 20, 4000
    bis = run_bisexual_batch(Batch(Poisson(3.0), horizon, trials, seed,
                                   mating=Min()))
    gwp = run_batch(Batch(Poisson(3.0), horizon, trials, seed))
    assert bis.extinction_fraction >= gwp.extinction_fraction
    assert 0.0 < bis.extinction_fraction < 1.0


def test_bisexual_batch_boundary_min_mating_dies_out():
    # Poisson(2) with alpha 1/2 and Min mating has m(k) < 1 for every k,
    # so extinction is certain even though the raw offspring mean is 2
    res = run_bisexual_batch(Batch(Poisson(2.0), horizon=60, trials=2000,
                                   master_seed=23, mating=Min()))
    assert res.extinction_fraction == 1.0


def test_bisexual_batch_with_additive_mating_equals_gwp():
    """With M(x, y) = x + y the unit process is the plain branching process."""
    cfg = Batch(Geometric(0.4), horizon=50, trials=600, master_seed=11,
                mating=CustomMating(lambda x, y: x + y))
    bis = run_bisexual_batch(cfg)
    gwp = run_batch(Batch(Geometric(0.4), horizon=50, trials=600, master_seed=11))
    assert np.array_equal(bis.extinction_generations, gwp.extinction_generations)
    assert bis.per_generation_alive_size_sums == gwp.per_generation_alive_size_sums


def test_custom_mating_past_int64_fails_its_trial_within_the_budget():
    # 10^6 x y passes 2^63 - 1 from about 3 * 10^6 offspring of each sex; the
    # trial fails when those units, past the cap, are drawn from
    mating = CustomMating(lambda x, y: 10**6 * x * y)
    cfg = Batch(Poisson(3.0), horizon=30, trials=10, master_seed=1, mating=mating,
                initial_units=5, failure_budget=10)
    res = run_bisexual_batch(cfg)
    assert res.failed_trials
    assert res.trials + len(res.failed_trials) == 10
    for f in res.failed_trials:
        assert isinstance(f, BatchTrialError)
        assert isinstance(f.cause, PopulationOverflow)
    cfg.failure_budget = 0
    with pytest.raises(BatchTrialError) as err:
        run_bisexual_batch(cfg)
    assert isinstance(err.value.cause, PopulationOverflow)


@pytest.mark.parametrize("mating", [Min(), DaleyMonogamy(), DaleyPolygamy(3),
                                    CustomMating(lambda x, y: x + y)],
                         ids=["min", "monogamy", "polygamy", "x_plus_y"])
def test_generation_totals_past_int64_follow_the_cap(mating):
    # 2^62 units of two offspring each make 2^63, past int64 but within the
    # configured cap of 2^200: the sex split and the mating stay exact
    cfg = Batch(ExplicitPmf({2: 1.0}), horizon=1, trials=2, master_seed=1, mating=mating,
                initial_units=1 << 62, failure_budget=2, sample_trajectories=2)
    res = run_bisexual_batch(cfg)
    assert not res.failed_trials and res.trials == 2
    for n in range(2):
        assert res.per_generation_alive_size_sums[n] == sum(
            t.counts[n] for t in res.sampled_trajectories)
    assert all(t.counts[1] > 0 for t in res.sampled_trajectories)
    state = bisexual_step(initial_state(1 << 62), cfg.law, 0.5, mating, TrialStreams(1, 0),
                          population_cap=1 << 200)
    assert state.females + state.males == 1 << 63
    assert 0 < state.units <= 1 << 63


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_mating_step_rejects_alpha_outside_the_unit_interval(alpha):
    # alpha 0.0 ran and counted every trial extinct; 1.5 leaked numpy's ValueError
    cfg = Batch(Poisson(2.0), horizon=5, trials=10, master_seed=1, alpha=alpha, mating=Min())
    with pytest.raises(ConfigError, match="alpha must lie strictly inside"):
        run_bisexual_batch(cfg)
    with pytest.raises(ConfigError, match="alpha must lie strictly inside"):
        _MatingStep(alpha, Min())


@pytest.mark.parametrize("path", ["kernel", "bisexual_step"])
def test_sex_split_of_totals_near_2_60_keeps_its_low_bits(path):
    # numpy's own binomial split of 2^60 offspring is always a multiple of 16
    total, males_only = (1 << 60) + 3, CustomMating(lambda x, y: y)
    if path == "kernel":
        n = 20_000
        step = _MatingStep(0.5, males_only)
        males = step.apply(np.full(n, total, dtype=np.int64), 1, rng(5)).tolist()
    else:
        n = 2_000
        males = [bisexual_step(initial_state(total), ExplicitPmf({1: 1.0}), 0.5, males_only,
                               TrialStreams(5, t), population_cap=1 << 62).units
                 for t in range(n)]
    dev = np.array([m - total // 2 for m in males], dtype=np.float64) - 0.5
    assert abs(dev.mean()) < 4 * math.sqrt(total / 4 / n)
    assert abs(dev.var() - total / 4) < 4 * (total / 4) * math.sqrt(2 / n)
    share = np.bincount([m % 4 for m in males], minlength=4) / n
    assert np.abs(share - 0.25).max() < 5 * math.sqrt(0.25 * 0.75 / n)


def xy_units(cap, budget=0):
    """x y units of about 2^31 females and 2^31 males: each count is near
    2^62, far more than the 2^32 offspring of a trial."""
    return Batch(ExplicitPmf({2: 1.0}), horizon=1, trials=8, master_seed=3,
                 mating=CustomMating(lambda x, y: x * y), initial_units=1 << 31,
                 population_cap=cap, sample_trajectories=8, failure_budget=budget)


def test_alive_sums_stay_exact_when_mating_pairs_more_units_than_offspring():
    # the cap is 2^63 - 1, so no trial fails, and the block's sum passes 2^63
    res = run_bisexual_batch(xy_units(INT64_MAX))
    assert not res.failed_trials and res.trials == 8
    finals = [t.counts[1] for t in res.sampled_trajectories]
    assert all(1 << 61 < c < 1 << 63 for c in finals)
    assert sum(finals) > 1 << 63
    for n in range(2):
        assert res.per_generation_alive_size_sums[n] == sum(
            t.counts[n] for t in res.sampled_trajectories)


def test_mated_units_past_the_cap_fail_their_trials():
    # with a cap among the x y units, a trial whose units pass it fails as
    # when its offspring pass it; the other trials keep their counts
    finals = [t.counts[1] for t in run_bisexual_batch(xy_units(INT64_MAX)).sampled_trajectories]
    cap = sorted(finals)[3]
    over = [i for i, c in enumerate(finals) if c > cap]
    assert 0 < len(over) < 8
    res = run_bisexual_batch(xy_units(cap, budget=8))
    assert [f.trial_index for f in res.failed_trials] == over
    for f in res.failed_trials:
        assert isinstance(f.cause, PopulationOverflow)
        assert str(f.cause) == f"{finals[f.trial_index]} units exceed cap {cap}"
    kept = [c for i, c in enumerate(finals) if i not in over]
    assert [t.counts[1] for t in res.sampled_trajectories] == kept
    assert res.per_generation_alive_size_sums[1] == sum(kept)
    assert res.trials == len(kept) and res.extinction_fraction == 0.0
    with pytest.raises(BatchTrialError) as err:
        run_bisexual_batch(xy_units(cap))
    assert err.value.trial_index == over[0]
    assert isinstance(err.value.cause, PopulationOverflow)


def test_alive_sums_of_a_full_block_near_the_int64_limit_stay_exact():
    # a block of _TRIAL_BLOCK int64 counts just below 2^63 - 1, with varied
    # low bits: their sum passes 2^63 many times over
    top = INT64_MAX - (1 << 21)
    mating = CustomMating(lambda x, y: top + min(x, y) if min(x, y) else 0)
    cfg = Batch(ExplicitPmf({2: 1.0}), horizon=1, trials=_TRIAL_BLOCK, master_seed=4,
                mating=mating, initial_units=1 << 20, population_cap=INT64_MAX,
                sample_trajectories=_TRIAL_BLOCK)
    res = run_bisexual_batch(cfg)
    finals = [t.counts[1] for t in res.sampled_trajectories]
    assert len(finals) == _TRIAL_BLOCK and len({c % (1 << 32) for c in finals}) > 100
    assert all(top < c < INT64_MAX for c in finals)
    assert res.per_generation_alive_size_sums == [_TRIAL_BLOCK << 20, sum(finals)]


def test_bisexual_batch_thread_independent():
    cfg = Batch(Poisson(1.8), horizon=40, trials=1200, master_seed=5,
                mating=DaleyPolygamy(2))
    r1 = run_bisexual_batch(cfg, threads=1)
    r8 = run_bisexual_batch(cfg, threads=8)
    assert np.array_equal(r1.extinction_generations, r8.extinction_generations)
    assert np.array_equal(r1.per_generation_alive_counts,
                          r8.per_generation_alive_counts)


def test_bisexual_batch_zero_initial_units():
    cfg = Batch(Poisson(2.0), horizon=10, trials=16, master_seed=0,
                mating=Min(), initial_units=0)
    res = run_bisexual_batch(cfg)
    assert res.extinction_fraction == 1.0
    assert np.all(res.extinction_generations == 0)


def test_bisexual_batch_validates_config():
    with pytest.raises(ConfigError):
        run_bisexual_batch(Batch(Poisson(1.0), horizon=0, trials=5,
                                 master_seed=0, mating=Min()))
    with pytest.raises(ConfigError):
        run_bisexual_batch(Batch(Poisson(1.0), horizon=5, trials=0,
                                 master_seed=0, mating=Min()))
    with pytest.raises(ConfigError, match="no coupled mode"):
        run_bisexual_batch(Batch(Poisson(1.0), horizon=5, trials=5,
                                 master_seed=0, mating=Min(), coupled=True))


# ------------------------------------------------------- the units kernel's rows

BUILT_IN = [Min(), DaleyMonogamy(), DaleyPolygamy(2)]
PMF3 = ExplicitPmf({0: 0.25, 1: 0.05, 3: 0.7})


def enumerated_mean_units(k, law, alpha, mating):
    """E[units after one step from k units]: every offspring total and sex split."""
    ks, ps = law.pmf_table()
    dist, unit_pmf = np.ones(1), np.zeros(int(ks[-1]) + 1)
    unit_pmf[ks] = ps
    for _ in range(k):
        dist = np.convolve(dist, unit_pmf)
    expected = 0.0
    for total, p_total in enumerate(dist):
        w = (1.0 - alpha) ** total
        for males in range(total + 1):
            expected += p_total * w * mating.units(total - males, males)
            w *= alpha / (1.0 - alpha) * (total - males) / (males + 1)
    return expected


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.7])
@pytest.mark.parametrize("pmf", [{2: 1.0}, {0: 0.5, 2: 0.5}, {0: 0.2, 1: 0.3, 3: 0.5},
                                 {1: 0.6, 4: 0.4}, {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}])
def test_exact_mean_units_through_the_kernel_are_the_enumeration(pmf, alpha):
    law = ExplicitPmf(pmf)
    for mating in BUILT_IN + [CustomMating(lambda x, y: x * y)]:
        for k in range(1, 24 // law.max_k() + 1):
            want = enumerated_mean_units(k, law, alpha, mating)
            assert _exact_mean_units(k, law, alpha, mating) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.123456789])
def test_kernel_split_weights_near_the_mode_are_within_32_ulps(alpha):
    # totals up to the largest a units table holds; with 1 - alpha rounded
    # to one float, w would be off by about 300 ulps at t = 511, alpha = 0.3;
    # the kernel reads the weights of 1 - alpha from the other end past 1/2
    w = (table._binomial_weights(alpha, 511) if alpha <= 0.5
         else bisexual._kernel(alpha, Min(), 511)[0])
    a, d = Fraction(alpha).as_integer_ratio()
    for t in (1, 60, 300, 511):
        for b in range(t + 1):  # P(B = b) = exact / d^t, w[t, b] = m / e
            exact, (m, e) = math.comb(t, b) * a**b * (d - a) ** (t - b), w[t, b].as_integer_ratio()
            if exact << 40 > d**t:
                assert abs(m * d**t - exact * e) << 53 <= 32 * exact * e, (t, b)
        assert not w[t, t + 1:].any()


def test_pmf_row_thresholds_are_the_exact_cdf_rounded_up_to_within_one():
    # the running sums of 300 floats over six decades, each rounding
    # recovered, over their total: T_k = ceil(2^53 F(k)) of the exact cdf
    ps = np.random.default_rng(2).random(300) * np.logspace(-3, 3, 300)
    ps /= ps.sum()  # a float total that is not quite 1
    (thresholds, values), = table._pmf_rows(ps[None, :])
    assert values.tolist() == list(range(300)) and thresholds[-1] == 1 << 53
    total, run = sum(map(Fraction, ps.tolist())), Fraction(0)
    for k, p in enumerate(ps.tolist()[:-1]):
        run += Fraction(p)
        assert abs(int(thresholds[k]) - math.ceil(run / total * (1 << 53))) <= 1, k


@lru_cache(maxsize=None)
def exact_rows(law, alpha, mating, rows):
    """P(units = u | z units) of z = 1 .. rows, from the law's float weights
    and alpha taken as exact rationals: (numerators, common denominator) of each row."""
    weights = [Fraction(p) for _, p in law.atoms]
    scale = math.lcm(*(w.denominator for w in weights))
    ints = [0] * (law.max_k() + 1)
    for (k, _), w in zip(law.atoms, weights):
        ints[k] = int(w * scale)
    a, d = Fraction(alpha).as_integer_ratio()
    top = rows * law.max_k()
    # kernel[t][u] d^top: the sum over the splits of t with M = u of
    # C(t, b) a^b (d - a)^(t - b) d^(top - t)
    kernel = []
    for t in range(top + 1):
        row = [0] * (t + 1)
        for b in range(t + 1):
            row[int(mating.units(t - b, b))] += (math.comb(t, b) * a**b * (d - a) ** (t - b)
                                                 * d ** (top - t))
        kernel.append(row)
    out, power = [], [1]
    for z in range(1, rows + 1):
        power = [sum(power[t - k] * ints[k] for k in range(len(ints)) if 0 <= t - k < len(power))
                 for t in range(len(power) + len(ints) - 1)]
        units = [0] * len(power)
        for t, weight in enumerate(power):
            for u, x in enumerate(kernel[t]):
                units[u] += weight * x
        out.append((units, sum(ints) ** z * d**top))
    return out


def drawn_probabilities(lookup, z):
    """The probability, times 2^53, that row z of a table draws each of its values."""
    (thresholds, values), = lookup._rows(z, z + 1)
    assert values.tolist() == list(range(len(values)))
    return np.diff(np.concatenate(([0], thresholds))).tolist()


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.7])
@pytest.mark.parametrize("mating", BUILT_IN, ids=["min", "monogamy", "polygamy"])
def test_every_units_row_is_within_2_to_the_minus_50_of_each_exact_probability(mating, alpha):
    lookup = _units_table(PMF3, alpha, mating, 1 << 48)
    assert lookup.rows == 32 and lookup.most == 96
    for z, (units, den) in enumerate(exact_rows(PMF3, alpha, mating, 32), 1):
        drawn = drawn_probabilities(lookup, z)
        drawn += [0] * (len(units) - len(drawn))  # values past 2^53 F(u) = 2^53 are never drawn
        assert len(drawn) == len(units)
        # |drawn 2^-53 - units / den| <= 2^-50
        assert all(abs(p * den - x * (1 << 53)) <= 8 * den for p, x in zip(drawn, units))


def chi2_sf(x, df):
    """P(chi-square with df degrees of freedom > x): one minus the regularized
    lower gamma P(df / 2, x / 2), by its power series."""
    a, x = df / 2.0, x / 2.0
    term = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
    total, n = term, 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return 1.0 - total


def chi2_p_value(counts, probs):
    """Pearson's goodness of fit, with the cells of expected count below 5
    merged into their neighbours from the top."""
    n = sum(counts)
    cells, got, want = [], 0, 0.0
    for c, p in zip(counts, probs):
        got, want = got + c, want + n * p
        if want >= 5.0:
            cells.append((got, want))
            got, want = 0, 0.0
    if cells:
        cells[-1] = (cells[-1][0] + got, cells[-1][1] + want)
    stat = sum((g - w) ** 2 / w for g, w in cells)
    return chi2_sf(stat, len(cells) - 1)


def poisson_min_row(lam, alpha, z, top=200):
    """P(min(F, M) = u), u = 0 .. top, F and M independent Poissons of means
    (1 - alpha) lam z and alpha lam z: a Poisson total thinned by sex."""
    def surv(mu):
        p, cdf, out = math.exp(-mu), 0.0, []
        for j in range(top + 2):
            out.append(max(0.0, 1.0 - cdf))
            cdf, p = cdf + p, p * mu / (j + 1)
        return np.array(out)
    both = surv((1.0 - alpha) * lam * z) * surv(alpha * lam * z)
    return both[:-1] - both[1:]


def draw_row(lookup, z, n, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    return np.bincount(lookup.steps(np.full(n, z, dtype=np.int64), 1, gen)[0])


@pytest.mark.parametrize("law, alpha, mating", [
    (PMF3, 0.3, Min()), (PMF3, 0.3, DaleyMonogamy()), (PMF3, 0.3, DaleyPolygamy(2)),
    (Poisson(1.5), 0.5, Min()), (Poisson(1.5), 0.3, Min())],
    ids=["pmf3_min", "pmf3_monogamy", "pmf3_polygamy", "poisson_min_0.5", "poisson_min_0.3"])
def test_each_units_row_passes_a_chi_square_test(law, alpha, mating):
    # the pmf rows against their exact enumeration, the Poisson rows against thinning
    if isinstance(law, Poisson):
        probs = [poisson_min_row(law.lam, alpha, z) for z in range(1, 33)]
    else:
        probs = [[x / den for x in units] for units, den in exact_rows(law, alpha, mating, 32)]
    lookup = _units_table(law, alpha, mating, 1 << 48)
    for z, want in enumerate(probs, 1):
        counts = draw_row(lookup, z, 20_000, z).tolist()
        want = list(want) + [0.0] * (len(counts) - len(want))
        assert chi2_p_value(counts + [0] * (len(want) - len(counts)), want) > 1e-3, z


def test_a_units_table_needs_a_built_in_mating_and_totals_within_the_cap():
    assert _units_table(Poisson(1.5), 0.5, CustomMating(lambda x, y: min(x, y)), 1 << 48) is None
    assert _units_table(PMF3, 0.5, Min(), 95) is None  # 32 units may have 96 offspring
    assert _units_table(PMF3, 0.5, Min(), 96).most == 96
    assert _units_table(Poisson(40.0), 0.5, Min(), 1 << 48) is None  # totals of 2^9 and more
    assert _units_table(ExplicitPmf({0: 0.5, 40: 0.5}), 0.5, Min(), 1 << 48) is None


def test_small_unit_counts_take_one_lookup_and_larger_ones_the_sex_split(monkeypatch):
    # 40 units pass the table's 32 rows: the offspring draw and the sex split
    # run while a count of the block is past them, one lookup a generation after
    lanes, steps, split = [], table._TableDraw.steps, _MatingStep.split
    monkeypatch.setattr(table._TableDraw, "steps", lambda self, z, count, rng, *a: (
        lanes.append(("lookup", int(np.maximum.reduce(z)), count))
        or steps(self, z, count, rng, *a)))
    monkeypatch.setattr(_MatingStep, "split", lambda self, counts, rng: (
        lanes.append(("split",)) or split(self, counts, rng)))
    run_bisexual_batch(Batch(Poisson(1.5), horizon=40, trials=200, master_seed=4,
                             mating=Min(), initial_units=40))
    lookups = [call for call in lanes if call[0] == "lookup"]
    assert all(count == 1 for _, _, count in lookups)
    assert {top > 32 for _, top, _ in lookups} == {True, False}
    # a split follows each lookup past the rows, and no other
    assert lanes == [call for lookup in lookups
                     for call in ([lookup, ("split",)] if lookup[1] > 32 else [lookup])]


def thinned_min_chain(lam, alpha, initial, horizon, top=60):
    """[lo, hi] holding P(Z_n = 0), n = 0 .. horizon, for the units of min
    mating under Poisson(lam) offspring, built apart from the kernel: the
    offspring of k units, thinned by sex, are independent F ~ Poisson((1 -
    alpha) lam k) and M ~ Poisson(alpha lam k), so P(min(F, M) >= j) = P(F
    >= j) P(M >= j).  The chain runs on {0 .. top}; the mass that leaves it
    widens the interval."""
    step, leave = np.zeros((top + 1, top + 1)), np.zeros(top + 1)
    step[0, 0] = 1.0
    for k in range(1, top + 1):
        step[k] = poisson_min_row(lam, alpha, k, top)
        leave[k] = max(0.0, 1.0 - step[k].sum())
    pi, gone, out = np.zeros(top + 1), 0.0, [(0.0, 0.0)]
    pi[initial] = 1.0
    for _ in range(horizon):
        gone += float(pi @ leave)
        pi = pi @ step
        out.append((float(pi[0]), min(1.0, float(pi[0]) + gone)))
    return out


def kl_bernoulli(a, b):
    return sum(x * math.log(x / y) if y > 0.0 else math.inf
               for x, y in ((a, b), (1.0 - a, 1.0 - b)) if x > 0.0)


@pytest.mark.parametrize("lam, alpha", [(2.0, 0.5), (3.0, 0.3)])
def test_min_mating_under_poisson_holds_its_thinned_chain_at_every_generation(lam, alpha):
    # Chernoff: an extinct fraction f of N trials outside [lo, hi] has
    # probability at most exp(-N KL(f || lo or hi)); the bound is split over
    # both sides of every generation for a family-wise rate of 10^-9
    horizon, trials, initial = 30, 5000, 10
    res = run_bisexual_batch(Batch(Poisson(lam), horizon, trials, master_seed=29, alpha=alpha,
                                   mating=Min(), initial_units=initial))
    budget = math.log(2 * (horizon + 1) / 1e-9)
    for n, (lo, hi) in enumerate(thinned_min_chain(lam, alpha, initial, horizon)):
        f = res.per_generation_extinct_counts[n] / trials
        edge = lo if f < lo else hi if f > hi else f
        assert trials * kl_bernoulli(f, edge) <= budget, (n, f, lo, hi)
