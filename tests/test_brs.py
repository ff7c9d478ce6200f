"""Budget stopping times, the threshold equation, and the expectation bound."""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchsim import brs
from branchsim import (
    BudgetExceedsMass,
    ConfigError,
    CustomClaim,
    NumericFailure,
    Exponential,
    Population,
    Uniform,
    brs_bound,
    estimate_expected_stop,
    solve_threshold,
    spawn_generator,
    stopping_time,
)


def assert_crossing(pop, t):
    """t is where the computed sum_i n_i PM_i first reaches s: the float below falls short."""
    def total(x):
        return math.fsum(count * dist.partial_mean(x) for count, dist in pop.groups)
    assert total(math.nextafter(t, 0.0)) < pop.s <= total(t)


# ----------------------------------------------------------- distributions

def test_uniform_claim_closed_forms():
    d = Uniform(2.0)
    assert d.cdf(-1.0) == 0.0
    assert d.cdf(0.5) == 0.25
    assert d.cdf(3.0) == 1.0
    assert d.partial_mean(0.0) == 0.0
    assert d.partial_mean(1.0) == pytest.approx(0.25)
    assert d.partial_mean(5.0) == pytest.approx(1.0)
    assert d.mean == 1.0
    assert np.allclose(d.ppf(np.array([0.0, 0.5, 1.0])), [0.0, 1.0, 2.0])


def test_exponential_claim_closed_forms():
    d = Exponential(2.0)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0))
    assert d.mean == 0.5
    # partial mean against a trapezoid integral of x * f(x)
    t = 1.3
    xs = np.linspace(0.0, t, 20_001)
    numeric = np.trapezoid(xs * 2.0 * np.exp(-2.0 * xs), xs)
    assert d.partial_mean(t) == pytest.approx(numeric, rel=1e-6)
    u = np.array([0.1, 0.5, 0.9])
    back = [d.cdf(x) for x in np.asarray(d.ppf(u))]
    assert np.allclose(back, u)


def test_exponential_partial_mean_keeps_its_digits_at_small_rates_times_t():
    # 1 - e^-x (1 + x) = x^2/2 - x^3/3 + x^4/8 - ..., x = rate t
    d = Exponential(2.0)
    for t in (1e-10, 1e-8, 1e-6, 1e-3, 0.2):
        x = 2.0 * t
        series = math.fsum((-1) ** k * (k - 1) * x**k / math.factorial(k) for k in range(2, 40))
        assert d.partial_mean(t) == pytest.approx(series / 2.0, rel=1e-15, abs=0.0)
    assert d.partial_mean(0.25) == pytest.approx((1.0 - math.exp(-0.5) * 1.5) / 2.0, rel=1e-15)


def test_threshold_of_a_billion_exponential_claims_meets_its_small_t_limit():
    # n rate t^2 / 2 (1 - 2 x / 3) = s to first order in x = rate t, so t is
    # sqrt(2 s / (rate n)) (1 + x / 3) up to O(x^2); no claim is drawn
    n, rate, s = 10**9, 2.0, 1.5
    t = solve_threshold(Population([(n, Exponential(rate))], s=s))
    t0 = math.sqrt(2.0 * s / (rate * n))
    assert t == pytest.approx(t0 * (1.0 + rate * t0 / 3.0), rel=1e-8)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_claim_parameter_validation(bad):
    with pytest.raises(ConfigError):
        Uniform(bad)
    with pytest.raises(ConfigError):
        Exponential(bad)


def test_custom_claim_matches_builtin():
    d = CustomClaim(cdf=lambda t: min(max(t / 2.0, 0.0), 1.0),
                    partial_mean=lambda t: min(t, 2.0) ** 2 / 4.0,
                    mean=1.0, ppf=lambda u: 2.0 * np.asarray(u))
    ref = Uniform(2.0)
    for t in (0.3, 1.0, 1.9):
        assert d.cdf(t) == pytest.approx(ref.cdf(t))
        assert d.partial_mean(t) == pytest.approx(ref.partial_mean(t))


def test_custom_claim_ppf_falls_back_to_bisection():
    # F(t) = t / 2 is exact, so the least t with F(t) >= u is 2u, Uniform(2)'s quantile
    ref = Uniform(2.0)
    d = CustomClaim(ref.cdf, ref.partial_mean, ref.mean)
    u = np.array([[0.0, 5e-324, 1e-300, 1e-17], [0.25, 0.5, 0.75, 1.0 - 2.0**-53]])
    assert d.ppf(u).tolist() == ref.ppf(u).tolist()
    assert d.ppf(0.3) == 0.6
    for mode in ("independent", "comonotone"):  # 2-D uniforms, (rows, count) and (rows, 1)
        est = [estimate_expected_stop(Population([(50, dist)], s=3.0), trials=200,
                                      rng=spawn_generator(1, 0, 0), mode=mode)
               for dist in (d, ref)]
        assert est[0] == est[1]


def test_custom_claim_rejects_inconsistent_pairs():
    uni_cdf = lambda t: min(max(t, 0.0), 1.0)
    uni_pm = lambda t: min(max(t, 0.0), 1.0) ** 2 / 2.0
    with pytest.raises(ConfigError):  # cdf does not vanish at 0
        CustomClaim(cdf=lambda t: 0.5, partial_mean=uni_pm, mean=0.5)
    with pytest.raises(ConfigError):  # decreasing cdf
        CustomClaim(cdf=lambda t: max(0.0, 1.0 - t / 10.0) if t > 0 else 0.0,
                    partial_mean=uni_pm, mean=0.5)
    with pytest.raises(ConfigError):  # partial mean above t * F(t)
        CustomClaim(cdf=uni_cdf, partial_mean=lambda t: 2.0 * min(t, 1.0),
                    mean=0.5)
    with pytest.raises(ConfigError):  # partial mean from a different law
        CustomClaim(cdf=uni_cdf,
                    partial_mean=lambda t: Exponential(1.0).partial_mean(t),
                    mean=0.5)
    with pytest.raises(ConfigError):
        CustomClaim(cdf=uni_cdf, partial_mean=uni_pm, mean=0.0)
    # every quantile searched from an infinite scale was inf, so no claim
    # was ever drawn below a budget
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="scale"):
            CustomClaim(cdf=uni_cdf, partial_mean=uni_pm, mean=0.5, scale=scale)


def test_a_custom_claim_mean_past_the_float_range_is_a_config_error():
    # an infinite mean hid the mass check: solve_threshold raised NumericFailure
    cdf = lambda t: min(max(t, 0.0), 1.0)
    pm = lambda t: min(max(t, 0.0), 1.0) ** 2 / 2.0
    for mean in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite and positive"):
            CustomClaim(cdf, pm, mean=mean)
    with pytest.raises(BudgetExceedsMass):  # mass 5 within the budget
        solve_threshold(Population([(10, CustomClaim(cdf, pm, mean=0.5))], s=100.0))


def steep_pm(t, a=1.0, w=1e-9):
    return min(max((t - a) / w, 0.0), 1.0) * (a + min(max(t, a), a + w)) / 2.0


ARRAY_CLAIMS = {  # cdfs that take arrays, each with its partial mean and mean
    "uniform": (lambda t: np.minimum(np.maximum(t / 2.0, 0.0), 1.0),
                Uniform(2.0).partial_mean, 1.0),
    "exponential": (lambda t: -np.expm1(-1.5 * np.maximum(t, 0.0)),
                    Exponential(1.5).partial_mean, 1.0 / 1.5),
    "steep": (lambda t: np.minimum(np.maximum((t - 1.0) / 1e-9, 0.0), 1.0), steep_pm,
              1.0 + 0.5e-9),
}


def scalar_least_crossing(f, y, start):
    """The least float t >= 0 with f(t) >= y, one f call a step: t doubles
    from ``start`` until f(t) >= y, then the bracket halves until its ends
    are adjacent floats."""
    lo, hi = 0.0, start
    while f(hi) < y:
        lo, hi = hi, 2.0 * hi
    while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    return hi if lo > 0.0 or f(0.0) < y else 0.0


@pytest.mark.parametrize("name", sorted(ARRAY_CLAIMS))
def test_quantiles_searched_together_are_the_floats_of_the_scalar_search(name):
    d = CustomClaim(*ARRAY_CLAIMS[name])
    u = np.concatenate(([0.0, 2.0**-1074, 1e-300, 1e-17, 0.5, 1.0 - 2.0**-53],
                        np.linspace(0.0, 1.0, 257)[1:-1],
                        np.random.default_rng(3).random(301)))
    assert d._takes_arrays
    want = [scalar_least_crossing(d.cdf, v, d.scale) for v in u]
    assert d.ppf(u).tolist() == want
    assert d.ppf(u.reshape(2, -1)).tolist() == np.reshape(want, (2, -1)).tolist()
    assert d.ppf(0.25) == want[u.tolist().index(0.25)]
    assert [brs._least_crossing(d.cdf, v, d.scale) for v in u[:6]] == want[:6]


def test_a_cdf_of_scalars_alone_is_searched_point_by_point():
    d = CustomClaim(Uniform(2.0).cdf, Uniform(2.0).partial_mean, 1.0)
    assert not d._takes_arrays  # min(max(...)) of an array raises
    u = np.array([0.0, 2.0**-1074, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
    assert d.ppf(u).tolist() == [scalar_least_crossing(d.cdf, v, d.scale) for v in u]
    assert d.ppf(u)[2:4].tolist() == [0.5, 1.0]


def test_fifty_custom_claims_over_200_trials_take_milliseconds():
    # the scalar search took 0.30-0.42 s for these draws
    d, ref = CustomClaim(*ARRAY_CLAIMS["uniform"]), Uniform(2.0)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        est = estimate_expected_stop(Population([(50, d)], s=3.0), trials=200,
                                     rng=spawn_generator(1, 0, 0))
        times.append(time.perf_counter() - t0)
    assert est == estimate_expected_stop(Population([(50, ref)], s=3.0), trials=200,
                                         rng=spawn_generator(1, 0, 0))
    assert min(times) < 0.05, times


# ------------------------------------------------------------ stopping time

def test_stopping_time_counts_smallest_claims_first():
    assert stopping_time([0.5, 0.2, 0.9, 0.1], 0.85) == 3


def test_stopping_time_is_permutation_invariant():
    rng = np.random.default_rng(11)
    claims = rng.random(12) + 0.01
    base = stopping_time(claims, 2.0)
    for _ in range(5):
        assert stopping_time(rng.permutation(claims), 2.0) == base


def test_stopping_time_monotone_in_budget():
    claims = [0.4, 0.7, 1.3, 0.2]
    values = [stopping_time(claims, s) for s in (0.1, 0.3, 1.0, 2.0, 5.0)]
    assert values == sorted(values)
    assert values[0] == 0
    assert values[-1] == len(claims)


def test_stopping_time_validation():
    with pytest.raises(ValueError):
        stopping_time([0.5, -0.1], 1.0)
    with pytest.raises(ValueError):
        stopping_time([0.5, 0.0], 1.0)
    with pytest.raises(ValueError):
        stopping_time([0.5], 0.0)
    assert stopping_time([], 1.0) == 0


# -------------------------------------------------------------- population

def test_population_validation():
    with pytest.raises(ConfigError):
        Population([], s=1.0)
    with pytest.raises(ConfigError):
        Population([(0, Uniform(1.0))], s=1.0)
    with pytest.raises(ConfigError):
        Population([(1.5, Uniform(1.0))], s=1.0)
    with pytest.raises(ConfigError):
        Population([(2, "uniform")], s=1.0)
    with pytest.raises(ConfigError):
        Population([(2, Uniform(1.0))], s=0.0)
    with pytest.raises(ConfigError):
        Population([(2, Uniform(1.0))], s=math.inf)
    pop = Population([(2, Uniform(1.0)), (3, Exponential(1.0))], s=1.0)
    assert pop.total_count == 5


# ---------------------------------------------------------------- threshold

def test_threshold_small_uniform_case():
    # 2 uniform claims, s = 1/4: 2 * t^2/2 = 1/4 gives t = 1/2 exactly
    pop = Population([(2, Uniform(1.0))], s=0.25)
    t = solve_threshold(pop)
    assert t == pytest.approx(0.5, abs=1e-9)
    assert brs_bound(pop, t) == pytest.approx(1.0, abs=1e-10)


def test_threshold_large_uniform_case():
    # 100 uniform claims, s = 1: t = 1/sqrt(50), bound = sqrt(200)
    pop = Population([(100, Uniform(1.0))], s=1.0)
    t = solve_threshold(pop)
    assert t == pytest.approx(1.0 / math.sqrt(50.0), abs=1e-9)
    assert brs_bound(pop, t) == pytest.approx(math.sqrt(200.0), abs=1e-6)


def test_threshold_crossing_on_mixture():
    pop = Population([(10, Uniform(1.0)), (5, Exponential(1.0))], s=2.0)
    t = solve_threshold(pop)
    assert_crossing(pop, t)
    assert 0.0 < brs_bound(pop, t) <= pop.total_count


@pytest.mark.parametrize("s", [1e-300, 5e-324])
@pytest.mark.parametrize("dist", [Uniform(1.0), Exponential(2.0)], ids=repr)
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_threshold_of_the_tiniest_budgets_is_a_crossing(s, dist, n):
    pop = Population([(n, dist)], s=s)
    t = solve_threshold(pop)
    assert_crossing(pop, t)
    # n t^2 / (2 b) = s while t < b, exact to the float where 2 s b / n is a normal float
    if isinstance(dist, Uniform) and 2.0 * s * dist.b / n >= sys.float_info.min:
        assert abs(t - math.sqrt(2.0 * s * dist.b / n)) <= math.ulp(t)
    assert 0.0 < brs_bound(pop, t) < 1e-140


def test_threshold_of_a_steep_custom_claim_is_a_crossing():
    # uniform claims on [1, 1 + 1e-9]: PM(t) = F(t) (1 + t) / 2 on the interval
    a, w = 1.0, 1e-9
    def cdf(t):
        return min(max((t - a) / w, 0.0), 1.0)
    pop = Population([(10, CustomClaim(cdf, lambda t: cdf(t) * (a + min(max(t, a), a + w)) / 2.0,
                                       a + w / 2.0))], s=5.0)
    t = solve_threshold(pop)
    assert a <= t <= a + w
    assert_crossing(pop, t)
    # F climbs ulp(1) / w = 2.2e-7 from one float t to the next, so the bound
    # 10 F(t) is 5 to within one such step
    below = 10.0 * cdf(math.nextafter(t, 0.0))
    assert below < 5.0 <= brs_bound(pop, t) <= below + 10.0 * math.ulp(1.0) / w * 1.01


def test_threshold_near_the_largest_float_is_a_crossing():
    pop = Population([(1, Uniform(1e300))], s=0.25e300)  # t^2 / (2 b) = s
    t = solve_threshold(pop)
    assert_crossing(pop, t)
    assert t == pytest.approx(math.sqrt(0.5) * 1e300, rel=1e-15)


def test_a_quantile_no_float_reaches_is_a_numeric_failure():
    # half the mass never arrives: F tops out at 1/2
    d = CustomClaim(lambda t: min(max(t, 0.0), 1.0) / 2.0,
                    lambda t: min(max(t, 0.0), 1.0) ** 2 / 4.0, mean=0.25)
    assert d.ppf(0.25) == 0.5
    with pytest.raises(NumericFailure):
        d.ppf(0.75)


GROUPS = st.lists(st.tuples(st.integers(1, 1000),
                            st.one_of(st.floats(1e-3, 1e3).map(Uniform),
                                      st.floats(1e-3, 1e3).map(Exponential))),
                  min_size=1, max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(groups=GROUPS, share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_threshold_below_the_mass_is_a_crossing(groups, share):
    mass = math.fsum(count * dist.mean for count, dist in groups)
    s = share * mass
    assume(0.0 < s < mass)
    pop = Population(groups, s=s)
    assert_crossing(pop, solve_threshold(pop))


def test_budget_covering_all_claims_degenerates():
    # total mean mass 2 * 1/2 = 1, budget equal or above it
    for s in (1.0, 5.0):
        pop = Population([(2, Uniform(1.0))], s=s)
        with pytest.raises(BudgetExceedsMass):
            solve_threshold(pop)
        assert brs_bound(pop, math.nan) == 2.0


# ---------------------------------------------------------------- estimator

def test_expected_stop_small_case_matches_enumeration():
    # E[N] for two uniform claims under s = 1/4:
    # P(min fits) + P(both fit) = (1 - 0.75^2) + (0.25^2 / 2) = 0.46875
    pop = Population([(2, Uniform(1.0))], s=0.25)
    rng = spawn_generator(99, 0, 0)
    est = estimate_expected_stop(pop, trials=100_000, rng=rng)
    assert est.mode == "independent"
    assert est.trials == 100_000
    assert est.mean == pytest.approx(0.46875, abs=0.01)
    assert abs(est.mean - 0.46875) <= 3.0 * est.halfwidth
    assert est.halfwidth > 0.0


def test_bound_holds_for_both_dependence_modes():
    pop = Population([(100, Uniform(1.0))], s=1.0)
    bound = brs_bound(pop, solve_threshold(pop))
    for mode in ("independent", "comonotone"):
        rng = spawn_generator(7, 0, 0)
        est = estimate_expected_stop(pop, trials=40_000, rng=rng, mode=mode)
        assert est.mean + 3.0 * est.halfwidth <= bound


def test_comonotone_groups_share_one_uniform():
    # two identical comonotone claims x: N = 1{x <= s} + 1{2x <= s}
    pop = Population([(2, Uniform(1.0))], s=0.25)
    rng = spawn_generator(3, 0, 0)
    est = estimate_expected_stop(pop, trials=60_000, rng=rng, mode="comonotone")
    exact = 0.25 + 0.125
    assert abs(est.mean - exact) <= 3.0 * est.halfwidth


def test_estimator_is_deterministic_in_the_seed():
    pop = Population([(3, Exponential(2.0)), (2, Uniform(1.0))], s=1.0)
    a = estimate_expected_stop(pop, trials=5_000, rng=spawn_generator(5, 1, 0))
    b = estimate_expected_stop(pop, trials=5_000, rng=spawn_generator(5, 1, 0))
    assert (a.mean, a.halfwidth) == (b.mean, b.halfwidth)


def test_estimator_validation():
    pop = Population([(2, Uniform(1.0))], s=0.25)
    rng = spawn_generator(1, 0, 0)
    with pytest.raises(ValueError):
        estimate_expected_stop(pop, trials=0, rng=rng)
    with pytest.raises(ValueError):
        estimate_expected_stop(pop, trials=100, rng=rng, mode="antithetic")


def test_single_trial_has_zero_halfwidth():
    pop = Population([(2, Uniform(1.0))], s=0.25)
    est = estimate_expected_stop(pop, trials=1, rng=spawn_generator(2, 0, 0))
    assert est.halfwidth == 0.0
