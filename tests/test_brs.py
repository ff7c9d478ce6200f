"""Budget stopping times, the threshold equation, and the expectation bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from branchsim import (
    BudgetExceedsMass,
    ConfigError,
    CustomClaim,
    Exponential,
    Population,
    Uniform,
    brs_bound,
    estimate_expected_stop,
    solve_threshold,
    spawn_generator,
    stopping_time,
)


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
    d = CustomClaim(cdf=lambda t: min(max(t / 2.0, 0.0), 1.0),
                    partial_mean=lambda t: min(t, 2.0) ** 2 / 4.0,
                    mean=1.0)
    q = np.asarray(d.ppf(np.array([0.25, 0.5, 0.75])))
    assert np.allclose(q, [0.5, 1.0, 1.5], atol=1e-9)


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
    with pytest.raises(ConfigError):
        CustomClaim(cdf=uni_cdf, partial_mean=uni_pm, mean=0.5, scale=-1.0)


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
    assert brs_bound(pop) == pytest.approx(1.0, abs=1e-10)


def test_threshold_large_uniform_case():
    # 100 uniform claims, s = 1: t = 1/sqrt(50), bound = sqrt(200)
    pop = Population([(100, Uniform(1.0))], s=1.0)
    t = solve_threshold(pop)
    assert t == pytest.approx(1.0 / math.sqrt(50.0), abs=1e-9)
    assert brs_bound(pop) == pytest.approx(math.sqrt(200.0), abs=1e-6)


def test_threshold_residual_on_mixture():
    pop = Population([(10, Uniform(1.0)), (5, Exponential(1.0))], s=2.0)
    t = solve_threshold(pop, tol=1e-12)
    residual = 10 * Uniform(1.0).partial_mean(t) + 5 * Exponential(1.0).partial_mean(t)
    assert abs(residual - pop.s) <= 2e-12 * pop.s
    assert 0.0 < brs_bound(pop) <= pop.total_count


def test_threshold_tolerance_validation():
    pop = Population([(2, Uniform(1.0))], s=0.25)
    with pytest.raises(ValueError):
        solve_threshold(pop, tol=0.0)


def test_budget_covering_all_claims_degenerates():
    # total mean mass 2 * 1/2 = 1, budget equal or above it
    for s in (1.0, 5.0):
        pop = Population([(2, Uniform(1.0))], s=s)
        with pytest.raises(BudgetExceedsMass):
            solve_threshold(pop)
        assert brs_bound(pop) == 2.0


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
    bound = brs_bound(pop)
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
