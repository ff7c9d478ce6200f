"""Oracles and bounds of the benchmark against values worked out by hand.

    python3 -m pytest bench
"""

import hashlib
import math
import os
import sys
from fractions import Fraction

import pytest

import oracles

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from branchsim.control import GrowthFunction  # noqa: E402


def test_geometric_gw_matches_hand_iterates():
    # f(s) = 0.4 / (1 - 0.6 s): f(0) = 2/5, f(f(0)) = 10/19, q = 2/3
    gens = oracles.geometric_gw(0.6, 60)
    assert gens[0].p_lo == 0.0 and gens[0].alive.mean == 1.0
    assert gens[1].p_lo == pytest.approx(0.4, abs=1e-15)
    assert gens[2].p_lo == pytest.approx(10 / 19, abs=1e-15)
    assert gens[60].p_lo == pytest.approx(2 / 3, abs=1e-10)
    # E[Z_1 | Z_1 > 0] = 1.5 / 0.6; E[Z_2 | Z_2 > 0] = 2.25 / (9/19)
    assert gens[1].alive.mean == pytest.approx(2.5, rel=1e-14)
    assert gens[2].alive.mean == pytest.approx(2.25 * 19 / 9, rel=1e-14)


def test_geometric_gw_matches_pgf_iteration():
    f, s = (lambda x: 0.4 / (1 - 0.6 * x)), 0.0
    for n, gen in enumerate(oracles.geometric_gw(0.6, 100)[1:], start=1):
        s = f(s)
        assert gen.p_lo == pytest.approx(s, abs=1e-13), n


def test_log_growth_values():
    g = [oracles.log_growth(2.0, 3.0, n) for n in (0, 1, 2, 3, 8, 2000)]
    # ceil(2 log_3(n + 1)), floored at 1
    assert g == [1, 2, 2, 3, 4, 14]
    program = GrowthFunction.log(2.0, 3.0, "ceil")
    assert all(oracles.log_growth(2.0, 3.0, n) == program(n) for n in range(2001))


def test_truncated_chain_matches_hand_values():
    gens = oracles.truncated_chain({0: 0.25, 2: 0.75},
                                   lambda n: oracles.log_growth(2.0, 3.0, n), 3)
    # Z_1 = 2 Bin(1, 3/4) capped at 2; Z_2 = 2 Bin(Z_1, 3/4) capped at 2
    assert gens[1].p_lo == 0.25 and gens[1].alive.mean == 2.0
    assert gens[2].p_lo == pytest.approx(19 / 64, abs=1e-15)
    assert gens[2].alive.mean == pytest.approx(2.0)
    # g(3) = 3: from Z_2 = 2, 2 Bin(2, 3/4) is 0, 2 or 4 (capped to 3)
    p = [Fraction(1, 16), Fraction(6, 16), Fraction(9, 16)]
    alive2 = Fraction(45, 64)
    p3 = Fraction(19, 64) + alive2 * p[0]
    mean3 = (alive2 * (2 * p[1] + 3 * p[2])) / (1 - p3)
    assert gens[3].p_lo == pytest.approx(float(p3), abs=1e-15)
    assert gens[3].alive.mean == pytest.approx(float(mean3), rel=1e-14)
    assert gens[3].alive.hi == 3


def test_truncated_chain_without_cap_binding_is_plain_gw():
    # with the cap far above reach the chain is plain GW, f(s) = 1/4 + 3/4 s^2
    gens = oracles.truncated_chain({0: 0.25, 2: 0.75}, lambda n: 64, 5)
    s = 0.0
    for gen in gens[1:]:
        s = 0.25 + 0.75 * s * s
        assert gen.p_lo == pytest.approx(s, abs=1e-14)


def _poisson_pmf(lam, k):
    return math.exp(-lam) * lam ** k / math.factorial(k)


def test_bisexual_chain_first_generation_by_double_sum():
    gens = oracles.bisexual_min_poisson(1.5, 0.5, 5, 3)
    # from 5 units F, M ~ Poisson(3.75) independently; units = min(F, M)
    e = math.exp(-3.75)
    assert gens[1].p_lo == pytest.approx(1 - (1 - e) ** 2, abs=1e-15)
    mean = sum(min(f, m) * _poisson_pmf(3.75, f) * _poisson_pmf(3.75, m)
               for f in range(80) for m in range(80))
    assert gens[1].alive.mean * (1 - gens[1].p_lo) == pytest.approx(mean, rel=1e-12)
    assert gens[1].p_hi - gens[1].p_lo < 1e-18


def test_bisexual_chain_unequal_sexes_and_dropped_mass():
    # k_max = 3 from 3 units: mass above 3 is dropped into p_hi
    gens = oracles.bisexual_min_poisson(2.0, 0.25, 3, 1, k_max=3)
    f_surv = 1 - sum(_poisson_pmf(4.5, j) for j in range(4))
    m_surv = 1 - sum(_poisson_pmf(1.5, j) for j in range(4))
    p0 = 1 - (1 - math.exp(-4.5)) * (1 - math.exp(-1.5))
    assert gens[1].p_lo == pytest.approx(p0, abs=1e-15)
    assert gens[1].p_hi - gens[1].p_lo == pytest.approx(f_surv * m_surv, rel=1e-12)


def test_kl_bernoulli_and_binomial_bound():
    assert oracles.kl_bernoulli(0.5, 0.5) == 0.0
    assert oracles.kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2))
    assert oracles.kl_bernoulli(0.1, 0.0) == math.inf
    level = math.log(2 / 1e-6)
    # 10000 trials at p = 0.5: sd 0.005, so 0.52 passes and 0.53 fails
    assert oracles.binomial_ok(5200, 10000, 0.5, 0.5, level)
    assert not oracles.binomial_ok(5300, 10000, 0.5, 0.5, level)
    assert oracles.binomial_ok(5300, 10000, 0.5, 0.53, level)
    assert not oracles.binomial_ok(1, 10, 0.0, 0.0, level)


def test_mean_bounds():
    level = math.log(2 / 1e-6)
    law = oracles.GeometricLaw(0.01)  # mean 100, sd ~ 99.5
    assert oracles.geometric_mean_ok(103.0, 10000, law, level)
    assert not oracles.geometric_mean_ok(110.0, 10000, law, level)
    assert not oracles.geometric_mean_ok(92.0, 10000, law, level)
    assert oracles.geometric_mean_ok(1.0, 1, oracles.GeometricLaw(1.0), level)
    bounded = oracles.BoundedLaw(mean=5.0, var=4.0, lo=1, hi=20)
    half = oracles.bernstein_halfwidth(1000, 4.0, 19, level)
    assert half == pytest.approx(19 * level / 3000 + math.sqrt((19 * level / 3000) ** 2
                                                               + 8 * level / 1000))
    assert oracles.bounded_mean_ok(5.0 + 0.99 * half, 1000, bounded, level)
    assert not oracles.bounded_mean_ok(5.0 - 1.01 * half, 1000, bounded, level)


def _report(config, rows, master_seed=7):
    sha = hashlib.sha256(config).hexdigest()
    lines = [f"# config_sha256={sha},master_seed={master_seed},artifact_version=0.1.0",
             "generation,extinct_fraction,mean_size_given_survival"]
    lines += [f"{n},{frac!r},{mean!r}" for n, (frac, mean) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def test_check_report_accepts_exact_and_counts_steps():
    oracle = oracles.truncated_chain({0: 0.25, 2: 0.75}, lambda n: 2, 2)
    config = b'{"x": 1}\n'
    # 64 trials: 16 die at 1, 3 more at 2 (19/64)
    text = _report(config, [(0.0, 1.0), (16 / 64, 2.0), (19 / 64, 2.0)])
    verdict = oracles.check_report(text, config, 7, 64, oracle)
    assert verdict.errors == []
    assert verdict.trial_steps == 64 + 48


def test_check_report_rejects_each_fault():
    oracle = oracles.geometric_gw(0.6, 2)
    config = b'{"x": 1}\n'
    good = [(0.0, 1.0), (0.4, 2.5), (10 / 19, 2.25 * 19 / 9)]
    trials = 190000  # every fraction below is a count over this
    assert oracles.check_report(_report(config, good), config, 7, trials, oracle).errors == []
    faults = {
        "hash": _report(b"other", good),
        "seed": _report(config, good, master_seed=8),
        "fraction": _report(config, [good[0], (0.42, 2.5), good[2]]),
        "decreasing": _report(config, [good[0], (0.6, 2.5), (0.5, 2.0)]),
        "mean": _report(config, [good[0], (0.4, 2.7), good[2]]),
        "survivors": _report(config, [good[0], good[1], (1.0, 3.0)]),
        "short": "\n".join(_report(config, good).splitlines()[:-1]) + "\n",
    }
    for name, text in faults.items():
        assert oracles.check_report(text, config, 7, trials, oracle).errors, name
