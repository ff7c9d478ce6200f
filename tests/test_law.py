"""Offspring laws: pgf/mean closed forms, pmf tables, extinction solver."""

from __future__ import annotations

import math
import signal
import time

import numpy as np
import pytest

from branchsim import (
    Binomial,
    ConfigError,
    ExplicitPmf,
    Geometric,
    Poisson,
    extinction_probability,
)
from branchsim.law import TAIL_EPS

Q_TOL = 1e-10


def table_pgf(law, s):
    ks, ps = law.pmf_table()
    return float(np.sum(ps * np.power(float(s), ks)))


# ---------------------------------------------------------------- pgf / mean

def test_explicit_pmf_pgf_and_mean():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    assert law.pgf(0.0) == pytest.approx(0.25, abs=1e-15)
    assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert law.pgf(0.5) == pytest.approx(0.25 + 0.75 * 0.25, abs=1e-15)
    assert law.mean() == pytest.approx(1.5, abs=1e-15)


def test_poisson_pgf_and_mean():
    law = Poisson(2.0)
    for s in (0.0, 0.3, 0.9, 1.0):
        assert law.pgf(s) == pytest.approx(math.exp(2.0 * (s - 1.0)), rel=1e-14)
    assert law.mean() == 2.0


def test_geometric_pgf_and_mean():
    law = Geometric(0.6)
    for s in (0.0, 0.4, 1.0):
        assert law.pgf(s) == pytest.approx(0.4 / (1.0 - 0.6 * s), rel=1e-14)
    assert law.mean() == pytest.approx(0.6 / 0.4, rel=1e-14)


def test_binomial_pgf_and_mean():
    law = Binomial(3, 0.4)
    for s in (0.0, 0.5, 1.0):
        assert law.pgf(s) == pytest.approx((0.6 + 0.4 * s) ** 3, rel=1e-14)
    assert law.mean() == pytest.approx(1.2, rel=1e-14)


@pytest.mark.parametrize("s", [-0.1, 1.1, math.nan])
def test_pgf_rejects_arguments_outside_unit_interval(s):
    with pytest.raises(ValueError):
        Poisson(1.0).pgf(s)


@pytest.mark.parametrize("law", [
    ExplicitPmf({0: 0.2, 1: 0.3, 5: 0.5}),
    Poisson(2.5),
    Geometric(0.7),
    Binomial(6, 0.3),
])
def test_pmf_table_consistent_with_closed_form(law):
    ks, ps = law.pmf_table()
    assert np.all(ps >= 0)
    assert abs(float(ps.sum()) - 1.0) <= 10 * TAIL_EPS
    for s in (0.2, 0.8, 1.0):
        assert table_pgf(law, s) == pytest.approx(law.pgf(s), abs=1e-12)
    got = float(np.sum(ks * ps))
    assert got == pytest.approx(law.mean(), abs=1e-12)


@pytest.mark.parametrize("law", [Poisson(800.0), Binomial(1100, 0.5)])
def test_pmf_tables_of_laws_far_from_zero_keep_their_mass(law):
    # p_0 underflows here: the recurrence runs in logs
    ks, ps = law.pmf_table()
    assert abs(math.fsum(ps.tolist()) - 1.0) <= 1e-12
    assert math.fsum((ks * ps).tolist()) == pytest.approx(law.mean(), rel=1e-9)


@pytest.mark.parametrize("law,closed_form", [
    (Poisson(1.5), lambda k: math.exp(-1.5) * 1.5**k / math.factorial(k)),
    (Geometric(0.6), lambda k: 0.4 * 0.6**k),
    (Binomial(40, 0.3), lambda k: math.comb(40, k) * 0.3**k * 0.7**(40 - k)),
])
def test_pmf_table_entries_match_the_closed_form(law, closed_form):
    ks, ps = law.pmf_table()
    assert ks.tolist() == list(range(len(ks)))
    for k, p in zip(ks.tolist(), ps.tolist()):
        assert p == pytest.approx(closed_form(k), rel=1e-13)


@pytest.mark.parametrize("law, z, closed_form", [
    (Poisson(1.5), 12, lambda k: math.exp(k * math.log(18.0) - 18.0 - math.lgamma(k + 1))),
    (Geometric(0.4), 9, lambda k: math.comb(k + 8, k) * 0.6**9 * 0.4**k),
    (Binomial(5, 0.3), 7, lambda k: math.comb(35, k) * 0.3**k * 0.7 ** (35 - k)),
    (Binomial(2, 0.999), 3, lambda k: math.comb(6, k) * 0.999**k * 0.001 ** (6 - k)),
])
def test_the_pmf_of_a_sum_of_draws_is_the_z_fold_law_to_a_tail_below_2_to_the_minus_60(
        law, z, closed_form):
    # Panjer's recurrence with (a, a (z - 1) + z b): Poisson(z lam), the
    # negative binomial of z geometric draws, Binomial(z n, p)
    ps = law.sum_pmf(z)
    for k, p in enumerate(ps.tolist()):
        assert p == pytest.approx(closed_form(k), rel=1e-12, abs=1e-300)
    tail = math.fsum(closed_form(k) for k in range(ps.size, ps.size + 400)
                     if law.max_k() is None or k <= z * law.max_k())
    assert tail < 2.0**-60


@pytest.mark.parametrize("law", [Geometric(0.999999999999), Binomial(10**15, 0.5)])
def test_pmf_tables_past_the_atom_bound_are_config_errors(law):
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="atoms"):
        law.pmf_table()
    assert time.perf_counter() - start < 3.0


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@pytest.mark.parametrize("n", [2, 5])
def test_binomial_tables_near_p_one_end_at_n(n):
    # for some p near 1 the rounded ratio a + b / (n + 1) sits an ulp above 0
    def stop(*_):
        raise TimeoutError(f"a Binomial({n}, p) table did not end")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        for p in np.linspace(0.9, 1.0, 2000, endpoint=False).tolist():
            ks, ps = Binomial(n, p).pmf_table()
            assert ks[-1] <= n
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_p0_property():
    assert ExplicitPmf({0: 0.25, 2: 0.75}).p0 == pytest.approx(0.25)
    assert ExplicitPmf({1: 1.0}).p0 == 0.0
    assert Geometric(0.6).p0 == pytest.approx(0.4)


# ------------------------------------------------------------- construction

def test_explicit_pmf_normalizes_weights():
    law = ExplicitPmf({0: 1, 2: 3})
    assert law.atoms == ((0, 0.25), (2, 0.75))


def test_explicit_pmf_drops_zero_weight_atoms():
    law = ExplicitPmf({0: 0.5, 1: 0.0, 2: 0.5})
    assert [k for k, _ in law.atoms] == [0, 2]


@pytest.mark.parametrize("bad", [
    {},                      # empty
    {0: 0.0},                # zero total mass
    {-1: 1.0},               # negative support
    {0.5: 1.0},              # fractional support
    {0: -0.1, 2: 1.1},       # negative weight
    {0: math.nan},           # non-finite weight
])
def test_explicit_pmf_rejects_bad_input(bad):
    with pytest.raises(ConfigError):
        ExplicitPmf(bad)


def test_explicit_pmf_rejects_duplicate_support():
    with pytest.raises(ConfigError):
        ExplicitPmf([(1, 0.5), (1, 0.5)])


@pytest.mark.parametrize("ctor,args", [
    (Poisson, (0.0,)),
    (Poisson, (-1.0,)),
    (Poisson, (math.inf,)),
    (Geometric, (0.0,)),
    (Geometric, (1.0,)),
    (Binomial, (0, 0.5)),
    (Binomial, (2.5, 0.5)),
    (Binomial, (3, 0.0)),
    (Binomial, (3, 1.0)),
])
def test_parametric_laws_reject_bad_parameters(ctor, args):
    with pytest.raises(ConfigError):
        ctor(*args)


# ------------------------------------------------------ extinction solver

def test_extinction_probability_quarter_three_quarters():
    # smallest root of 0.75 s^2 - s + 0.25 = 0 is 1/3
    res = extinction_probability(ExplicitPmf({0: 0.25, 2: 0.75}))
    assert abs(res.q - 1.0 / 3.0) < Q_TOL
    assert not res.critical


def test_extinction_probability_geometric():
    # roots of r s^2 - s + (1 - r) = 0 are 1 and (1 - r) / r
    res = extinction_probability(Geometric(0.6))
    assert abs(res.q - 2.0 / 3.0) < Q_TOL


def test_extinction_probability_poisson_two():
    res = extinction_probability(Poisson(2.0))
    assert abs(res.q - 0.2031878699799799) < Q_TOL


def test_extinction_probability_is_fixed_point():
    for law in (ExplicitPmf({0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}),
                Binomial(4, 0.6), Poisson(1.7)):
        res = extinction_probability(law)
        assert 0.0 < res.q < 1.0
        assert law.pgf(res.q) == pytest.approx(res.q, abs=1e-9)


def test_subcritical_law_goes_extinct_surely():
    res = extinction_probability(Geometric(0.4))
    assert res.q == 1.0
    assert not res.critical


def test_critical_law_flagged():
    res = extinction_probability(ExplicitPmf({0: 0.25, 1: 0.5, 2: 0.25}))
    assert res.q == 1.0
    assert res.critical


def test_binomial_critical_boundary():
    res = extinction_probability(Binomial(2, 0.5))
    assert res.q == 1.0
    assert res.critical


def test_near_critical_law_reaches_its_root():
    # slightly supercritical mix: the smallest root is p0 / p2, with
    # 1 - f'(q) = 2e-6, so an ulp of f moves the root by about 1e-10
    p0, p2 = 0.2499995, 0.2500005
    res = extinction_probability(ExplicitPmf({0: p0, 1: 0.5, 2: p2}))
    assert abs(res.q - p0 / p2) <= 1e-9
    assert not res.critical


@pytest.mark.parametrize("p0", [0.01, 0.1, 0.25, 0.4])
def test_two_atom_q_matches_its_closed_form(p0):
    # f(s) = p0 + (1 - p0) s^2 has roots p0 / (1 - p0) and 1; an error of
    # an ulp in f moves the root by 2^-52 / (1 - f'(q)), f'(q) = 2 p0
    res = extinction_probability(ExplicitPmf({0: p0, 2: 1 - p0}))
    assert abs(res.q - p0 / (1 - p0)) <= 2.0**-52 / (1 - 2 * p0)


@pytest.mark.parametrize("r", [0.51, 0.55, 0.6, 0.75, 0.9, 0.99])
def test_geometric_q_matches_its_closed_form(r):
    # q = (1 - r) / r, where f'(q) = q
    q = (1 - r) / r
    assert abs(extinction_probability(Geometric(r)).q - q) <= 2.0**-52 / (1 - q)


def test_poisson_50_q_is_its_tiny_fixed_point():
    # q = 1.93e-22, far below any residual tolerance
    q = extinction_probability(Poisson(50.0)).q
    assert q > 0.0
    assert abs(Poisson(50.0).pgf(q) - q) <= math.ulp(q)


def test_binomial_pgf_keeps_a_small_p():
    # (1 - p)^n = exp(n log1p(-p)) = exp(-2 - 2e-12) for n = 10^12, p = 2e-12
    assert Binomial(10**12, 2e-12).pgf(0.0) == pytest.approx(math.exp(-2.0), rel=1e-11)
    # 1 - 2^-61 rounds to 1, which read f(0) = 1 and so q = 1 at mean 2
    wide = Binomial(2**62, 2.0**-61)
    assert wide.pgf(0.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    q = extinction_probability(Poisson(2.0)).q
    assert extinction_probability(wide).q == pytest.approx(q, rel=1e-15)


def test_extinction_solver_is_fast():
    start = time.perf_counter()
    extinction_probability(ExplicitPmf({0: 0.25, 2: 0.75}))
    extinction_probability(Geometric(0.6))
    extinction_probability(Poisson(2.0))
    assert time.perf_counter() - start < 1.0
