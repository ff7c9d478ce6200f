"""End-to-end acceptance gate.

One test per headline guarantee, at full scale and published tolerances:
exact solver oracles, Monte Carlo agreement with analytic values, policy
equivalences, series verdicts against empirical extinction, the stopping
bound, and byte-identical reports across reruns and thread counts.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from branchsim import (
    Disaster,
    DisasterSchedule,
    ExplicitPmf,
    Geometric,
    GrowthFunction,
    Min,
    Phi,
    Poisson,
    Population,
    Truncation,
    TruncationAsAbsorption,
    Uniform,
    brs_bound,
    estimate_conditional_series,
    estimate_expected_stop,
    extinction_probability,
    mean_reproduction_per_unit,
    run_batch,
    run_bisexual_batch,
    solve_threshold,
    spawn_generator,
    zubkov_criterion,
)
from branchsim import cli

BIG_CAP = 1 << 200


@dataclass
class Batch:
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
    alpha: float = 0.5
    mating: object = None
    initial_units: int = 1


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


def assert_chain_identity(est):
    """1 - p_marginal[K] == prod(1 - p_conditional[k]) in exact arithmetic."""
    survival = Fraction(1)
    for k in range(len(est.schedule)):
        alive_prev = est.alive_counts[k]
        if alive_prev == 0:
            break
        newly = est.extinct_counts[k] - (est.trials - alive_prev)
        survival *= Fraction(alive_prev - newly, alive_prev)
        marginal_survival = Fraction(est.trials - est.extinct_counts[k], est.trials)
        assert marginal_survival == survival


def test_criterion_01_exact_extinction_probabilities():
    start = time.perf_counter()
    quadratic = extinction_probability(ExplicitPmf({0: 0.25, 2: 0.75}))
    geometric = extinction_probability(Geometric(0.6))
    elapsed = time.perf_counter() - start
    assert abs(quadratic.q - 1.0 / 3.0) <= 1e-10
    assert abs(geometric.q - 2.0 / 3.0) <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_monte_carlo_extinction_matches_analytic_q():
    cfg = Batch(Geometric(0.6), horizon=100, trials=100_000, master_seed=2024)
    start = time.perf_counter()
    res = run_batch(cfg, threads=4)
    elapsed = time.perf_counter() - start
    assert abs(res.extinction_fraction - 2.0 / 3.0) <= 0.006
    assert elapsed < 30.0


def test_criterion_03_divergent_series_side_forces_extinction():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    g = GrowthFunction.constant(3)
    q = extinction_probability(law).q
    assert zubkov_criterion(q, g).verdict == "Divergent"
    res = run_batch(Batch(law, horizon=2000, trials=10_000, master_seed=303,
                          policy=Truncation(g)), threads=4)
    assert res.extinction_fraction >= 0.99


def test_criterion_04_convergent_series_side_leaves_survival_mass():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    q = extinction_probability(law).q
    g = GrowthFunction.log(2.0, 3.0, rounding="ceil")  # q^g(n) <= (n+1)^-2
    assert zubkov_criterion(q, g).verdict == "Convergent"
    res = run_batch(Batch(law, horizon=2000, trials=10_000, master_seed=404,
                          policy=Truncation(g)), threads=4)
    assert res.extinction_fraction <= q + 0.25
    assert res.extinction_fraction < 0.7  # visibly away from certain extinction


def test_criterion_05_absorption_and_truncation_agree_exactly():
    families = (GrowthFunction.constant(3),
                GrowthFunction.log(2.0, 3.0, rounding="ceil"),
                GrowthFunction.linear(2.0, 1.0))
    for g in families:
        for rule in (TruncationAsAbsorption(g), Truncation(g)):
            for generation in range(1, 101):
                want = [min(offspring, g(generation)) for offspring in range(101)]
                for dtype in (np.int64, object):
                    counts = np.arange(101).astype(dtype)
                    assert rule.apply(counts, generation).tolist() == want


def test_criterion_06_divergent_disaster_schedule_kills_supercritical_law():
    policy = Disaster(DisasterSchedule.c_over_k(1.0))
    res = run_batch(Batch(Geometric(0.6), horizon=10_000, trials=1_000,
                          master_seed=606, policy=policy), threads=4)
    assert res.extinction_fraction >= 0.95


def test_criterion_07_identity_control_matches_uncontrolled_exactly():
    law = Geometric(0.6)
    plain = run_batch(Batch(law, horizon=100, trials=1_000, master_seed=707,
                            sample_trajectories=1_000), threads=4)
    phi = run_batch(Batch(law, horizon=100, trials=1_000, master_seed=707,
                          policy=Phi(lambda x: x), sample_trajectories=1_000),
                    threads=4)
    assert np.array_equal(plain.extinction_generations, phi.extinction_generations)
    mismatches = sum(a.counts != b.counts or a.absorbed_at != b.absorbed_at
                     for a, b in zip(plain.sampled_trajectories,
                                     phi.sampled_trajectories))
    assert mismatches == 0


def test_criterion_08_bisexual_reproduction_mean_and_certain_extinction():
    oracle = min_poisson_mean(1.0)
    estimate = mean_reproduction_per_unit(1, Poisson(2.0), 0.5, Min(),
                                          trials=1_000_000,
                                          rng=spawn_generator(808, 0, 0))
    assert abs(estimate.estimate - oracle) <= 3.0 * estimate.halfwidth

    cfg = Batch(Poisson(1.5), horizon=500, trials=10_000, master_seed=808,
                alpha=0.5, mating=Min(), initial_units=5)
    res = run_bisexual_batch(cfg, threads=4)
    assert res.extinction_fraction >= 0.999


def test_criterion_09_conditional_chain_identity_and_monotone_marginals():
    batches = [
        run_batch(Batch(Geometric(0.4), horizon=64, trials=5_000,
                        master_seed=901), threads=4),
        run_batch(Batch(Geometric(0.6), horizon=48, trials=3_000,
                        master_seed=902), threads=4),
        run_batch(Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=256,
                        trials=5_000, master_seed=903,
                        policy=Truncation(GrowthFunction.constant(3))),
                  threads=4),
        run_batch(Batch(Geometric(0.6), horizon=64, trials=2_000,
                        master_seed=904,
                        policy=Disaster(DisasterSchedule.c_over_k(0.5))), threads=4),
        run_bisexual_batch(Batch(Poisson(2.0), horizon=64, trials=3_000,
                                 master_seed=905, alpha=0.5, mating=Min()),
                           threads=4),
    ]
    for res in batches:
        top = min(res.horizon, 32)
        for schedule in (tuple(range(1, top + 1)), (1, 2, 4, 8, 16, 32),
                         (3, 9, 27)):
            est = estimate_conditional_series(res, schedule)
            assert np.all(np.diff(est.p_marginal) >= 0.0)
            assert_chain_identity(est)


def test_criterion_10_stopping_time_bound_and_monte_carlo():
    small = Population([(2, Uniform(1.0))], s=0.25)
    t = solve_threshold(small)
    assert t == pytest.approx(0.5, abs=1e-10)
    assert brs_bound(small, t) == pytest.approx(1.0, abs=1e-10)
    est = estimate_expected_stop(small, trials=100_000,
                                 rng=spawn_generator(1010, 0, 0))
    assert abs(est.mean - 0.46875) <= 0.01

    large = Population([(100, Uniform(1.0))], s=1.0)
    bound = brs_bound(large, solve_threshold(large))
    assert bound == pytest.approx(math.sqrt(200.0), abs=1e-6)
    for i, mode in enumerate(("independent", "comonotone")):
        est = estimate_expected_stop(large, trials=100_000,
                                     rng=spawn_generator(1010, i + 1, 0),
                                     mode=mode)
        assert est.mean + 3.0 * est.halfwidth <= bound


def test_criterion_11_reports_are_byte_identical_across_threads(tmp_path):
    scenarios = {
        "divergent_truncation": {
            "version": 1, "experiment": "controlled", "master_seed": 303,
            "trials": 10_000, "horizon": 2000,
            "law": {"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}},
            "policy": {"kind": "truncation", "g": {"form": "constant", "c": 3}}},
        "convergent_truncation": {
            "version": 1, "experiment": "controlled", "master_seed": 404,
            "trials": 1_000, "horizon": 2000,
            "law": {"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}},
            "policy": {"kind": "truncation",
                       "g": {"form": "log", "a": 2.0, "base": 3.0,
                             "rounding": "ceil"}}},
        "gw_supercritical": {
            "version": 1, "experiment": "gw", "master_seed": 2024,
            "trials": 10_000, "horizon": 100, "population_cap": BIG_CAP,
            "law": {"kind": "geometric", "r": 0.6}},
        "disaster": {
            "version": 1, "experiment": "controlled", "master_seed": 606,
            "trials": 1_000, "horizon": 10_000,
            "law": {"kind": "geometric", "r": 0.6},
            "policy": {"kind": "absorbing",
                       "rule": {"kind": "disaster",
                                "delta": {"form": "c_over_k", "c": 1.0}}}},
        "phi_identity": {
            "version": 1, "experiment": "phi", "master_seed": 707,
            "trials": 1_000, "horizon": 100, "population_cap": BIG_CAP,
            "law": {"kind": "geometric", "r": 0.6},
            "policy": {"kind": "phi", "phi": {"form": "identity"}}},
        "bisexual": {
            "version": 1, "experiment": "bisexual", "master_seed": 808,
            "trials": 10_000, "horizon": 500, "initial_units": 5,
            "law": {"kind": "poisson", "lambda": 1.5},
            "alpha": 0.5, "mating": {"kind": "min"}},
        "series_search": {
            "version": 1, "experiment": "bcl_series", "master_seed": 909,
            "trials": 2_000, "horizon": 500,
            "law": {"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}},
            "policy": {"kind": "truncation", "g": {"form": "constant", "c": 3}},
            "schedule": {"family": "search", "max_points": 40}},
        "brs": {
            "version": 1, "experiment": "brs", "master_seed": 111,
            "trials": 100_000,
            "population": {"groups": [{"count": 100,
                                       "dist": {"kind": "uniform", "b": 1.0}}],
                           "budget": 1.0},
            "modes": ["independent", "comonotone"]},
    }
    for name, doc in scenarios.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        outputs = []
        for tag, threads in (("rerun1", 1), ("rerun2", 1), ("threads8", 8)):
            out = tmp_path / f"{name}-{tag}.csv"
            assert cli.run(str(config), out=str(out), threads=threads) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name
