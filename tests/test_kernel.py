"""Batch kernel against the per-trial scalar reference and exact oracles.

The kernel steps every live trial of a block together on block streams, so
its trajectories differ from the per-trial reference draw by draw.  The
checks are therefore on distributions: a two-sample Kolmogorov-Smirnov
distance between extinction generations, and every generation of the
extinct curve against an exact oracle within a Bernstein bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from branchsim import (
    Absorbing,
    Disaster,
    DisasterSchedule,
    ExplicitPmf,
    Geometric,
    GrowthFunction,
    Min,
    Phi,
    Poisson,
    TrialStreams,
    Truncation,
    bisexual_step,
    initial_state,
    run_batch,
    run_bisexual_batch,
    simulate_trajectory,
)
from branchsim.scenario import parse_phi

BIG_CAP = 1 << 200
ALPHA = 1e-6  # false-alarm rate of each oracle test, over all its generations
KS_ALPHA = 1e-3  # level of each two-sample test


@dataclass
class Batch:
    law: object
    horizon: int
    trials: int
    master_seed: int
    policy: object = None
    population_cap: int = BIG_CAP
    alpha: float = 0.5
    mating: object = None
    initial_units: int = 1


def kernel_generations(res):
    """Extinction generations, with survivors at horizon + 1."""
    eg = res.extinction_generations
    return np.where(eg < 0, res.horizon + 1, eg)


def reference_generations(cfg, trials):
    out = []
    for t in range(trials):
        streams = TrialStreams(cfg.master_seed, t)
        if cfg.mating is None:
            eg = simulate_trajectory(cfg.law, cfg.policy, cfg.horizon, streams,
                                     population_cap=BIG_CAP).extinction_generation()
        else:
            state, eg = initial_state(cfg.initial_units), None
            for n in range(1, cfg.horizon + 1):
                state = bisexual_step(state, cfg.law, cfg.alpha, cfg.mating, streams,
                                      population_cap=BIG_CAP)
                if state.units == 0:
                    eg = n
                    break
        out.append(cfg.horizon + 1 if eg is None else eg)
    return np.array(out)


def ks_distance(a, b, top):
    fa = np.cumsum(np.bincount(a, minlength=top + 1)) / a.size
    fb = np.cumsum(np.bincount(b, minlength=top + 1)) / b.size
    return float(np.max(np.abs(fa - fb)))


@pytest.mark.parametrize("cfg", [
    Batch(Geometric(0.6), 60, 8000, 31),
    Batch(ExplicitPmf({0: 0.25, 2: 0.75}), 150, 8000, 32,
          policy=Truncation(GrowthFunction.log(2.0, 3.0, rounding="ceil"))),
    Batch(Geometric(0.6), 60, 8000, 33,
          policy=Absorbing(Disaster(DisasterSchedule.c_over_k(0.5)))),
    Batch(Geometric(0.6), 60, 8000, 34,
          policy=Phi(parse_phi({"form": "linear", "a": 0.8, "c": 0.5}))),
    Batch(Poisson(2.5), 60, 8000, 35, mating=Min(), initial_units=3),
], ids=["geometric", "log_truncation", "c_over_k_disaster", "linear_phi", "bisexual_min"])
def test_kernel_extinction_generations_match_scalar_reference(cfg):
    run = run_batch if cfg.mating is None else run_bisexual_batch
    kernel = kernel_generations(run(cfg))
    reference = reference_generations(cfg, 3000)
    n, m = kernel.size, reference.size
    critical = math.sqrt(-0.5 * math.log(KS_ALPHA / 2)) * math.sqrt((n + m) / (n * m))
    assert ks_distance(kernel, reference, cfg.horizon + 1) <= critical


def bernstein_halfwidth(p, trials, tests):
    """Deviation of a Bernoulli mean over ``trials`` exceeded with probability
    at most ALPHA / tests."""
    log_term = math.log(2 * tests / ALPHA)
    return (log_term / 3 + math.sqrt((log_term / 3) ** 2
                                     + 2 * trials * p * (1 - p) * log_term)) / trials


def assert_curve_matches(res, exact):
    curve = res.per_generation_extinct_counts / res.trials
    for n, p in enumerate(exact):
        assert abs(curve[n] - p) <= bernstein_halfwidth(p, res.trials, len(exact)), n


def test_extinct_curve_matches_iterated_pgf():
    law = Geometric(0.6)
    res = run_batch(Batch(law, 60, 20_000, 41))
    exact = [0.0]
    for _ in range(60):
        exact.append(law.pgf(exact[-1]))  # f_n(0) = f(f_{n-1}(0))
    assert_curve_matches(res, exact)


def test_extinct_curve_matches_truncated_chain():
    # constant(3) truncation of {0: 1/4, 2: 3/4}: a Markov chain on {0, 1, 2, 3};
    # z parents have 2 * Binomial(z, 3/4) offspring, capped at 3
    kernel = np.zeros((4, 4))
    for z in range(4):
        for ones in range(z + 1):
            p = math.comb(z, ones) * 0.75**ones * 0.25**(z - ones)
            kernel[z, min(2 * ones, 3)] += p
    dist = np.array([0.0, 1.0, 0.0, 0.0])
    exact = [0.0]
    for _ in range(200):
        dist = dist @ kernel
        exact.append(float(dist[0]))
    res = run_batch(Batch(ExplicitPmf({0: 0.25, 2: 0.75}), 200, 20_000, 42,
                          policy=Truncation(GrowthFunction.constant(3))))
    assert_curve_matches(res, exact)
