"""Batch kernel against exact oracles and small per-trial references.

The kernel steps every live trial of a block together on block streams, so
its trajectories differ from a per-trial reference draw by draw.  The
checks are therefore on distributions: every generation of the extinct
curve against an exact oracle within a Bernstein bound, and, where no
oracle is at hand, a two-sample Kolmogorov-Smirnov distance between the
kernel's extinction generations and those of a per-trial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from branchsim import (
    Binomial,
    DaleyMonogamy,
    DaleyPolygamy,
    Disaster,
    DisasterSchedule,
    ExplicitPmf,
    Geometric,
    GrowthFunction,
    Min,
    Poisson,
    TrialStreams,
    Truncation,
    bisexual_step,
    initial_state,
    run_batch,
    run_bisexual_batch,
    sample_offspring_total,
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
    """Extinction generations of a per-trial loop on each trial's own streams:
    a policy's units, their offspring total and the policy on it, or a
    bisexual step.  The policies here draw nothing and never revive 0."""
    out = []
    for t in range(trials):
        streams, eg = TrialStreams(cfg.master_seed, t), None
        state, z = initial_state(cfg.initial_units), 1
        for n in range(1, cfg.horizon + 1):
            if cfg.mating is None:
                units = int(cfg.policy.units(np.array([z]))[0])
                total = sample_offspring_total(cfg.law, units, streams.offspring(n), BIG_CAP)
                z = int(cfg.policy.apply(np.array([total]), n)[0])
            else:
                state = bisexual_step(state, cfg.law, cfg.alpha, cfg.mating, streams,
                                      population_cap=BIG_CAP)
                z = state.units
            if z == 0:
                eg = n
                break
        out.append(cfg.horizon + 1 if eg is None else eg)
    return np.array(out)


def ks_distance(a, b, top):
    fa = np.cumsum(np.bincount(a, minlength=top + 1)) / a.size
    fb = np.cumsum(np.bincount(b, minlength=top + 1)) / b.size
    return float(np.max(np.abs(fa - fb)))


@pytest.mark.parametrize("cfg", [
    Batch(Geometric(0.6), 60, 8000, 34,
          policy=parse_phi({"form": "linear", "a": 0.8, "c": 0.5})),
    Batch(Poisson(2.5), 60, 8000, 35, mating=Min(), initial_units=3),
    # the units table's Panjer rows of the other laws, against the sex split
    Batch(Geometric(0.6), 60, 8000, 37, mating=DaleyPolygamy(2), initial_units=3),
    Batch(Binomial(3, 0.5), 60, 8000, 38, alpha=0.3, mating=DaleyMonogamy(), initial_units=3),
], ids=["linear_phi", "bisexual_min", "bisexual_polygamy_geometric", "bisexual_monogamy_binomial"])
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


def geometric_extinct(law, horizon):
    """f_n(0), n = 0 .. horizon: P(Z_n = 0) of the plain process from Z_0 = 1."""
    exact = [0.0]
    for _ in range(horizon):
        exact.append(law.pgf(exact[-1]))  # f_n(0) = f(f_{n-1}(0))
    return exact


def log_truncation_extinct(g, horizon):
    """P(Z_n = 0) of the chain Z_n = min(2 Bin(Z_(n-1), 3/4), g(n)), Z_0 = 1."""
    dist, exact = {1: 1.0}, [0.0]
    for n in range(1, horizon + 1):
        nxt = {}
        for z, pz in dist.items():
            for ones in range(z + 1):
                to = min(2 * ones, g(n))
                nxt[to] = nxt.get(to, 0.0) + pz * math.comb(z, ones) * 0.75**ones * 0.25**(z - ones)
        dist = nxt
        exact.append(dist.get(0, 0.0))
    return exact


def c_over_k_extinct(law, c, horizon):
    """1 - P(Z_n > 0) = 1 - (1 - f_n(0)) prod_{k <= n} (1 - min(1, c/k)): a
    disaster strikes independently of the population."""
    spared = np.cumprod([1.0] + [1.0 - min(1.0, c / k) for k in range(1, horizon + 1)])
    return [1.0 - (1.0 - f) * s for f, s in zip(geometric_extinct(law, horizon), spared)]


LOG_G = GrowthFunction.log(2.0, 3.0, rounding="ceil")


@pytest.mark.parametrize("cfg,exact", [
    (Batch(Geometric(0.6), 60, 8000, 31), geometric_extinct(Geometric(0.6), 60)),
    (Batch(ExplicitPmf({0: 0.25, 2: 0.75}), 150, 8000, 32, policy=Truncation(LOG_G)),
     log_truncation_extinct(LOG_G, 150)),
    (Batch(Geometric(0.6), 60, 8000, 33, policy=Disaster(DisasterSchedule.c_over_k(0.5))),
     c_over_k_extinct(Geometric(0.6), 0.5, 60)),
], ids=["geometric", "log_truncation", "c_over_k_disaster"])
def test_kernel_extinct_curve_matches_the_exact_oracle(cfg, exact):
    assert_curve_matches(run_batch(cfg), exact)


def test_extinct_curve_matches_iterated_pgf():
    law = Geometric(0.6)
    assert_curve_matches(run_batch(Batch(law, 60, 20_000, 41)), geometric_extinct(law, 60))


def test_constant_phi_alive_curve_matches_exact_law():
    # phi = 2: two units reproduce whatever the past, so each Z_n, n >= 1, is 0
    # exactly when both have no offspring, with probability 1/16; phi(0) > 0
    # revives, so the alive fractions carry the law
    res = run_batch(Batch(ExplicitPmf({0: 0.25, 2: 0.75}), 80, 20_000, 43,
                          policy=parse_phi({"form": "constant", "c": 2})))
    alive = res.per_generation_alive_counts / res.trials
    exact = [1.0] + [15 / 16] * 80
    for n, p in enumerate(exact):
        assert abs(alive[n] - p) <= bernstein_halfwidth(p, res.trials, len(exact)), n


def test_table_phi_extinct_curve_matches_chain():
    # phi = [0, 1, 2] over {0: 1/4, 2: 3/4}: a chain on {0, 2, 4} after the
    # first generation; 0 stays absorbing since phi(0) = 0
    kernel = np.zeros((5, 5))
    for z in range(5):
        units = [0, 1, 2][min(z, 2)]
        for ones in range(units + 1):
            kernel[z, 2 * ones] += math.comb(units, ones) * 0.75**ones * 0.25**(units - ones)
    dist = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    exact = [0.0]
    for _ in range(80):
        dist = dist @ kernel
        exact.append(float(dist[0]))
    res = run_batch(Batch(ExplicitPmf({0: 0.25, 2: 0.75}), 80, 20_000, 44,
                          policy=parse_phi({"form": "table", "values": [0, 1, 2]})))
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
