"""Engine: offspring-total sampling, trajectories, batch aggregation."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
import pytest

from branchsim import (
    BatchTrialError,
    Binomial,
    ConfigError,
    ExplicitPmf,
    Geometric,
    Phi,
    Poisson,
    PopulationOverflow,
    Trajectory,
    TrialStreams,
    Truncation,
    GrowthFunction,
    run_batch,
    sample_offspring_total,
    sample_offspring_totals,
    simulate_trajectory,
    step,
)

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


def test_per_particle_mode_matches_closed_form_distribution():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    z, n = 25, 30_000
    g = rng(3)
    by_particle = np.array([
        sample_offspring_total(law, z, g, per_particle=True) for _ in range(n)
    ])
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


# ------------------------------------------------------------------- step

def test_step_without_policy_is_plain_offspring_total():
    law = ExplicitPmf({3: 1.0})
    got = step(4, law, None, 1, None, TrialStreams(0, 0))
    assert got == 12


def test_step_applies_truncation_cap():
    law = ExplicitPmf({3: 1.0})
    policy = Truncation(GrowthFunction.constant(5))
    assert step(4, law, policy, 1, None, TrialStreams(0, 0)) == 5


def test_step_validates_arguments():
    with pytest.raises(ValueError):
        step(1, Poisson(1.0), None, 0, None, TrialStreams(0, 0))
    with pytest.raises(ValueError):
        step(-1, Poisson(1.0), None, 1, None, TrialStreams(0, 0))


# -------------------------------------------------------------- trajectories

def test_trajectory_shapes_and_zero_padding():
    traj = simulate_trajectory(Geometric(0.3), None, 50, TrialStreams(1, 0))
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
    traj = simulate_trajectory(Poisson(2.0), None, 10, TrialStreams(1, 0),
                               initial_size=0)
    assert traj.absorbed_at == 0
    assert traj.counts == [0] * 11


def test_trajectory_validates_horizon_and_initial_size():
    with pytest.raises(ConfigError):
        simulate_trajectory(Poisson(1.0), None, 0, TrialStreams(0, 0))
    with pytest.raises(ConfigError):
        simulate_trajectory(Poisson(1.0), None, 5, TrialStreams(0, 0),
                            initial_size=-1)


def test_reviving_phi_defers_extinction_to_the_horizon():
    # phi(0) = 1 revives an empty generation; a zero count is only final
    # at the horizon, and absorbed_at stays None
    law = ExplicitPmf({0: 0.5, 1: 0.5})
    policy = Phi(lambda x: max(x, 1))
    traj = simulate_trajectory(law, policy, 30, TrialStreams(3, 5))
    assert traj.absorbed_at is None
    expected = 30 if traj.counts[-1] == 0 else None
    assert traj.extinction_generation() == expected


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


def test_batch_failed_trials_leave_no_trace_in_aggregates():
    cfg = Batch(ExplicitPmf({0: 0.25, 2: 0.75}), horizon=40, trials=300,
                master_seed=2, population_cap=200, failure_budget=300,
                sample_trajectories=300)
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

def test_coupled_runs_are_monotone_in_initial_size():
    """Seed-matched coupled trajectories preserve the initial-size order."""
    law = ExplicitPmf({0: 0.3, 1: 0.4, 2: 0.3})
    for t in range(60):
        small = simulate_trajectory(law, None, 40, TrialStreams(31, t, coupled=True),
                                    initial_size=1, per_particle=True)
        large = simulate_trajectory(law, None, 40, TrialStreams(31, t, coupled=True),
                                    initial_size=4, per_particle=True)
        for a, b in zip(small.counts, large.counts):
            assert a <= b


def test_coupled_batch_is_reproducible_and_thread_independent():
    cfg = Batch(Geometric(0.5), horizon=30, trials=500, master_seed=8, coupled=True)
    r1 = run_batch(cfg, threads=1)
    r8 = run_batch(cfg, threads=8)
    assert np.array_equal(r1.extinction_generations, r8.extinction_generations)
