"""Conditional-probability series along nested extinction events.

For a strictly increasing schedule t_1 < t_2 < ... the module estimates
P(extinct by t_k) and P(extinct by t_k | alive at t_(k-1)) on one coupled
trial set, with t_0 = 0.  Because marginals and conditionals come from the
same trials, the survival chain identity

    1 - p_marginal[K] = prod_k (1 - p_conditional[k])

holds exactly in the integer counts, not just in expectation.  Growing
partial sums of the conditionals are diagnostic evidence of almost-sure
extinction; the module never asserts divergence from finite data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class MonotoneEventEstimate:
    """Series estimates along one schedule.

    ``alive_counts[k]`` is the number of trials alive at t_k, with entry 0
    for t_0 = 0; ``extinct_counts[k]`` counts trials extinct by t_k for
    k >= 1.  ``p_conditional`` is NaN where no trial was alive at the
    previous point (flagged in ``empty_conditioning``); partial sums skip
    such terms.
    """

    schedule: tuple[int, ...]
    trials: int
    extinct_counts: tuple[int, ...]
    alive_counts: tuple[int, ...]
    p_marginal: np.ndarray = field(repr=False)
    p_conditional: np.ndarray = field(repr=False)
    partial_sums: np.ndarray = field(repr=False)
    empty_conditioning: np.ndarray = field(repr=False)

    @property
    def any_empty_conditioning(self) -> bool:
        return bool(self.empty_conditioning.any())


def _extinction_generations(batch) -> np.ndarray:
    eg = getattr(batch, "extinction_generations", batch)
    return np.asarray(eg, dtype=np.int64)


def check_schedule(schedule, horizon: int | None = None) -> tuple[int, ...]:
    """The schedule as a tuple of ints.

    Raises ValueError unless it is nonempty, strictly increasing, starts at
    1 or later and, when a horizon is given, stays within it.
    """
    schedule = tuple(int(t) for t in schedule)
    if not schedule:
        raise ValueError("schedule must contain at least one generation")
    if schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly increasing and >= 1, got {schedule}")
    if horizon is not None and schedule[-1] > horizon:
        raise ValueError(f"schedule reaches {schedule[-1]} beyond horizon {horizon}")
    return schedule


def estimate_conditional_series(batch, schedule,
                                horizon: int | None = None) -> MonotoneEventEstimate:
    """Marginal and conditional extinction probabilities along a schedule.

    ``batch`` is a BatchResult or an array of per-trial extinction
    generations (-1 for trials that never went extinct).  The schedule must
    be strictly increasing, start at 1 or later, and stay within the horizon
    when one is supplied (taken from the batch if available).
    """
    eg = _extinction_generations(batch)
    if horizon is None:
        horizon = getattr(batch, "horizon", None)
    schedule = check_schedule(schedule, horizon)
    trials = int(eg.size)
    if trials == 0:
        raise ValueError("batch contains no trials")

    extinct = eg >= 0
    extinct_by = [int(np.count_nonzero(extinct & (eg <= t))) for t in (0,) + schedule]
    alive = [trials - e for e in extinct_by]

    K = len(schedule)
    p_marginal = np.array([extinct_by[k + 1] / trials for k in range(K)])
    p_conditional = np.full(K, np.nan)
    empty = np.zeros(K, dtype=bool)
    for k in range(K):
        denom = alive[k]
        if denom == 0:
            empty[k] = True
        else:
            p_conditional[k] = (extinct_by[k + 1] - extinct_by[k]) / denom
    sums = np.where(empty, 0.0, p_conditional).cumsum()
    return MonotoneEventEstimate(
        schedule=schedule,
        trials=trials,
        extinct_counts=tuple(extinct_by[1:]),
        alive_counts=tuple(alive),
        p_marginal=p_marginal,
        p_conditional=p_conditional,
        partial_sums=sums,
        empty_conditioning=empty,
    )


def exact_partial_sum(estimate: MonotoneEventEstimate) -> Fraction:
    """Sum of the defined conditional terms in exact rational arithmetic."""
    total = Fraction(0)
    for k in range(len(estimate.schedule)):
        prev_alive = estimate.alive_counts[k]
        if prev_alive == 0:
            continue
        extinct_prev = estimate.trials - prev_alive
        total += Fraction(estimate.extinct_counts[k] - extinct_prev, prev_alive)
    return total


_FAMILIES = ("linear", "powers", "squares")


def _family_schedule(family: str, horizon: int, max_points: int) -> tuple[int, ...]:
    out = []
    k = 1
    while len(out) < max_points:
        if family == "linear":
            t = k
        elif family == "powers":
            t = 2**k
        else:
            t = k * k
        if t > horizon:
            break
        out.append(t)
        k += 1
    return tuple(out)


def schedule_search(batch, max_points: int, horizon: int | None = None):
    """Pick the candidate schedule with the largest conditional partial sum.

    Candidates are t_k = k, t_k = 2^k, and t_k = k^2, truncated to the
    horizon and to ``max_points`` terms.  Sums are compared exactly and ties
    go to t_k = k.
    """
    if max_points < 2:
        raise ValueError(f"max_points must be >= 2, got {max_points}")
    if horizon is None:
        horizon = getattr(batch, "horizon", None)
    if horizon is None:
        raise ValueError("a horizon is required (pass one or use a BatchResult)")

    best = None
    best_sum = None
    for family in _FAMILIES:
        schedule = _family_schedule(family, horizon, max_points)
        if not schedule:
            continue
        est = estimate_conditional_series(batch, schedule, horizon=horizon)
        total = exact_partial_sum(est)
        if best_sum is None or total > best_sum:
            best, best_sum = schedule, total
    if best is None:
        raise ValueError("no candidate schedule fits inside the horizon")
    return best
