"""Control policies for branching runs and the series-based extinction criteria.

Every policy follows the ``ControlPolicy`` protocol.  Policies come in three
families: truncation of each generation at a cap g(n), random absorption of
offspring, where each absorbing rule (truncation as absorption, disaster,
lower boundary, custom) is a policy of its own, and phi-control where
phi(current size) units reproduce.  The criterion
checkers classify sum_n q^g(n) as divergent or convergent, exactly, for
every form of g but a callable, which has no verdict.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidRuleError
from .rng import STREAM_CONTROL


def finite(x: float, name: str, n: int) -> float:
    """x, the value of the function ``name`` at n, unless it left the float range."""
    if not math.isfinite(x):
        raise ConfigError(f"{name}({n}) = {x}; the form leaves the float range")
    return x


def _table(values, name: str) -> tuple[int, ...]:
    """The entries of a table form, each a nonnegative integer."""
    vals = tuple(int(v) for v in values)
    if not vals:
        raise ConfigError(f"{name} needs at least one value")
    if any(v < 0 for v in vals) or any(v != w for v, w in zip(vals, values)):
        raise ConfigError(f"{name} entries must be nonnegative integers")
    return vals


@dataclass(frozen=True)
class GrowthFunction:
    """Integer-valued function of a nonnegative integer index.

    Every form but a callable has an exact series verdict; a callable g
    truncates but has no verdict.  The log form rounds a*log_base(n + 1) up
    or down and is floored at 1, so a cap never orders the population to
    zero on its own.  Tables hold their last value beyond the end.
    """

    form: str
    c: float = 0.0
    a: float = 0.0
    base: float = 2.0
    rounding: str = "floor"
    table: tuple[int, ...] = ()
    fn: Callable[[int], int] | None = None

    @staticmethod
    def constant(c: int) -> "GrowthFunction":
        if int(c) != c or c < 0:
            raise ConfigError(f"constant form needs a nonnegative integer, got {c}")
        return GrowthFunction(form="constant", c=int(c))

    @staticmethod
    def log(a: float, base: float, rounding: str = "floor") -> "GrowthFunction":
        if a <= 0 or not math.isfinite(a):
            raise ConfigError(f"log form needs coefficient a > 0, got {a}")
        if base <= 1 or not math.isfinite(base):
            raise ConfigError(f"log form needs base > 1, got {base}")
        if rounding not in ("floor", "ceil"):
            raise ConfigError(f"rounding must be 'floor' or 'ceil', got {rounding!r}")
        return GrowthFunction(form="log", a=float(a), base=float(base), rounding=rounding)

    @staticmethod
    def linear(a: float, c: float) -> "GrowthFunction":
        if a < 0:
            raise ConfigError(f"linear form needs slope a >= 0, got {a}")
        if c < 0:
            raise ConfigError(f"linear form needs intercept c >= 0, got {c}")
        return GrowthFunction(form="linear", a=float(a), c=float(c))

    @staticmethod
    def from_table(values) -> "GrowthFunction":
        return GrowthFunction(form="table", table=_table(values, "table form"))

    @staticmethod
    def from_callable(fn: Callable[[int], int]) -> "GrowthFunction":
        return GrowthFunction(form="callable", fn=fn)

    def __call__(self, n: int) -> int:
        if self.form == "constant":
            return int(self.c)
        if self.form == "log":
            x = finite(self.a * math.log(n + 1) / math.log(self.base), "g", n)
            v = math.floor(x) if self.rounding == "floor" else math.ceil(x)
            return max(1, v)
        if self.form == "linear":
            return int(finite(self.a * n + self.c, "g", n))
        if self.form == "table":
            return self.table[n] if n < len(self.table) else self.table[-1]
        v = self.fn(n)
        if v < 0 or int(v) != v:
            raise ConfigError(f"growth callable returned {v!r} at n={n}; "
                              "expected a nonnegative integer")
        return int(v)

    def runs(self, n0: int, n1: int) -> list[tuple[int, int]]:
        """The (start, level) runs of g over n0 .. n1 - 1, in order: g(n) is
        the level of the last run that starts at or before n.

        A callable is called once a generation and a table read from its
        entries.  Every other form is nondecreasing, so the run of g(n1 - 1)
        is the last, and each run before it ends where a gallop, then a
        bisection, on g itself, in n0 .. n1 - 1 only, finds a new level; a
        generation past the float range ends a run, and g raises for the
        first such one when the next run starts there."""
        if self.form == "callable":
            return _runs(map(self, range(n0, n1)), n0)
        if self.form == "table":
            head = self.table[n0:n1]  # then the last entry, held past the end
            tail = self.table[-1:] if n0 + len(head) < n1 else ()
            return _runs(head + tail, n0)
        last, runs, n = self._value(n1 - 1), [], n0
        v = self(n)
        while v != last:
            runs.append((n, v))
            lo, step = n, 1  # gallop, then bisect, to the first n whose g(n) = w is not v
            while (w := self._value(n := min(lo + step, n1 - 1))) == v:
                lo, step = n, 2 * step
            while n - lo > 1:
                mid = (lo + n) // 2
                if (u := self._value(mid)) == v:
                    lo = mid
                else:
                    n, w = mid, u
            v = self(n) if w is None else w  # raises for the first n past the float range
        runs.append((n, v))
        return runs

    def _value(self, n: int) -> int | None:
        """g(n), or None past the float range."""
        try:
            return self(n)
        except ConfigError:
            return None


def _runs(levels, n0: int) -> list[tuple[int, int]]:
    """The (start, level) runs of a sequence of levels of n0, n0 + 1, ..."""
    runs = []
    for n, v in enumerate(levels, n0):
        if not runs or runs[-1][1] != v:
            runs.append((n, v))
    return runs


@dataclass(frozen=True)
class DisasterSchedule:
    """Per-generation probability of losing every particle at once.

    Forms: an explicit table (0 beyond its end), c/k in the generation k, or
    a constant.  Probabilities are clamped to [0, 1].
    """

    form: str
    c: float = 0.0
    table: tuple[float, ...] = ()

    @staticmethod
    def from_table(values) -> "DisasterSchedule":
        vals = tuple(float(v) for v in values)
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ConfigError("disaster probabilities must lie in [0, 1]")
        return DisasterSchedule(form="table", table=vals)

    @staticmethod
    def c_over_k(c: float) -> "DisasterSchedule":
        if not c >= 0:  # NaN too
            raise ConfigError(f"c/k schedule needs c >= 0, got {c}")
        return DisasterSchedule(form="c_over_k", c=float(c))

    @staticmethod
    def constant(c: float) -> "DisasterSchedule":
        if not 0.0 <= c <= 1.0:
            raise ConfigError(f"constant disaster probability must lie in [0, 1], got {c}")
        return DisasterSchedule(form="constant", c=float(c))

    def prob(self, generation: int) -> float:
        if generation < 1:
            raise ValueError(f"generation must be >= 1, got {generation}")
        if self.form == "table":
            return self.table[generation - 1] if generation <= len(self.table) else 0.0
        if self.form == "c_over_k":
            return min(1.0, self.c / generation)
        return self.c


def _float(count: int) -> float:
    """The count rounded to the nearest float, or inf past the float range."""
    try:
        return float(count)
    except OverflowError:
        return math.inf


def _counts(values) -> np.ndarray:
    """Exact integer array: int64 when every value fits, object otherwise."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class ControlPolicy:
    """No control, and the protocol every policy follows: ``units(counts)``
    reproduce, then ``apply(offspring, generation, rng)`` is what the rule
    leaves, in place, for int64 or object arrays.  ``apply`` draws from the
    generator of ``stream``, or from none when it is None; under a policy
    that ``revives_zero``, a count of 0 is not absorbing.
    """

    stream = None
    revives_zero = False
    grows = False  # whether apply may leave more than it is given; the kernel caps it then

    def units(self, counts):
        return counts

    def apply(self, counts, generation: int, rng=None):
        return counts

    def levels(self, n0: int, n1: int) -> list[tuple[int, int]]:
        """The (start, level) runs over generations n0 .. n1 - 1 of the count
        threshold that ``apply`` reads: in a run, apply depends on its level
        alone, and it acts alike at all levels past a count.  The table lane
        folds a policy once a run, but only one that overrides this or keeps
        the identity ``apply``, which reads no level."""
        return [(n0, 0)]


@dataclass(frozen=True)
class TruncationAsAbsorption(ControlPolicy):
    """Absorb the overshoot above g(n): A_n(l) = max(l - g(n), 0)."""

    g: GrowthFunction

    def levels(self, n0: int, n1: int):
        return self.g.runs(n0, n1)

    def apply(self, counts, generation: int, rng=None):
        cap = int(self.g(generation))
        if counts.dtype == object:
            counts[counts > cap] = cap
        elif cap < 1 << 63:  # no int64 count exceeds a larger cap
            np.minimum(counts, cap, out=counts)
        return counts


@dataclass(frozen=True)
class Disaster(ControlPolicy):
    """With probability delta_n, absorb every particle this generation."""

    delta: DisasterSchedule

    stream = STREAM_CONTROL

    def apply(self, counts, generation: int, rng=None):
        # one uniform per count, independent of the population history
        counts[rng.random(counts.size) < self.delta.prob(generation)] = 0
        return counts


@dataclass(frozen=True)
class LowerBoundary(ControlPolicy):
    """Absorb everything once the offspring count drops below b(n)."""

    b: GrowthFunction

    def apply(self, counts, generation: int, rng=None):
        counts[counts < int(self.b(generation))] = 0
        return counts

    def levels(self, n0: int, n1: int):
        return self.b.runs(n0, n1)


class _Prefix(Sequence):
    """Read-only view of the first ``size`` items of a list, made in O(1)."""

    def __init__(self, items, size: int):
        self._items, self._size = items, size

    def __len__(self):
        return self._size

    def __getitem__(self, i):  # an index or a slice of range(size), as a tuple reads it
        at = range(self._size)[i]
        return tuple(map(self._items.__getitem__, at)) if isinstance(i, slice) else self._items[at]


@dataclass(frozen=True, init=False)
class CustomAbsorption(ControlPolicy):
    """User rule mapping (offspring l, generation, history[, rng]) to an absorbed count.

    The rule sees a read-only view of the trajectory so far and must return
    an integer in [0, l].  A rule that accepts four arguments also receives a
    generator.  Batches apply the rule to one live trial at a time, in
    ascending order; a BranchsimError other than ConfigError fails that trial.
    """

    rule: Callable

    def __init__(self, rule: Callable):
        object.__setattr__(self, "rule", rule)
        try:
            n_params = len(inspect.signature(rule).parameters)
        except (TypeError, ValueError):
            n_params = 4
        if n_params not in (3, 4):
            raise ConfigError("custom absorbing rule must accept "
                              "(offspring, generation, history[, rng])")
        object.__setattr__(self, "stream", STREAM_CONTROL if n_params == 4 else None)

    def apply(self, counts, generation: int, rng=None, history=()):
        """Leave l - A_n(l) of each count l; ``history`` holds the counts of
        generations 0 .. generation - 1."""
        view = _Prefix(history, min(generation, len(history)))
        extra = () if self.stream is None else (rng,)
        for i, offspring in enumerate(counts.tolist()):
            absorbed = self.rule(offspring, generation, view, *extra)
            if int(absorbed) != absorbed or not 0 <= absorbed <= offspring:
                raise InvalidRuleError(
                    f"custom rule returned {absorbed!r} for offspring={offspring} "
                    f"at generation {generation}; expected an integer in [0, {offspring}]"
                )
            counts[i] = offspring - int(absorbed)
        return counts


@dataclass(frozen=True)
class Truncation(ControlPolicy):
    """Cap generation n at g(n) before it reproduces."""

    g: GrowthFunction

    def __post_init__(self):
        if self.g(0) < 1:
            raise ConfigError(f"truncation function must satisfy g(0) >= 1, got {self.g(0)}")

    apply = TruncationAsAbsorption.apply  # both leave min(offspring, g(n))
    levels = TruncationAsAbsorption.levels


@dataclass(frozen=True)
class Phi(ControlPolicy):
    """Let phi(current size) units reproduce each generation.

    Forms: identity, a constant c, linear max(0, trunc(a * x + c)) with x
    rounded to the nearest float, a table (holding its last value beyond
    its end), or a callable ``fn``.  ``units`` maps whole arrays; only a
    callable runs once per count.  phi(0) > 0 removes the absorbing state
    at 0 (immigration); runs under such a policy report extinction only as
    a zero count at the horizon.
    """

    fn: Callable[[int], int] | None = None
    form: str = "callable"
    a: float = 0.0
    c: int | float = 0
    table: tuple[int, ...] = ()

    def __post_init__(self):
        if self.form not in ("identity", "constant", "linear", "table") and (
                self.form != "callable" or self.fn is None):
            raise ConfigError(f"phi form {self.form!r} is unknown, or callable without fn")
        for x in (0, 1, 2, 5, 64):
            v = (self.fn or self)(x)
            if v < 0 or int(v) != v:
                raise ConfigError(f"phi({x}) = {v!r}; phi must map nonnegative "
                                  "integers to nonnegative integers")

    @staticmethod
    def identity() -> "Phi":
        return Phi(form="identity")

    @staticmethod
    def constant(c: int) -> "Phi":
        return Phi(form="constant", c=int(c))

    @staticmethod
    def linear(a: float, c: float) -> "Phi":
        return Phi(form="linear", a=float(a), c=float(c))

    @staticmethod
    def from_table(values) -> "Phi":
        return Phi(form="table", table=_table(values, "phi table"))

    @property
    def revives_zero(self) -> bool:
        return self(0) > 0

    def __call__(self, x: int) -> int:
        return int(self.units(np.array([x], dtype=object))[0])

    def units(self, counts):
        if self.form == "identity":
            return counts
        if self.form == "constant":
            return np.repeat(_counts([self.c]), counts.size)
        if self.form == "table":
            return _counts(self.table)[np.minimum(counts, len(self.table) - 1).astype(np.intp)]
        if self.form == "linear":
            try:
                x = counts.astype(np.float64)
            except OverflowError:  # a count past the float range reads as inf
                x = np.array([_float(c) for c in counts.tolist()])
            with np.errstate(over="ignore", invalid="ignore"):
                v = self.a * x + self.c
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:  # raise finite's ConfigError for the first such count
                finite(float(v[bad[0]]), "phi", counts[bad[0]])
            v = np.maximum(np.trunc(v), 0.0)
            if v.size and v.max() >= 2.0**63:
                return np.array([int(x) for x in v.tolist()], dtype=object)
            return v.astype(np.int64)
        units = _counts([int(self.fn(x)) for x in counts.tolist()])
        bad = np.flatnonzero(units < 0)  # the probes above cover a few points only
        if bad.size:
            raise ConfigError(f"phi({counts[bad[0]]}) = {units[bad[0]]}; phi must be nonnegative")
        return units


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a series divergence test, exact for every form of g.

    ``decay_exponent`` is the alpha of a log g, whose terms fall as
    (n + 1)^-alpha, so the series converges iff alpha > 1; it is None for
    every other form.
    """

    verdict: str
    decay_exponent: float | None


def _series_verdict(base: float, g) -> CriterionVerdict:
    if not isinstance(g, GrowthFunction) or g.form == "callable":
        raise ConfigError("no exact verdict for a callable g")
    alpha = None
    if g.form == "log":
        # terms are base^(rounded a*log_b(n+1)) ~ (n+1)^(-alpha); rounding
        # shifts them by at most a constant factor either way
        alpha = g.a * math.log(1.0 / base) / math.log(g.base)
        verdict = "Convergent" if alpha > 1.0 else "Divergent"
    elif g.form == "linear":
        verdict = "Convergent" if g.a > 0 else "Divergent"
    else:  # a constant or a table is bounded, so the terms stay above a positive floor
        verdict = "Divergent"
    return CriterionVerdict(verdict=verdict, decay_exponent=alpha)


def zubkov_criterion(q: float, g) -> CriterionVerdict:
    """Classify sum_n q^g(n): Divergent means the truncated process dies a.s.

    q must be the extinction probability of the untruncated law, strictly
    inside (0, 1).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q}")
    return _series_verdict(q, g)


def expectation_criterion(p: float, g, q: float | None = None) -> CriterionVerdict:
    """Classify sum_n p^g(n) for an absorbing process whose conditional mean
    is enveloped by g.

    A Divergent verdict certifies the sufficient condition for almost-sure
    extinction.  The sum increases in p, so p = q is the sharpest admissible
    choice; pass p=None with q set to use it.
    """
    if p is None:
        if q is None:
            raise ValueError("either p or q must be given")
        p = q
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if q is not None and p > q:
        raise ValueError(f"p must not exceed q, got p={p} > q={q}")
    return _series_verdict(p, g)
