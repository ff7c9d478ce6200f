"""Offspring laws: pmf tables, generating functions, means, extinction probability.

The extinction probability of a branching process driven by a law with pgf f
is the smallest fixed point of f on [0, 1].  It is found by secant steps that
rise to it from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError

TAIL_EPS = 1e-15  # pmf tables drop a tail of at most this mass
SUM_TAIL = 2.0**-60  # and the pmfs of sums of draws, a tail of at most this
TABLE_MAX = 1 << 20  # atoms a pmf table may hold; a law that needs more is a ConfigError
CRITICAL_EPS = 1e-9  # |m - 1| below this is treated as critical
INT64_MAX = (1 << 63) - 1  # the largest support point or binomial count a draw takes


@dataclass(frozen=True)
class ExtinctionResult:
    """Extinction probability with solver diagnostics: the pgf calls made and
    the residual f(q) - q.

    ``critical`` is set when the law sits numerically on the m = 1 boundary
    (or when the root is indistinguishable from 1), in which case q = 1 is
    reported directly.
    """

    q: float
    iterations: int
    residual: float
    critical: bool = False


class OffspringLaw:
    """Base class for offspring distributions.

    Subclasses provide the exact pgf and mean in closed form, and either a
    ``_table`` of their own or, for laws of Panjer's (a, b, 0) class (Panjer,
    ASTIN Bulletin 12, 1981), their ``(a, b, log p_0)`` in p_k = p_{k-1} (a +
    b / k).  Instances are immutable and safe to share across workers.
    """

    kind: str = "abstract"

    def pgf(self, s: float) -> float:
        """Evaluate f(s) = sum_k p_k s^k for s in [0, 1]."""
        s = float(s)
        if math.isnan(s) or not 0.0 <= s <= 1.0:
            raise ValueError(f"pgf argument must lie in [0, 1], got {s}")
        return float(self._pgf(s))

    def _pgf(self, s: float) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        """Reproduction mean m = sum_k k p_k."""
        raise NotImplementedError

    def max_k(self) -> int | None:
        """Largest support point, or None for infinite support."""
        return None

    def pmf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Support points and probabilities (tail below TAIL_EPS dropped),
        built once, in the cached property ``_table``."""
        return self._table

    def _panjer(self) -> tuple[float, float, float]:
        """(a, b, log p_0) of the recurrence p_k = p_{k-1} (a + b / k)."""
        raise NotImplementedError

    def sum_pmf(self, z: int) -> np.ndarray:
        """P(S = 0), P(S = 1), ... of the sum S of z >= 1 draws, up to where
        the tail left is below SUM_TAIL: Panjer's recurrence with the z-fold
        parameters (a, a (z - 1) + z b, z log p_0): the sum of z draws of an
        (a, b, 0) law is one too."""
        a, b, log_p0 = self._panjer()
        mk = self.max_k()
        return self._panjer_pmf(a, a * (z - 1) + z * b, z * log_p0, mk and z * mk, SUM_TAIL)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        ps = self._panjer_pmf(*self._panjer(), self.max_k(), TAIL_EPS)
        return np.arange(ps.size, dtype=np.int64), ps

    def _panjer_pmf(self, a: float, b: float, log_p0: float, mk: int | None,
                    eps: float) -> np.ndarray:
        """Panjer's recurrence from p_0, summed in logs, to mk or to the
        first k past the mode whose tail bound p_k q / (1 - q), q = a + b /
        (k + 1) < 1, is below eps (the ratios a + b / k fall with k, so
        the tail is at most that geometric series); past TABLE_MAX atoms, a
        ConfigError."""
        size = 16
        while True:  # a few table lengths, the last TABLE_MAX
            size = min(16 * size, TABLE_MAX)
            n = size if mk is None else min(size, mk + 1)
            ratio = a + b / np.arange(1, n + 1.0)  # ratio[k] = p_{k+1} / p_k
            ps = np.exp(np.concatenate(([log_p0], log_p0 + np.cumsum(np.log(ratio[:-1])))))
            if mk is not None and n == mk + 1:
                ratio[-1] = 0.0  # p_{max_k + 1} = 0, which a rounded a + b / k can miss
            ends = np.flatnonzero((ratio < 1) & (ps * ratio < eps * (1 - ratio)))
            if ends.size:
                return ps[:ends[0] + 1]
            if n == TABLE_MAX:
                raise ConfigError(f"the pmf table of {self} passes {TABLE_MAX} atoms")

    @property
    def p0(self) -> float:
        ks, ps = self.pmf_table()
        return float(ps[0]) if ks.size and ks[0] == 0 else 0.0


@dataclass(frozen=True, init=False)
class ExplicitPmf(OffspringLaw):
    """Finite-support law given by weights on nonnegative integers.

    Accepts a mapping k -> weight or an iterable of (k, weight) pairs; the
    weights are normalized to sum to 1, and atoms left with weight 0 dropped.
    """

    atoms: tuple[tuple[int, float], ...]

    kind = "explicit_pmf"

    def __init__(self, pmf):
        pairs = pmf.items() if isinstance(pmf, dict) else list(pmf)
        seen: dict[int, float] = {}
        for k, w in pairs:
            ki = int(k)
            wf = float(w)
            if ki < 0 or ki != k:
                raise ConfigError(f"support points must be nonnegative integers, got {k}")
            if ki > INT64_MAX:
                raise ConfigError(f"support points must be at most 2^63 - 1, got {k}")
            if not math.isfinite(wf) or wf < 0:
                raise ConfigError(f"weight for k={ki} must be finite and nonnegative, got {w}")
            if ki in seen:
                raise ConfigError(f"duplicate support point k={ki}")
            seen[ki] = wf
        try:
            total = math.fsum(seen.values())
        except OverflowError:
            raise ConfigError("pmf weights sum past the float range") from None
        if not seen or total <= 0:
            raise ConfigError("pmf must carry positive total weight")
        atoms = tuple((k, p) for k, w in sorted(seen.items()) if (p := w / total) > 0)
        object.__setattr__(self, "atoms", atoms)

    def _pgf(self, s: float) -> float:
        return math.fsum(p * s**k for k, p in self.atoms)

    def mean(self) -> float:
        return math.fsum(k * p for k, p in self.atoms)

    def max_k(self) -> int:
        return self.atoms[-1][0]

    @lru_cache(maxsize=256)
    def sum_pmf(self, z: int) -> np.ndarray:
        """The pmf of the sum of z draws on 0 .. z max_k: the convolution
        power, kept for the next power and read-only, since callers share it."""
        if z > 1:
            pmf = np.convolve(self.sum_pmf(z - 1), self.sum_pmf(1))
        else:
            ks, ps = self._table
            pmf = np.zeros(int(ks[-1]) + 1)
            pmf[ks] = ps
        pmf.flags.writeable = False
        return pmf

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.array([k for k, _ in self.atoms], dtype=np.int64)
        ps = np.array([p for _, p in self.atoms], dtype=np.float64)
        return ks, ps


@dataclass(frozen=True)
class Poisson(OffspringLaw):
    """Poisson offspring with rate lam."""

    lam: float

    kind = "poisson"

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"Poisson rate must be positive and finite, got {self.lam}")

    def _pgf(self, s: float) -> float:
        return math.exp(self.lam * (s - 1.0))

    def mean(self) -> float:
        return self.lam

    def _panjer(self) -> tuple[float, float, float]:
        return 0.0, self.lam, -self.lam


@dataclass(frozen=True)
class Geometric(OffspringLaw):
    """Geometric offspring with pmf p_k = (1 - r) r^k on k = 0, 1, 2, ..."""

    r: float

    kind = "geometric"

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ConfigError(f"Geometric parameter must lie in (0, 1), got {self.r}")

    def _pgf(self, s: float) -> float:
        return (1.0 - self.r) / (1.0 - self.r * s)

    def mean(self) -> float:
        return self.r / (1.0 - self.r)

    def _panjer(self) -> tuple[float, float, float]:
        return self.r, 0.0, math.log1p(-self.r)


@dataclass(frozen=True)
class Binomial(OffspringLaw):
    """Binomial(n, p) offspring."""

    n: int
    p: float

    kind = "binomial"

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ConfigError(f"Binomial count must be a positive integer, got {self.n}")
        if self.n > INT64_MAX:
            raise ConfigError(f"Binomial count must be at most 2^63 - 1, got {self.n}")
        if not (0.0 < self.p < 1.0):
            raise ConfigError(f"Binomial probability must lie in (0, 1), got {self.p}")
        object.__setattr__(self, "n", int(self.n))

    def _pgf(self, s: float) -> float:
        # log1p keeps the low bits of a small p, which 1 - p would round off
        return math.exp(self.n * math.log1p(self.p * (s - 1.0)))

    def mean(self) -> float:
        return self.n * self.p

    def max_k(self) -> int:
        return self.n

    def _panjer(self) -> tuple[float, float, float]:
        odds = self.p / (1.0 - self.p)
        return -odds, (self.n + 1) * odds, self.n * math.log1p(-self.p)


def extinction_probability(law: OffspringLaw) -> ExtinctionResult:
    """Smallest root of pgf(s) = s on [0, 1].

    h(s) = f(s) - s is convex, so the chord through two points below the
    root crosses zero at or below it: secant steps from s = 0 and s = f(0)
    rise to the root, and stop when h(s) <= 0 or the chord stops rising.  A
    chord that reaches 1 leaves the root indistinguishable from 1.
    """
    m = law.mean()
    if abs(m - 1.0) < CRITICAL_EPS:
        return ExtinctionResult(q=1.0, iterations=0, residual=0.0, critical=True)
    if m < 1.0:
        return ExtinctionResult(q=1.0, iterations=0, residual=0.0)
    a, ha = 0.0, law.pgf(0.0)
    b = ha
    hb = law.pgf(b) - b
    iterations = 2
    while 0.0 < hb < ha:
        c = b + hb * (b - a) / (ha - hb)
        if c >= 1.0:
            return ExtinctionResult(q=1.0, iterations=iterations, residual=0.0, critical=True)
        if c <= b:
            break
        a, ha, b = b, hb, c
        hb = law.pgf(b) - b
        iterations += 1
    return ExtinctionResult(q=b, iterations=iterations, residual=hb)
