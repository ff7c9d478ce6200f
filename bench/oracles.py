"""Exact per-generation oracles for the benchmark workloads, and the checks
that hold a branchsim CSV report against them.

Each oracle gives, for every generation n = 0..horizon, an interval
[p_lo, p_hi] that contains P(Z_n = 0) and the law of Z_n given Z_n > 0
(or None when that event has probability zero).  The checks are
concentration bounds, so a report that passes every one of them is
consistent with the oracle; the false-alarm rate of one report, over all
of its generations together, is at most ``ALPHA`` (union bound).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Family-wise false-alarm rate of one report's checks.
ALPHA = 1e-6


@dataclass(frozen=True)
class GeometricLaw:
    """Geometric law on {1, 2, ...}: P(k) = p (1 - p)^(k - 1), mean 1 / p."""

    p: float

    @property
    def mean(self) -> float:
        return 1.0 / self.p


@dataclass(frozen=True)
class BoundedLaw:
    """A law on [lo, hi] known through its mean and variance."""

    mean: float
    var: float
    lo: int
    hi: int


@dataclass(frozen=True)
class Generation:
    p_lo: float
    p_hi: float
    alive: GeometricLaw | BoundedLaw | None


def geometric_gw(r: float, horizon: int) -> list[Generation]:
    """Plain GW from one ancestor with offspring pmf (1 - r) r^k.

    The pgf is linear fractional, so its n-fold iterate has the closed form
    f_n(0) = q (m^n - 1) / (m^n - q) with m = r / (1 - r) and q = (1 - r) / r
    (Athreya & Ney, *Branching Processes*, 1972, I.4), and Z_n given Z_n > 0
    is geometric on {1, 2, ...} with mean m^n / (1 - f_n(0)).  Needs m > 1.
    """
    m = r / (1.0 - r)
    q = (1.0 - r) / r
    if not m > 1.0:
        raise ValueError(f"needs a supercritical law, got m = {m}")
    out = []
    for n in range(horizon + 1):
        mn = m ** n
        f = q * (mn - 1.0) / (mn - q)
        out.append(Generation(f, f, GeometricLaw((1.0 - f) / mn)))
    return out


def log_growth(a: float, base: float, n: int) -> int:
    """g(n) = max(1, ceil(a log_base(n + 1))), the ``log`` growth form with
    ``rounding: ceil``.  The float expression is the one branchsim evaluates,
    so the two agree where a log_base(n + 1) is an integer up to rounding."""
    return max(1, math.ceil(a * math.log(n + 1) / math.log(base)))


def _alive_law(pi: np.ndarray, top: int) -> BoundedLaw | None:
    w = pi[1:top + 1]
    mass = float(w.sum())
    if mass <= 0.0:
        return None
    k = np.arange(1, top + 1, dtype=np.float64)
    mean = float((w * k).sum()) / mass
    var = max(float((w * (k - mean) ** 2).sum()) / mass, 0.0)
    return BoundedLaw(mean, var, 1, top)


def truncated_chain(pmf: dict[int, float], g, horizon: int) -> list[Generation]:
    """GW from one ancestor, capped at g(n) in generation n:
    Z_n = min(offspring of Z_{n-1}, g(n)).

    The capped process is a finite Markov chain on {0..max g}.  Its kernel
    comes from convolution powers of the pmf, and iterating it gives the
    exact law of every Z_n, up to float rounding (below 1e-12 here).
    """
    caps = [g(n) for n in range(1, horizon + 1)]
    top = max(caps + [1])
    ks = sorted(pmf)
    unit = np.zeros(ks[-1] + 1)
    for k in ks:
        unit[k] = pmf[k]
    unit /= unit.sum()
    # conv[z] is the law of the offspring total of z parents
    conv = [np.array([1.0])]
    for _ in range(top):
        conv.append(np.convolve(conv[-1], unit))
    kernels = {}

    def kernel(cap):
        if cap not in kernels:
            mat = np.zeros((top + 1, top + 1))
            for z, dist in enumerate(conv):
                head = dist[:cap]
                mat[z, :head.size] = head
                mat[z, cap] += dist[cap:].sum()
            kernels[cap] = mat
        return kernels[cap]

    pi = np.zeros(top + 1)
    pi[1] = 1.0
    p0 = float(pi[0])
    out = [Generation(p0, p0, _alive_law(pi, 1))]
    for cap in caps:
        pi = pi @ kernel(cap)
        p0 = float(pi[0])
        out.append(Generation(p0, p0, _alive_law(pi, cap)))
    return out


def _poisson_survival(lam: float, upto: int) -> np.ndarray:
    """S[j] = P(Poisson(lam) >= j) for j = 0..upto, summed from the tail so
    that tiny tails keep their digits."""
    stop = upto + 64 + int(lam + 40.0 * math.sqrt(lam + 1.0))
    pmf = np.empty(stop + 1)
    pmf[0] = math.exp(-lam)
    for j in range(1, stop + 1):
        pmf[j] = pmf[j - 1] * lam / j
    return np.cumsum(pmf[::-1])[::-1][:upto + 1]


def bisexual_min_poisson(lam: float, alpha: float, initial: int, horizon: int,
                         k_max: int = 60) -> list[Generation]:
    """Units chain of the bisexual process with Poisson(lam) offspring per
    unit, males with probability alpha and min mating.

    The offspring of k units total Poisson(lam k); splitting it by sex is a
    Poisson thinning, so F ~ Poisson((1 - alpha) lam k) and
    M ~ Poisson(alpha lam k) are independent and P(min(F, M) >= j) =
    P(F >= j) P(M >= j).  The chain is kept on {0..k_max}; mass that would
    leave it is dropped and added to p_hi, so [p_lo, p_hi] still contains
    the exact P(Z_n = 0).
    """
    mat = np.zeros((k_max + 1, k_max + 1))
    mat[0, 0] = 1.0
    leave = np.zeros(k_max + 1)  # P(min(F, M) > k_max) from k units
    for k in range(1, k_max + 1):
        both = (_poisson_survival((1.0 - alpha) * lam * k, k_max + 1)
                * _poisson_survival(alpha * lam * k, k_max + 1))
        mat[k] = both[:-1] - both[1:]
        leave[k] = both[-1]
    pi = np.zeros(k_max + 1)
    pi[initial] = 1.0
    dropped = 0.0
    out = [Generation(0.0, 0.0, _alive_law(pi, k_max))]
    for _ in range(horizon):
        dropped += float(pi @ leave)
        pi = pi @ mat
        p0 = float(pi[0])
        out.append(Generation(p0, min(1.0, p0 + dropped), _alive_law(pi, k_max)))
    return out


# --- concentration bounds -------------------------------------------------

def kl_bernoulli(a: float, b: float) -> float:
    """KL(Bernoulli(a) || Bernoulli(b)); infinite where a puts mass b lacks."""
    if (b == 0.0 and a > 0.0) or (b == 1.0 and a < 1.0):
        return math.inf
    out = 0.0
    if a > 0.0:
        out += a * math.log(a / b)
    if a < 1.0:
        out += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return out


def binomial_ok(count: int, trials: int, p_lo: float, p_hi: float,
                level: float) -> bool:
    """Chernoff: P(count / trials beyond x) <= exp(-trials KL(x || p)) on
    each side, so accept unless that bound falls below exp(-level)."""
    frac = count / trials
    if p_lo <= frac <= p_hi:
        return True
    p = p_lo if frac < p_lo else p_hi
    return trials * kl_bernoulli(frac, p) <= level


def geometric_mean_ok(mean: float, n: int, law: GeometricLaw, level: float) -> bool:
    """Chernoff for the mean of n geometric draws on {1, 2, ...}.  The
    geometric laws form an exponential family, so the rate at x is the KL
    divergence from the member with mean x to ``law``."""
    if mean < 1.0:
        return False
    p, p_x = law.p, 1.0 / mean
    if p >= 1.0:
        return mean == 1.0
    rate = math.log(p_x / p)
    if p_x < 1.0:
        rate += (1.0 / p_x - 1.0) * (math.log1p(-p_x) - math.log1p(-p))
    return n * rate <= level


def bernstein_halfwidth(n: int, var: float, spread: float, level: float) -> float:
    """Halfwidth e with P(|mean - mu| >= e) <= 2 exp(-level) for the mean of
    n draws with variance var and |X - mu| <= spread (Bernstein)."""
    b = spread * level / (3.0 * n)
    return b + math.sqrt(b * b + 2.0 * var * level / n)


def bounded_mean_ok(mean: float, n: int, law: BoundedLaw, level: float) -> bool:
    if not law.lo <= mean <= law.hi:
        return False
    slack = 1e-9 * max(1.0, abs(law.mean))  # float rounding of both sides
    half = bernstein_halfwidth(n, law.var, law.hi - law.lo, level)
    return abs(mean - law.mean) <= half + slack


# --- report checks --------------------------------------------------------

@dataclass
class Verdict:
    errors: list[str]
    trial_steps: int


def check_report(text: str, config_bytes: bytes, master_seed: int, trials: int,
                 oracle: list[Generation]) -> Verdict:
    """Check a generation/extinct_fraction/mean CSV report against an oracle.

    Checks the provenance hash and seed, that generations run 0..horizon,
    that the extinct curve is nondecreasing, every generation's extinct
    fraction (binomial bound) and every generation's mean size given
    survival (geometric or Bernstein bound).  ``trial_steps`` is the number
    of trial-generations advanced, sum over n >= 1 of the trials alive at
    n - 1.
    """
    errors = []
    lines = text.splitlines()
    if len(lines) != len(oracle) + 2 or not lines[0].startswith("# "):
        return Verdict([f"report has {len(lines)} lines, expected "
                        f"{len(oracle) + 2} with a provenance line"], 0)
    prov = dict(item.split("=", 1) for item in lines[0][2:].split(","))
    if prov.get("config_sha256") != hashlib.sha256(config_bytes).hexdigest():
        errors.append("provenance config_sha256 is not the SHA-256 of the config")
    if prov.get("master_seed") != str(master_seed):
        errors.append(f"provenance master_seed {prov.get('master_seed')} != {master_seed}")
    if lines[1].split(",")[:2] != ["generation", "extinct_fraction"]:
        errors.append(f"unexpected header {lines[1]!r}")

    # two sides of two checks per generation
    level = math.log(2 * 2 * len(oracle) / ALPHA)
    steps = 0
    prev_extinct = 0
    for n, (line, gen) in enumerate(zip(lines[2:], oracle)):
        cells = line.split(",")
        if len(cells) != 3 or cells[0] != str(n):
            errors.append(f"row {n}: malformed {line!r}")
            continue
        frac, mean = float(cells[1]), float(cells[2])
        extinct = round(frac * trials)
        if abs(extinct - frac * trials) > 1e-6:
            errors.append(f"generation {n}: extinct fraction {frac} is not a count over {trials}")
        if extinct < prev_extinct:
            errors.append(f"generation {n}: extinct curve decreases")
        if n:
            steps += trials - prev_extinct
        prev_extinct = extinct
        alive = trials - extinct
        if not binomial_ok(extinct, trials, gen.p_lo, gen.p_hi, level):
            errors.append(f"generation {n}: extinct fraction {frac} outside the bound "
                          f"around [{gen.p_lo:.6g}, {gen.p_hi:.6g}]")
        if alive == 0:
            if not math.isnan(mean):
                errors.append(f"generation {n}: mean {mean} with no survivors")
            continue
        if gen.alive is None:
            errors.append(f"generation {n}: {alive} survivors where the oracle has none")
            continue
        law = gen.alive
        ok = (geometric_mean_ok(mean, alive, law, level) if isinstance(law, GeometricLaw)
              else bounded_mean_ok(mean, alive, law, level))
        if not ok:
            errors.append(f"generation {n}: mean size given survival {mean} outside "
                          f"the bound around {law.mean:.6g} ({alive} survivors)")
    return Verdict(errors, steps)
