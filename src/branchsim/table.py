"""Small binomial draws by table lookup, number for number numpy's.

numpy's ``Generator.binomial`` draws a count of n <= 32 trials by inversion
(Kachitvichyanukul & Schmeiser, CACM 31, 1988): n min(p, 1 - p) <= 16 is
below its switch to BTPE at 30.  It takes one 53-bit uniform, the top 53
bits of one raw output of the bit generator, and its result is the number
of thresholds K_1 <= K_2 <= ... of that count at or below the uniform.
``_inversion_row`` finds the thresholds exactly, and ``_BinomialDraw``
looks each count up in a flat table of them, so its counts, the
generator's position after a draw and every report byte are numpy's.
"""

from __future__ import annotations

import math

import numpy as np

# largest binomial count drawn by table lookup: 32 rows of at most 34 int64
# keys and values each, under 10 kB per probability
_TABLE_COUNTS = 32
_WINDOW = 16  # candidates on each side of a cumulative sum, in units of 2^-53


def _inversion_row(n: int, p: float) -> list[int]:
    """The thresholds K_1 .. K_{b+1} of numpy's inversion draw of Bin(n, p),
    p <= 1/2: a 53-bit uniform m gives X = #{k <= b : K_k <= m}, or a
    restart when m >= K_{b+1}, for numpy's bound b.

    ``random_binomial_inversion`` (Kachitvichyanukul & Schmeiser, CACM 31,
    1988) takes U = m 2^-53 and, while U > px, moves X on, subtracting px
    from U and stepping px by the pmf ratio.  Its results are replayed here
    with the same float64 operations, so the thresholds are exact: the loop
    is monotone in U, and the first passing m of a bracketing window of
    candidates around each cumulative sum, narrowed by bisection when the
    window does not bracket it, is K_k.
    """
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = [math.exp(n * math.log(q))]
    for x in range(1, bound + 1):
        px.append(((n - x + 1) * p * px[-1]) / (x * q))
    px = np.array(px)

    def passes(m):  # row i of m: candidates for K_{i+1}
        u = m * 2.0**-53
        for j in range(bound + 1):
            u[j:] -= px[j]
        # U > px iff U - px > 0 in float64, and a U that failed stays at or below 0;
        # K = 2^53 is past every draw
        return (u > 0) | (m >= 1 << 53)

    rows = np.arange(bound + 1)
    centre = np.rint(np.cumsum(px) * 2.0**53).astype(np.int64)
    m = np.clip(centre[:, None] + np.arange(-_WINDOW, _WINDOW + 1), 0, 1 << 53)
    ok = passes(m)
    first = ok.argmax(axis=1)
    keys = m[rows, first]
    # an m of 0 never passes (U = 0 > px fails), and 2^53 always does
    lo = np.where(ok[:, 0], 0, np.where(ok[:, -1], m[rows, first - 1], m[:, -1]))
    hi = np.where(ok[:, -1], keys, 1 << 53)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        up = passes(mid[:, None])[:, 0]
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return hi.tolist()


def _rewind(bits, count: int):
    """Step a PCG64 back over ``count`` raw outputs.  ``advance`` drops the
    buffered 32-bit half of a 32-bit draw, so it is put back."""
    state = bits.state
    bits.advance(-count)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}


class _BinomialDraw:
    """draw(z, size, rng): base z + scale Bin(trials z, p) for an int64 array
    z of ``size`` counts (or one count when size is None), from the very
    numbers ``rng.binomial(trials * z, p, size=size)`` gives.

    numpy draws a count of n <= 32 trials by inversion, since n min(p, 1 - p)
    <= 16 is below its switch at 30, on the smaller of p and 1 - p (and
    returns n - X for p > 1/2), one 53-bit uniform per count unless it
    restarts.  When every count is between 1 and ``_TABLE_COUNTS``, 0 < p < 1
    and the generator is a PCG64, this draws one raw output per count, whose
    top 53 bits are numpy's uniform, and finds each total with one searchsorted
    of (n << 53) + m in a flat table of ``_inversion_row`` thresholds, built
    row by row up to the largest count seen.  A count in the restart region
    (about once in 10^16 draws) steps the generator back and hands the whole
    call to numpy, as does every other case.  ``steps`` draws several
    generations of such counts with one ``random_raw`` call.
    """

    def __init__(self, p: float, scale: int = 1, trials: int = 1, base: int = 0):
        self.p, self.scale, self.trials, self.base = p, scale, trials, base
        self._flip = p > 0.5
        self._lookup = 0.0 < p < 1.0
        # the largest total of any row: a count no larger keeps its keys in int64
        self.most = scale * _TABLE_COUNTS + base * (_TABLE_COUNTS // trials)
        self.spans = self._lookup and self.most * trials < 1 << 10
        # each row n: a sentinel key n << 53, then (n << 53) + K_k; a
        # searchsorted index into ``values`` gives the total base n / trials
        # + scale X (n - X for p > 1/2), or -1 for a restart, a count of 0
        # and a count past the table
        self._table = (np.zeros(0, dtype=np.int64), np.full(1, -1, dtype=np.int64), 0)

    def _grow(self, top: int):
        keys, values, built = self._table
        p = 1.0 - self.p if self._flip else self.p
        new_keys, new_values = [keys], [values]
        for n in range(built + 1, top + 1):
            row = _inversion_row(n, p)
            new_keys.append((n << 53) + np.array([0] + row, dtype=np.int64))
            xs = np.arange(len(row))
            totals = self.scale * (n - xs if self._flip else xs) + self.base * (n // self.trials)
            new_values.append(np.append(totals, -1))
        self._table = (np.concatenate(new_keys), np.concatenate(new_values), top)

    def __call__(self, z, size, rng):
        if self._lookup and size:
            each = np.full(size, z) if np.ndim(z) == 0 else z
            top = int(np.maximum.reduce(each)) * self.trials  # skips ndarray.max's Python layer
            if self._table[2] < top <= _TABLE_COUNTS:
                self._grow(top)
            rows = self.steps(each, 1, rng, lambda totals, j: totals)
            if len(rows):
                return rows[0]
        return self._numpy(z, size, rng)  # from the same state

    def steps(self, z, count, rng, apply):
        """Up to ``count`` generations of table draws from the int64 counts z
        on a PCG64, one ``random_raw`` for all, with ``apply(totals, j)``
        leaving the counts of the j-th: a (k, z.size) array of the counts of
        the k generations drawn.  It stops before a generation that the
        table cannot draw (a restart, a count past the rows, or a count of 0,
        so a span ends with the generation of a death), whose raw outputs,
        and those of the generations after it, go back."""
        bits, size, (keys, values, built) = rng.bit_generator, z.size, self._table
        if type(bits) is not np.random.PCG64 or np.maximum.reduce(z) > built // self.trials:
            return z[:0, None]  # the first generation needs new rows or numpy
        z = z.astype(np.int64, copy=False)
        raw = bits.random_raw(count * size).reshape(count, size)
        # numpy's next_double bits: one row of uniforms a generation
        rows, done = np.right_shift(raw, 11, out=raw).view(np.int64), count
        for j, row in enumerate(rows):
            row += (z * self.trials if self.trials > 1 else z) << 53
            values.take(keys.searchsorted(row, side="right"), out=row, mode="clip")
            if np.minimum.reduce(row) < 0:  # a restart, a count of 0 or past the rows
                done = j
                break
            if (z := apply(row, j + 1)) is not row:
                row[...] = z
        if done < count:
            _rewind(bits, (count - done) * size)
        return rows[:done]

    def _numpy(self, z, size, rng):
        out = rng.binomial(z * self.trials if self.trials > 1 else z, self.p, size=size)
        if self.scale != 1:
            out = self.scale * out
        return self.base * z + out if self.base else out
