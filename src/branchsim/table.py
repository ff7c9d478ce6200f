"""Draws by table lookup: small binomials, and the rows of any pmf.

A table's row z gives a count of z its total from one 53-bit uniform m, the
top 53 bits of one raw output of a PCG64: the total is the k-th of the row's
values, k = #{thresholds of the row at or below m}.  ``_TableDraw`` looks
each count up in a flat table of its rows by the key (z << 53) + m: a
searchsorted, or, for a generation of ``_GUIDE_WIDTH`` counts or more,
where the search costs more than six numpy calls, a gather from a guide
table of the key's top bits (Chen & Asau, AIIE Trans. 6, 1974) and a
search of the few keys in buckets that a key splits.  Every row
comes from ``_pmf_rows``: thresholds ceil(F(k) 2^53) of the cdf F of a
float pmf, so each value takes its probability to within a few 2^-53 beyond
the pmf's own rounding, and the last is 2^53, past every uniform.

The rows of ``_binomial_draw`` are the weights of ``_binomial_weights``.
numpy's ``Generator.binomial`` draws a count of n <= 32 trials by inversion
(Kachitvichyanukul & Schmeiser, CACM 31, 1988; n min(p, 1 - p) <= 16 is
below its switch to BTPE at 30) from the same 53-bit uniform, and each of
its steps lies within 64 units of 2^-53 of the table's threshold.  So a
table draw is numpy's, and takes as many raw outputs, but for a uniform in
one of those gaps: under 6e-14 of the draws of a count.

Rows grow in ``_TableDraw.steps`` alone, and a policy that draws nothing
folds into the table once a run of its ``levels``, so a span generation is
one searchsorted, one take and one add.
"""

from __future__ import annotations

import numpy as np

from .control import ControlPolicy

# the rows of a table: the binomial counts of at most 32 trials, whose rows
# hold at most 33 int64 keys and values each, and the unit counts of at most 32
_TABLE_COUNTS = 32
# a lookup of fewer counts searches; a guide bucket spans 2^-8 of a count's uniforms
_GUIDE_WIDTH = 1024
_GUIDE_SHIFT = 53 - 8


def _binomial_weights(p: float, top: int) -> np.ndarray:
    """w[t, b] = P(B = b), B ~ Bin(t, p), p <= 1/2, over t, b <= top, 0 for
    b > t: C(t, b) is a running product of (t - b + 1) / b, below 2^1018 for
    t < 2^10, and the power of 1 - p = hi + lo, held exactly as two floats,
    is hi^k (1 + k lo / hi).  Each weight near the mode is a normal float,
    within 20 ulps of its value for t < 2^9 (the running product's roundings)."""
    hi = 1.0 - p
    lo = (1.0 - hi) - p  # 1 - p - hi, exactly
    t, b = np.ogrid[:top + 1, :top + 1]
    k = np.maximum(t - b, 0)
    steps = np.where(b <= t, (t - b + 1.0) / np.maximum(b, 1), 0.0)
    steps[:, 0] = 1.0
    return np.cumprod(steps, axis=1) * p ** b.astype(np.float64) * (hi**k * (1.0 + k * (lo / hi)))


def _pmf_rows(ps) -> list[tuple[np.ndarray, np.ndarray]]:
    """The thresholds and values of rows that draw k with probability ps[i,
    k] / sum(ps[i]), for a 2-D float64 array ps of pmfs on 0 .. L: T_k =
    ceil(F(k) 2^53) for the cdf F, while it is below 2^53, and then 2^53,
    past every uniform, so no uniform restarts.  The cdf is the running sum
    of ps with each of its roundings recovered exactly (Knuth's TwoSum),
    over the total so recovered, so that the rounding of the pmf's own total,
    and a tail it drops, go to every value in proportion, not to the last."""
    run = np.cumsum(ps, axis=1)
    added = run[:, 1:] - run[:, :-1]
    lost = (run[:, :-1] - (run[:, 1:] - added)) + (ps[:, 1:] - added)  # exactly
    run[:, 1:] += np.cumsum(lost, axis=1)
    cdf = np.ceil(run / run[:, -1:] * 2.0**53)
    thresholds = np.minimum(np.maximum.accumulate(cdf, axis=1), 2.0**53).astype(np.int64)
    ends = np.count_nonzero(thresholds < 1 << 53, axis=1) + 1
    return [(row[:end], np.arange(end)) for row, end in zip(thresholds, ends.tolist())]


def _guide(keys) -> np.ndarray:
    """The int32 guide of sorted keys: entry B is the index
    keys.searchsorted(k, side="right") of every k >= 0 with k >> _GUIDE_SHIFT
    = B, or -1 (search) where a key splits bucket B.  A k past the last
    bucket looks that one up."""
    edge = np.arange((int(keys.max(initial=0)) >> _GUIDE_SHIFT) + 1) << _GUIDE_SHIFT
    guide = keys.searchsorted(edge, side="right")
    edge += (1 << _GUIDE_SHIFT) - 1  # each bucket's last key
    guide[keys.searchsorted(edge, side="right") != guide] = -1
    return guide.astype(np.int32)


def _guided(row, guide, keys, at):
    """keys.searchsorted(row, side="right") for a row of keys of at least 0,
    written into the int64 array ``at``: a gather from ``keys``' guide, and a
    search where it marks -1."""
    at[...] = guide.take(np.right_shift(row, _GUIDE_SHIFT, out=at), mode="clip")
    miss = np.flatnonzero(at < 0)
    if miss.size:
        at[miss] = keys.searchsorted(row[miss], side="right")
    return at


def _rewind(bits, count: int):
    """Step a PCG64 back over ``count`` raw outputs.  ``advance`` drops the
    buffered 32-bit half of a 32-bit draw, so it is put back."""
    state = bits.state
    bits.advance(-count)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}


class _TableDraw:
    """draw(z, rng): the totals of an int64 array z of counts, each looked
    up by (z << 53) + m, m the top 53 bits of one raw output of a PCG64, in
    a flat table of rows built up to the largest count seen, or, one
    generation of ``_GUIDE_WIDTH`` counts or more, in the table's guide,
    built at the first such lookup after the rows grow.  A folded span
    keeps the search: the engine gives a span of two generations or more
    at most 8192 raw outputs, so at most 4096 counts a lookup.

    ``rows_of(z0, z1)`` gives the sorted thresholds and the values, as many,
    of the rows of counts z0 .. z1 - 1 (``_pmf_rows``).  The table holds the
    rows of counts 1 to ``rows``, and ``most`` bounds their values.
    A count of 0 or past the rows, or another bit generator, hands the whole
    call to ``numpy``, with any raw outputs drawn first stepped back.
    ``steps`` draws several generations of such counts with one
    ``random_raw`` call.
    """

    def __init__(self, rows_of, rows: int, most: int, numpy=None):
        self._rows, self.rows, self.most, self._numpy = rows_of, rows, most, numpy
        self.spans = most < 1 << 10
        # the key 1 << 53, then each row z's (z << 53) + T_k, the last at (z +
        # 1) << 53; a searchsorted index into ``values`` gives the value
        # drawn, or -1, the first and the last, for a count of 0 and a count
        # past the table
        self._table = (np.full(1, 1 << 53), np.full(2, -1), 0)
        self._guide = None  # the table's, once a wide lookup needs it
        self._folds = (self._table, None, {})  # (table, policy, {level <= most + 1: fold})

    def _grow(self, top: int):
        keys, values, built = self._table
        rows = self._rows(built + 1, top + 1)
        self._table = (np.concatenate([keys] + [(z << 53) + thresholds for z, (thresholds, _)
                                                in enumerate(rows, built + 1)]),
                       np.concatenate([values[:-1]] + [totals for _, totals in rows] + [[-1]]),
                       top)
        self._guide = None

    def _fold(self, folds, policy, n, level):
        """The table at the policy's ``level`` (of generation n): its values are
        the keys z << 53 of the counts z ``apply`` leaves, -1 is -2^53, which
        looks up -1 again, and runs of one value merge, so that the search
        branches predictably in a capped row's upper tail.  A policy that
        leaves no count above its level (a cap) first grows the rows to the
        level, so that no count it leaves is past them."""
        top = min(level, self.rows)
        if self._table[2] < top and policy.apply(np.array([level + 1]), n)[0] <= level:
            self._grow(top)
            self._folds = (self._table, policy, folds := {})
        keys, values, _ = self._table
        live, left = values >= 0, np.full(values.size, -1 << 53)
        left[live] = policy.apply(values[live], n) << 53
        step = np.flatnonzero(np.diff(left))
        folds[level] = fold = keys[step], np.append(left[:1], left[step + 1])
        return fold

    def __call__(self, z, rng):
        if z.size and len(rows := self.steps(z, 1, rng)):
            return rows[0]
        return self._numpy(z, rng)

    def steps(self, z, count, rng, policy=ControlPolicy(), n=0, ctl=None):
        """Up to ``count`` generations n + 1, ... of table draws from the int64
        counts z on a PCG64, one ``random_raw`` for all, each as ``policy``
        leaves it: a (k, z.size) array of the counts of the k drawn, once the
        rows reach z.  It stops before a generation that the table cannot
        draw (a count past the rows, or a count of 0, so a span ends with
        the generation of a death), whose raw outputs, and those after them,
        go back.  A policy that draws (from ``ctl``), or overrides ``apply``
        but not ``levels``, applies unfolded, once the table has drawn every
        count, as does a single generation; any other folds once for each
        run of its ``levels``."""
        bits, size, top = rng.bit_generator, z.size, int(np.maximum.reduce(z))
        if type(bits) is not np.random.PCG64 or top > self.rows:
            return z[:0, None]  # the first generation is numpy's
        if self._table[2] < top:
            self._grow(top)
        keys, values, _ = self._table
        # a policy folds when its levels are all its apply reads: its own, or the identity's
        kind = type(policy)
        checked = (count == 1 or policy.stream is not None
                   or kind.levels is ControlPolicy.levels and kind.apply is not ControlPolicy.apply)
        if not checked and (self._folds[0] is not self._table or self._folds[1] is not policy):
            self._folds = (self._table, policy, {})
        done = count
        raw = bits.random_raw(count * size).reshape(count, size)
        # numpy's next_double bits, a row a generation, plus its parents' keys
        rows = np.right_shift(raw, 11, out=raw).view(np.int64)
        key = z.astype(np.int64, copy=False) << 53
        if checked:
            wide = size >= _GUIDE_WIDTH
            if wide and self._guide is None:
                self._guide = _guide(keys)
            for j, row in enumerate(rows, n + 1):
                row += key  # the parents' keys are spent, and hold a wide lookup's index
                at = _guided(row, self._guide, keys, key) if wide else keys.searchsorted(
                    row, side="right")
                values.take(at, out=row, mode="clip")
                if np.minimum.reduce(row) < 0:  # a count of 0 or past the rows
                    done = j - n - 1
                    break
                if (left := policy.apply(row, j, ctl)) is not row:
                    row[...] = left
                key = row << 53
        else:  # one fold a run of levels, all alike past every total
            runs = policy.levels(n + 1, n + count + 1)
            for (j, level), end in zip(runs, [j for j, _ in runs[1:]] + [n + count + 1]):
                level, folds = min(level, self.most + 1), self._folds[2]
                keys, values = folds.get(level) or self._fold(folds, policy, j, level)
                for row in rows[j - n - 1:end - n - 1]:
                    row += key
                    key = values.take(keys.searchsorted(row, side="right"), out=row, mode="clip")
            rows >>= 53  # a row holds the keys of its counts, and a -1 stays -1
            if np.minimum.reduce(rows[-1]) < 0:
                done = int(np.flatnonzero(np.minimum.reduce(rows, axis=1) < 0)[0])
        if done < count:
            _rewind(bits, (count - done) * size)
        return rows[:done]


def _binomial_draw(p: float, scale: int = 1, trials: int = 1, base: int = 0):
    """draw(z, rng): base z + scale Bin(trials z, p) for an int64 array z of
    counts, the numbers ``rng.binomial(trials * z, p)`` gives but for under
    6e-14 of the uniforms (see the module docstring).

    For 0 < p < 1 the draw is a table of the counts of 1 to
    ``_TABLE_COUNTS`` trials, rows t = z trials of ``_binomial_weights`` at
    q = min(p, 1 - p), built once: X is drawn for q, and n - X given for p >
    1/2, as numpy does.  Otherwise, and where no count fits, it is numpy's.
    """
    def numpy(z, rng):
        out = rng.binomial(z * trials if trials > 1 else z, p)
        if scale != 1:
            out = scale * out
        return base * z + out if base else out
    rows = _TABLE_COUNTS // trials
    if not 0.0 < p < 1.0 or not rows:
        return numpy
    flip = p > 0.5
    w = _binomial_weights(1.0 - p if flip else p, _TABLE_COUNTS)

    def rows_of(z0, z1):
        return [(thresholds, scale * (z * trials - xs if flip else xs) + base * z)
                for z, (thresholds, xs) in enumerate(
                    _pmf_rows(w[z0 * trials:z1 * trials:trials]), z0)]
    return _TableDraw(rows_of, rows, scale * _TABLE_COUNTS + base * rows, numpy)
