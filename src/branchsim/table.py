"""Draws by table lookup: small binomials, and the rows of any pmf.

A table's row z gives a count of z its total from one 53-bit uniform m, the
top 53 bits of one raw output of a PCG64: the total is the k-th of the row's
values, k = #{thresholds of the row at or below m}.  Every row comes from
``_pmf_rows``: thresholds ceil(F(k) 2^53) of the cdf F of a float pmf, so
each value takes its probability to within a few 2^-53 beyond the pmf's own
rounding, and the last is 2^53, past every uniform.

The rows of ``_binomial_draw`` are the weights of ``_binomial_weights``.
numpy's ``Generator.binomial`` draws a count of n <= 32 trials by inversion
(Kachitvichyanukul & Schmeiser, CACM 31, 1988; n min(p, 1 - p) <= 16 is
below its switch to BTPE at 30) from the same 53-bit uniform, and each of
its steps lies within 64 units of 2^-53 of the table's threshold.  So a
table draw is numpy's, and takes as many raw outputs, but for a uniform in
one of those gaps: under 6e-14 of the draws of a count.

``_TableDraw`` looks every count up one way: the merged thresholds of its
rows cut the uniforms into buckets, m's bucket fixes m's index in every row
(``_buckets``), and a call finds each uniform's bucket once, by a guide of
its top 14 bits (Chen & Asau, AIIE Trans. 6, 1974) and a search where a
threshold splits a guide cell.  A generation is then one add and one take
from a table over (count, bucket): the identity's, or the fold of a policy
that draws nothing, one a run of its ``levels``.  Rows grow in
``_TableDraw.steps`` alone, and a block finds its runs once and grows the
rows to their largest level then, so its buckets build once.
"""

from __future__ import annotations

import bisect

import numpy as np

from .control import ControlPolicy
from .errors import ConfigError

# the rows of a table: the binomial counts of at most 32 trials, whose rows
# hold at most 33 int64 keys and values each, and the unit counts of at most 32
_TABLE_COUNTS = 32
# uniforms find their buckets by a guide of their top 14 bits, and a table's
# folds keep at most 1 MiB
_BUCKET_SHIFT, _FOLD_BYTES = 53 - 14, 1 << 20


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
    """The int32 guide of sorted keys of at least 0: entry B is the index
    keys.searchsorted(k, side="right") of every k >= 0 with k >>
    _BUCKET_SHIFT = B, or -1 (search) where a key splits cell B, lying past
    its first k.  A k past the last cell looks that one up."""
    top, mask = (int(keys.max(initial=0)) >> _BUCKET_SHIFT) + 1, (1 << _BUCKET_SHIFT) - 1
    # entry B counts the keys at or below B << _BUCKET_SHIFT: those whose cell,
    # rounded up, is at most B
    guide = np.arange(keys.size + 1, dtype=np.int32).repeat(
        np.diff((keys + mask) >> _BUCKET_SHIFT, prepend=0, append=top))
    guide[(keys >> _BUCKET_SHIFT)[keys & mask != 0]] = -1
    return guide


def _guided(row, guide, keys):
    """keys.searchsorted(row, side="right") in place of a 1-D int64 row of
    keys of at least 0: a gather from ``keys``' guide, and a search where
    it marks -1."""
    at = guide.take(row >> _BUCKET_SHIFT, mode="clip")
    miss = np.flatnonzero(at < 0)
    if miss.size:
        at[miss] = keys.searchsorted(row[miss], side="right")
    row[...] = at
    return row


def _buckets(table):
    """The merged thresholds (the keys mod 2^53, sorted and distinct), whose
    count at or below m, m's bucket b, fixes m's index in every row; their
    guide; log2 W, W the least power of two past their number; the repeats
    of the table's values over the states s W + b, in order; and the
    identity's table, the values so repeated: state s W + b holds row s's
    value at bucket b, -1 for s = 0, and the last, -1, is past the rows."""
    keys, values, built = table
    low = keys & ((1 << 53) - 1)
    merged = np.array(sorted(set(low.tolist())))
    shift = merged.size.bit_length()
    # state s W + b looks up the value past the keys k at or below (s << 53) +
    # merged[b - 1], those whose (k >> 53) W + (k's bucket) is at most s W +
    # b; the last key, (built + 1) << 53, is past every state but the last
    edges = ((keys[:-1] >> 53) << shift) + merged.searchsorted(low[:-1]) + 1
    repeats = np.diff(edges, prepend=0, append=(built + 1 << shift, (built + 1 << shift) + 1))
    return merged, _guide(merged), shift, repeats, values.repeat(repeats)


def _rewind(bits, count: int):
    """Step a PCG64 back over ``count`` raw outputs.  ``advance`` drops the
    buffered 32-bit half of a 32-bit draw, so it is put back."""
    state = bits.state
    bits.advance(-count)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}


class _TableDraw:
    """draw(z, rng): the totals of an int64 array z of counts, each looked
    up at (z, bucket of m), m the top 53 bits of one raw output of a PCG64,
    in the identity's table of the rows built (``_buckets``).  The rows grow
    at one point, the head of ``steps``, to a folded policy's levels up to
    the end of the block (``_runs``), or to twice the largest count, and the
    buckets, the identity and every fold cover every built row.

    ``rows_of(z0, z1)`` gives the sorted thresholds and the values, as many,
    of the rows of counts z0 .. z1 - 1 (``_pmf_rows``).  The table holds the
    rows of counts 1 to ``rows``, and ``most`` bounds their values.
    A count of 0 or past the rows, or another bit generator, hands the whole
    call to ``numpy``, with any raw outputs drawn first stepped back.
    ``steps`` draws several generations of such counts with one
    ``random_raw`` call.  Its folds of one policy hold at most
    ``_FOLD_BYTES`` = 1 MiB, and start again past it: a binomial table's
    buckets with the identity (W <= 1024 by 33 rows) take under 350 kB, and
    one fold under 300 kB.
    One batch owns a table and calls it one block at a time.
    """

    def __init__(self, rows_of, rows: int, most: int, numpy=None):
        self._rows, self.rows, self.most, self._numpy = rows_of, rows, most, numpy
        self.spans = most < 1 << 10
        # the key 1 << 53, then each row z's (z << 53) + T_k, the last at (z +
        # 1) << 53; a searchsorted index into ``values`` gives the value
        # drawn, or -1, the first and the last, for a count of 0 and a count
        # past the table
        self._table = (np.full(1, 1 << 53), np.full(2, -1), 0)
        self._merged = None  # its ``_buckets``, once a lookup needs them
        # the policy folded, {level: fold} of it, and its plan (``_runs``)
        self._policy, self._folds, self._plan = None, {}, None

    def _grow(self, top: int):
        keys, values, built = self._table
        rows = self._rows(built + 1, top + 1)
        self._table = (np.concatenate([keys] + [(z << 53) + thresholds for z, (thresholds, _)
                                                in enumerate(rows, built + 1)]),
                       np.concatenate([values[:-1]] + [totals for _, totals in rows] + [[-1]]),
                       top)
        self._merged, self._folds = None, {}

    def _fold(self, n, level):
        """The folded policy's transition table at ``level`` (of generation
        n) over every built row: s W + b holds c W, c what ``apply`` leaves
        of row s's total at bucket b, and -W (-1) for s = 0 and last, where
        take clips -1's -W + b and counts past the rows.  It joins the
        folds, which start again past ``_FOLD_BYTES``."""
        values, (merged, guide, shift, repeats, ident) = self._table[1], self._merged
        live, left = values >= 0, np.full(values.size, -1)
        left[live] = self._policy.apply(values[live], n)
        fold = left.repeat(repeats) << shift
        spare = _FOLD_BYTES - fold.nbytes - sum(a.nbytes for a in (merged, guide, repeats, ident))
        if sum(f.nbytes for f in self._folds.values()) > spare:
            self._folds.clear()
        self._folds[level] = fold
        return fold

    def _runs(self, policy, n0, n1, end):
        """``policy``'s (start, level) runs over n0 .. n1 - 1, levels past
        ``most`` at ``most`` + 1, and its plan's largest level within ``rows``.
        The plan, the runs from n0 to ``end``, is found once for the spans it
        covers; if finding it raises (a level past the float range), each span
        finds its own, so that only a span that reaches such a level raises."""
        if policy is not self._policy:
            self._policy, self._folds, self._plan = policy, {}, None
        plan = self._plan
        if plan is None or plan and not plan[0][0][0] <= n0 < n1 <= plan[2]:
            try:
                plan = self._plan = self._levels(policy, n0, end) + (end,)
            except ConfigError:
                plan = self._plan = ()
        runs, top, _ = plan or self._levels(policy, n0, n1) + (n1,)
        at = bisect.bisect_left(runs, (n0 + 1,))  # past the run of n0
        return [(n0, runs[at - 1][1])] + runs[at:bisect.bisect_left(runs, (n1,))], top

    def _levels(self, policy, n0, n1):
        runs = [(j, min(v, self.most + 1)) for j, v in policy.levels(n0, n1)]
        return runs, min(max(v for _, v in runs), self.rows)

    def __call__(self, z, rng):
        if z.size and len(rows := self.steps(z, 1, rng)):
            return rows[0]
        return self._numpy(z, rng)

    def steps(self, z, count, rng, policy=ControlPolicy(), n=0, ctl=None, end=0):
        """Up to ``count`` generations n + 1, ... of table draws from the int64
        counts z on a PCG64, one ``random_raw`` for all, each as ``policy``
        leaves it: a (k, z.size) array of the counts of the k drawn.  The
        rows first grow to twice the largest count of z, within ``rows``, or
        further in a span that folds, to the largest level within ``rows`` of
        the plan of ``policy.levels`` up to generation ``end`` (``_runs``),
        past every count a cap leaves.  It stops before a generation that the
        table cannot draw (a count past the rows, or a count of 0, so a span
        ends with the generation of a death), whose raw outputs, and those
        after them, go back.  A policy that draws (from ``ctl``), or overrides
        ``apply`` but not ``levels``, applies to each generation's lookups in
        the identity's table, as does a single generation's; any other folds
        once for each run of its ``levels``, and keeps its folds until the
        rows grow or another policy folds."""
        bits, size, top = rng.bit_generator, z.size, int(np.maximum.reduce(z))
        if type(bits) is not np.random.PCG64 or top > self.rows:
            return z[:0, None]  # the first generation is numpy's
        # a policy folds when its levels are all its apply reads: its own, or the identity's
        kind = type(policy)
        checked = (count == 1 or policy.stream is not None
                   or kind.levels is ControlPolicy.levels and kind.apply is not ControlPolicy.apply)
        level = 0
        if not checked:
            runs, level = self._runs(policy, n + 1, n + count + 1, max(end, n + count) + 1)
        if self._table[2] < max(top, level):
            self._grow(max(level, min(2 * top, self.rows)))
        if self._merged is None:
            self._merged = _buckets(self._table)
        merged, guide, shift, _, ident = self._merged
        done = count
        raw = bits.random_raw(count * size)
        flat = np.right_shift(raw, 11, out=raw).view(np.int64)  # numpy's next_double bits
        # each uniform's bucket, a row a generation, and the parents' states z W
        rows = _guided(flat, guide, merged).reshape(count, size)
        key = z.astype(np.int64, copy=False) << shift
        if checked:
            for j, row in enumerate(rows, n + 1):
                row += key
                ident.take(row, out=row, mode="clip")
                if np.minimum.reduce(row) < 0:  # a count of 0 or past the rows
                    done = j - n - 1
                    break
                if (left := policy.apply(row, j, ctl)) is not row:
                    row[...] = left
                np.left_shift(row, shift, out=key)
        else:  # one fold a run of levels, all alike past every total
            for (j, level), end in zip(runs, [j for j, _ in runs[1:]] + [n + count + 1]):
                fold = self._folds.get(level)
                if fold is None:
                    fold = self._fold(j, level)
                for row in rows[j - n - 1:end - n - 1]:
                    row += key
                    key = fold.take(row, out=row, mode="clip")
            rows >>= shift  # a row holds the counts of its states, and -1 stays -1
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
