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
folds once a run of its ``levels`` into a transition table over (count,
bucket of m), the buckets being the intervals between the thresholds of all
rows, so a span generation is one add and one take.
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
# a span's uniforms find their fold buckets by a guide of their top 12 bits,
# and a table's folds keep at most 1 MiB
_BUCKET_SHIFT, _FOLD_BYTES = 53 - 12, 1 << 20


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


def _guide(keys, shift=_GUIDE_SHIFT) -> np.ndarray:
    """The int32 guide of sorted keys: entry B is the index
    keys.searchsorted(k, side="right") of every k >= 0 with k >> shift = B,
    or -1 (search) where a key splits bucket B.  A k past the last bucket
    looks that one up."""
    edge = np.arange((int(keys.max(initial=0)) >> shift) + 1) << shift
    guide = keys.searchsorted(edge, side="right")
    edge += (1 << shift) - 1  # each bucket's last key
    guide[keys.searchsorted(edge, side="right") != guide] = -1
    return guide.astype(np.int32)


def _guided(row, guide, keys, at, shift=_GUIDE_SHIFT):
    """keys.searchsorted(row, side="right") for a 1-D row of keys of at least
    0, written into the int64 array ``at``: a gather from ``keys``' guide of
    ``shift``, and a search where it marks -1."""
    at[...] = guide.take(np.right_shift(row, shift, out=at), mode="clip")
    miss = np.flatnonzero(at < 0)
    if miss.size:
        at[miss] = keys.searchsorted(row[miss], side="right")
    return at


def _buckets(table):
    """The merged thresholds (the keys mod 2^53, sorted and distinct), whose
    count at or below m, m's bucket b, fixes m's index in every row; their
    guide; log2 W, W the least power of two past their number; and at [s,
    b] row s's index at merged[b - 1], 0 (the value -1) for s = 0."""
    keys, _, built = table
    merged = np.array(sorted(set((keys & ((1 << 53) - 1)).tolist())))
    shift = merged.size.bit_length()
    least = np.zeros(1 << shift, dtype=np.int64)
    least[1:merged.size + 1] = merged
    at = np.zeros((built + 1, 1 << shift), dtype=np.int32)
    at[1:] = keys.searchsorted((np.arange(1, built + 1)[:, None] << 53) + least, side="right")
    return merged, _guide(merged, _BUCKET_SHIFT), shift, at


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
    built at the first such lookup after the rows grow.  The rows grow at
    one point, the head of ``steps``, and a fold covers every built row.

    ``rows_of(z0, z1)`` gives the sorted thresholds and the values, as many,
    of the rows of counts z0 .. z1 - 1 (``_pmf_rows``).  The table holds the
    rows of counts 1 to ``rows``, and ``most`` bounds their values.
    A count of 0 or past the rows, or another bit generator, hands the whole
    call to ``numpy``, with any raw outputs drawn first stepped back.
    ``steps`` draws several generations of such counts with one
    ``random_raw`` call.  Its folds of one policy hold at most
    ``_FOLD_BYTES`` = 1 MiB, and start again past it: a binomial table's
    buckets (W <= 1024 by 33 rows) and one fold take under 300 kB each.
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
        self._guide = self._merged = None  # its guide and ``_buckets``, once a lookup needs them
        self._policy, self._folds = None, {}  # the policy folded, and {level: fold} of it

    def _grow(self, top: int):
        keys, values, built = self._table
        rows = self._rows(built + 1, top + 1)
        self._table = (np.concatenate([keys] + [(z << 53) + thresholds for z, (thresholds, _)
                                                in enumerate(rows, built + 1)]),
                       np.concatenate([values[:-1]] + [totals for _, totals in rows] + [[-1]]),
                       top)
        self._guide, self._merged, self._folds = None, None, {}

    def _fold(self, n, level):
        """The folded policy's transition table at ``level`` (of generation
        n) over every built row: s W + b holds c W, c what ``apply`` leaves
        of row s's total at bucket b, and -W (-1) for s = 0 and last, where
        take clips -1's -W + b and counts past the rows.  It joins the
        folds, which start again past ``_FOLD_BYTES``."""
        values, (*buckets, shift, at) = self._table[1], self._merged
        live, left = values >= 0, np.full(values.size, -1)
        left[live] = self._policy.apply(values[live], n)
        fold = np.append(left.take(at), -1) << shift
        spare = _FOLD_BYTES - fold.nbytes - sum(a.nbytes for a in (*buckets, at))
        if sum(f.nbytes for f in self._folds.values()) > spare:
            self._folds.clear()
        self._folds[level] = fold
        return fold

    def __call__(self, z, rng):
        if z.size and len(rows := self.steps(z, 1, rng)):
            return rows[0]
        return self._numpy(z, rng)

    def steps(self, z, count, rng, policy=ControlPolicy(), n=0, ctl=None):
        """Up to ``count`` generations n + 1, ... of table draws from the int64
        counts z on a PCG64, one ``random_raw`` for all, each as ``policy``
        leaves it: a (k, z.size) array of the counts of the k drawn.  The
        rows first grow to z and, in a span that folds, to its largest level
        within ``rows``, past every count a cap leaves.  It stops before a
        generation that the table cannot draw (a count past the rows, or a
        count of 0, so a span ends with the generation of a death), whose raw
        outputs, and those after them, go back.  A policy that draws (from
        ``ctl``), or overrides ``apply`` but not ``levels``, applies
        unfolded, once the table has drawn every count, as does a single
        generation; any other folds once for each run of its ``levels``, and
        keeps its buckets and folds until the rows grow or another policy folds."""
        bits, size, top = rng.bit_generator, z.size, int(np.maximum.reduce(z))
        if type(bits) is not np.random.PCG64 or top > self.rows:
            return z[:0, None]  # the first generation is numpy's
        # a policy folds when its levels are all its apply reads: its own, or the identity's
        kind = type(policy)
        checked = (count == 1 or policy.stream is not None
                   or kind.levels is ControlPolicy.levels and kind.apply is not ControlPolicy.apply)
        if not checked:
            runs = [(j, min(v, self.most + 1)) for j, v in policy.levels(n + 1, n + count + 1)]
            top = max(top, min(max(v for _, v in runs), self.rows))
        if self._table[2] < top:
            self._grow(top)
        done = count
        raw = bits.random_raw(count * size)
        flat = np.right_shift(raw, 11, out=raw).view(np.int64)  # numpy's next_double bits
        rows = flat.reshape(count, size)  # a row a generation
        if checked:
            keys, values, _ = self._table
            key = z.astype(np.int64, copy=False) << 53  # the parents' keys
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
            if policy is not self._policy:
                self._policy, self._folds = policy, {}
            if self._merged is None:
                self._merged = _buckets(self._table)
            folds, (merged, guide, shift, _) = self._folds, self._merged
            # each uniform's bucket, and the parents' states z W
            rows = _guided(flat, guide, merged, np.empty_like(flat), _BUCKET_SHIFT).reshape(
                count, size)
            key = z.astype(np.int64, copy=False) << shift
            for (j, level), end in zip(runs, [j for j, _ in runs[1:]] + [n + count + 1]):
                fold = folds.get(level)
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
