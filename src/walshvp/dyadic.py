"""Finite-resolution model of the dyadic (Walsh) group.

At resolution N the group is {0, ..., 2^N - 1} with XOR as the group
operation; coordinate x_i of a point is bit i of its index (LSB first).
Functions are constant on the rank-N dyadic cells.  A function of dyadic
rank r (the smallest r for which it depends only on x mod 2^r, its
samples compared by value, so that -0.0 and +0.0 are one value) is held
as its 2^r samples, its head, which the 2^N samples repeat, however it
was built: its memory and every pass over it are O(2^r), and the 2^N
samples are built only when `values` is read.  All integrals use a
deterministic pairwise-tree reduction.
"""

from __future__ import annotations

import math
from functools import partialmethod
from itertools import groupby, islice

import numpy as np

INF = math.inf

# One float64 array of 2^24 cells is 128 MiB.
MAX_RESOLUTION = 24

_HEADER_PREFIX = "N="


def check_resolution(resolution: int) -> int:
    if not isinstance(resolution, (int, np.integer)) or isinstance(resolution, bool):
        raise TypeError(f"resolution must be an integer, got {resolution!r}")
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [1, {MAX_RESOLUTION}], got {resolution}")
    return int(resolution)


def _check_point(index: int, resolution: int) -> int:
    if not 0 <= index < (1 << resolution):
        raise ValueError(
            f"point index {index} out of range for resolution {resolution}"
        )
    return int(index)


class _Samples:
    """The immutable scaffold of SampledFunction and Spectrum: a resolution
    N and a read-only head of 2^k <= 2^N float64 entries, from which the
    subclass's _extend builds all 2^N.  The public constructor reads the
    2^N entries it is given in place and copies only the prefix the
    subclass's _take picks from them; the library's own builders hand a
    fresh head over to _own, which keeps it without a copy.  Either way
    the subclass's _hold decides what is kept."""

    __slots__ = ("resolution", "_head")
    _dtype = np.float64

    def __init__(self, resolution: int, values, *rest) -> None:
        resolution = check_resolution(resolution)
        given = np.asarray(values, dtype=self._dtype)
        if given.shape != (1 << resolution,):
            raise ValueError(
                f"expected {1 << resolution} {self._field} for resolution "
                f"{resolution}, got shape {given.shape}"
            )
        self._take(resolution, given, *rest)

    def _take(self, resolution: int, given: np.ndarray, *rest) -> None:
        # Hold a copy of the caller's 2^N entries, all of them.
        self._hold(resolution, given.copy(), *rest)

    @classmethod
    def _own(cls, resolution: int, head: np.ndarray, *rest):
        # An instance on `head`, an array of 2^k <= 2^N entries that nothing
        # else refers to, without a copy; `rest` goes on to _hold.
        self = object.__new__(cls)
        self._hold(resolution, head, *rest)
        return self

    def _hold(self, resolution: int, head: np.ndarray) -> None:
        head.setflags(write=False)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "_head", head)

    def _full(self, head: np.ndarray) -> np.ndarray:
        # All 2^N entries of a head of self, read-only: head or a new array.
        if head.size == self.size:
            return head
        full = self._extend(head, self.size)
        full.setflags(write=False)
        return full

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def size(self) -> int:
        return 1 << self.resolution

    def __repr__(self):
        return f"{type(self).__name__}(N={self.resolution}, size={self.size})"


def _periods(head: np.ndarray, size: int) -> np.ndarray:
    # head repeated to `size` entries, a multiple of its length: head, or a
    # new array (a broadcast of one entry is a stride-0 view, no buffer).
    if head.size == size:
        return head
    return np.tile(head, size // head.size)


class SampledFunction(_Samples):
    """Real-valued function on the group, constant on rank-N cells.

    values[j] is the value on the cell of the point with index j.  A
    function of dyadic rank r is held at its rank: its head is its 2^r
    samples, one period that values repeats, whatever period it was built
    from.  values is read-only and, for a head shorter than 2^N, built anew
    on each read: the samples the function was built from up to the sign
    of a zero, since the first period stands for each copy equal to it by
    value.  Instances are immutable and operations return new objects.
    What depends only on the function (its spectrum, its moduli for each
    p, its coset oscillations) is computed once and kept in the private
    slots.
    """

    __slots__ = ("_spectrum", "_moduli", "_oscillations")
    _field = "values"
    _extend = staticmethod(_periods)

    def _take(self, resolution: int, given: np.ndarray) -> None:
        # One period, found on the caller's samples: _hold would cut the
        # rest, so the public constructor does not copy it, and the period
        # is handed on, so _hold does not look for it again.
        period = 1 << _dyadic_rank(given)
        self._hold(resolution, given[:period].copy(), period)

    def _hold(self, resolution: int, head: np.ndarray, period=None) -> None:
        # A period of 2^k samples is cut to the 2^r of the rank, by a copy,
        # so that no longer buffer stays referenced; the samples are finite
        # when those 2^r are.  `period` is 2^r where the caller knows it.
        if period is None:
            period = 1 << _dyadic_rank(head)
        if period < head.size:
            head = head[:period].copy()
        if not np.all(np.isfinite(head)):
            raise ValueError("samples must be finite")
        super()._hold(resolution, head)
        object.__setattr__(self, "_spectrum", None)
        object.__setattr__(self, "_moduli", {})
        object.__setattr__(self, "_oscillations", None)

    @property
    def values(self) -> np.ndarray:
        return self._full(self._head)

    def _check_same(self, other: "SampledFunction") -> None:
        if self.resolution != other.resolution:
            raise ValueError(
                f"resolution mismatch: {self.resolution} vs {other.resolution}"
            )

    def _combine(self, other, op):
        # op of the samples and other's samples, or the scalar other, on
        # the longer head: the ops of the periods are a period of the op.
        if isinstance(other, SampledFunction):
            self._check_same(other)
            size = max(self._head.size, other._head.size)
            head = op(_periods(self._head, size), _periods(other._head, size))
        else:
            head = op(self._head, float(other))
        return SampledFunction._own(self.resolution, head)

    __add__ = __radd__ = partialmethod(_combine, op=np.add)
    __sub__ = partialmethod(_combine, op=np.subtract)
    __mul__ = __rmul__ = partialmethod(_combine, op=np.multiply)

    def __neg__(self):
        return SampledFunction._own(self.resolution, -self._head)


def abs_values(resolution: int) -> np.ndarray:
    """|x| for every point index at once.

    Built by doubling in one array: the indices in [2^i, 2^(i+1)) are
    those below 2^i plus 2^i, and gain 2^-(i+1).  Every value is an exact
    dyadic rational.
    """
    check_resolution(resolution)
    total = np.zeros(1 << resolution)
    for i in range(resolution):
        half = 1 << i
        np.add(total[:half], 2.0 ** -(i + 1), out=total[half : 2 * half])
    return total


def _pairwise_total(values: np.ndarray):
    """The one summation tree of every sum: adjacent pairs added level by
    level along the last axis, a power of 2 long.  A float for a 1-D
    array, else the row sums, which are the first levels of their total's.

    The tree is the order that sets the bits: entries 2i and 2i + 1 are
    added first, then those sums pairwise, up to the root, one numpy add
    of whole levels at a time.  No numpy reduction runs, so neither
    numpy's own blocking nor the host changes it."""
    a = np.asarray(values, dtype=np.float64)
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
    return float(a[0]) if a.ndim == 1 else a[..., 0]


def _check_exponent(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"L_p exponent must be >= 1 or inf, got {p}")
    return p


# Largest |p log2(top)| + N at which top^p, and the sum of 2^N terms no
# larger, stay far inside the normal float range (2^-1022 .. 2^1024).
_UNSCALED_EXPONENT = 960


def _power_scale(top: float, p: float, resolution: int) -> float:
    """What to divide magnitudes up to `top` by before raising them to p.

    1.0 while no power can over- or underflow, so the sum is the unscaled
    one bit for bit; otherwise `top` itself, which makes the largest term 1
    at any p.
    """
    if abs(p * math.log2(top)) + resolution <= _UNSCALED_EXPONENT:
        return 1.0
    return top


def _lp_of_values(values: np.ndarray, p: float, resolution: int, top=None, period=None) -> float:
    # The L_p norm at resolution N of the function that repeats `values`,
    # 2^k <= 2^N of them, less `period` (2^j <= 2^k entries) tiled over
    # them if one is given.  The tree at N reaches 2^(N-k) equal sums of
    # one period and then only doubles them exactly, so the sum over
    # `values` times 2^-k is the one over 2^N cells times 2^-N bit for
    # bit; the scale is the one of N.  `top` bounds the magnitudes and sets
    # the scale; callers comparing several arrays pass one shared bound.
    # Without it, the first pass finds it and sums the unscaled powers,
    # whose overflow is then not read: a second pass runs only where the
    # scale is not 1.
    sums = None
    if top is None:
        with np.errstate(over="ignore"):
            top, sums = _block_powers(values, p, 1.0, period)
    if p == INF or not 0.0 < top < INF:
        return top
    scale = _power_scale(top, p, resolution)
    if sums is None or scale != 1.0:
        _, sums = _block_powers(values, p, scale, period)
    total = _pairwise_total(sums) / values.size
    return scale * total ** (1.0 / p)


def _scaled_powers(work: np.ndarray, p: float, scale: float) -> None:
    # (work / scale) ** p in place: the one power step of every finite-p sum.
    if scale != 1.0:
        work /= scale
    if p != 1.0:
        work **= p


def _block_powers(values: np.ndarray, p: float, scale: float, period) -> tuple:
    # (largest |values - period|, each block's sum of (|values - period| /
    # scale)^p, unset for p = inf) over blocks of _rows_per_block periods,
    # read through one work array.  Each block's tree is a node of the tree
    # of all the powers, so _pairwise_total of the sums is its root.  The
    # period is tiled to a block once, so that no subtraction runs over a
    # short inner axis; x - 0.0 is x.
    width = 1 if period is None else period.size
    work = np.empty(min(values.size, width * _rows_per_block(width)))
    tiled = 0.0 if period is None else _periods(period, work.size)
    top, sums = 0.0, np.empty(values.size // work.size)
    for i, block in enumerate(values.reshape(-1, work.size)):
        np.abs(np.subtract(block, tiled, out=work), out=work)
        top = max(top, float(np.max(work)))
        if p != INF:
            _scaled_powers(work, p, scale)
            sums[i] = _pairwise_total(work)
    return top, sums


def lp_norm(f: SampledFunction, p) -> float:
    """L_p norm; p may be any real >= 1 or math.inf (sup norm).

    When a p-th power could over- or underflow, the magnitudes are first
    divided by the largest of them, so a large p stays accurate.  The sum
    runs over the head of f, its 2^r samples at its rank r, in blocks of at
    most _BLOCK_CELLS of them: one route with the approx errors, which
    subtract the mean's period from the same head.
    """
    return _lp_of_values(f._head, _check_exponent(p), f.resolution)


def translate(f: SampledFunction, t: int) -> SampledFunction:
    """f(. + t); a permutation of the samples since + is XOR.  A period
    2^k of f is one of f(. + t), and the low k bits of t permute it."""
    _check_point(t, f.resolution)
    if t == 0:
        return f
    head = f._head
    idx = np.arange(head.size, dtype=np.int64)
    return SampledFunction._own(f.resolution, head[idx ^ (t & (head.size - 1))])


def interval_indicator(n: int, resolution: int) -> SampledFunction:
    """Indicator of the dyadic interval I_n (first n coordinates zero)."""
    check_resolution(resolution)
    if not 0 <= n <= resolution:
        raise ValueError(f"interval rank {n} out of range [0, {resolution}]")
    head = np.zeros(1 << n)  # one period: I_n holds the multiples of 2^n
    head[0] = 1.0
    return SampledFunction._own(resolution, head)


def _l2_table(f: SampledFunction, n0: int) -> tuple:
    # ||f(.+t) - f||_2^2 = 2 (sum_m fhat(m)^2 - sum_m fhat(m)^2 w_m(t)), so
    # one unnormalized transform of the squared spectrum gives the distance
    # for every t at once.  The term m = 0 has w_0 = 1 at every t, so it
    # cancels exactly and is left out: a large mean would only round the
    # difference away.  fhat vanishes from 2^r on, so the transform runs
    # at rank r, and only t = 0 mod 2^n0 is needed, where w_m(t) reads only
    # the bits of m from n0 on: the squares are first summed over the low
    # n0 bits of m, as rows of 2^n0.  Those row sums are the first n0
    # levels of the tree of the total, and both follow the butterfly's
    # adjacent-pair order, so each entry is the full-size value bit for
    # bit, and a table built at n0 holds at the multiples of 2^(n-n0) the
    # bits of the table built at n; the total is entry 0 of the butterfly.
    # Every |fhat(m)| <= max |f|, so the coefficients are divided by the
    # scale of that bound before squaring: blocks of _rows_per_block(1)
    # cells of the kept spectrum, whole rows or parts of one row, are
    # copied to one work array and squared there by _scaled_powers, so no
    # 2^r copy is made; the sums of a row's parts are nodes of its tree.
    # Returns (scale, sums), sums[k] the distance at t = k 2^n0 over
    # scale^2, for n0 < r, so f is not constant.
    from .walsh_system import _butterfly, fwht_forward

    cells = f._head
    top = max(-float(np.min(cells)), float(np.max(cells)))
    scale = _power_scale(top, 2.0, f.resolution)
    work = np.empty(min(cells.size, _rows_per_block(1)))
    part = min(1 << n0, work.size)
    parts = np.empty((cells.size // work.size, work.size // part))
    for i, block in enumerate(fwht_forward(f)._prefix(cells.size).reshape(-1, work.size)):
        np.copyto(work, block)
        _scaled_powers(work, 2.0, scale)
        if i == 0:
            work[0] = 0.0
        parts[i] = _pairwise_total(work.reshape(-1, part))
    sums = _butterfly(_pairwise_total(parts.reshape(cells.size >> n0, -1)))
    np.subtract(float(sums[0]), sums, out=sums)
    sums *= 2.0
    return scale, sums


def _coset_oscillation(values: np.ndarray, n: int) -> float:
    # Column r of the (2^(N-n), 2^n) table is the coset {y : y mod 2^n = r},
    # the orbit of a point under I_n.  Rounding is monotone, so the largest
    # rounded difference in a coset is the rounded max - min; past the float
    # range that is inf, which needs no warning.  Samples of period 2^n or
    # less are constant on each coset.
    if values.size <= 1 << n:
        return 0.0
    cosets = values.reshape(-1, 1 << n)
    with np.errstate(over="ignore"):
        return float(np.max(cosets.max(axis=0) - cosets.min(axis=0)))


def _oscillation(f: "SampledFunction", n: int) -> float:
    # omega_inf(f, 2^-n): _coset_oscillation of f's 2^r samples, n < r.  f
    # keeps it for every level j from the lowest n asked so far up to
    # r - 1, built in one pass: coset c of I_j is cosets c and c + 2^j of
    # I_(j+1), so the coset max and min at j are the np.maximum and
    # np.minimum of the halves of those at j + 1, from the samples down.
    # Level j sits at [2^j - 2^n, 2^(j+1) - 2^n) of hi and lo, so one
    # subtraction and one segmented max give every level.  Max and min are
    # exact, so each level is the per-n route's rounded max - min.
    levels = _rank_of(f) - n
    kept = f._oscillations
    if kept is None or kept.size < levels:
        low = 1 << n
        hi, lo = np.empty(f._head.size - low), np.empty(f._head.size - low)
        above_hi = above_lo = f._head
        for j in (low << k for k in reversed(range(levels))):
            level = slice(j - low, 2 * j - low)
            np.maximum(above_hi[:j], above_hi[j:], out=hi[level])
            np.minimum(above_lo[:j], above_lo[j:], out=lo[level])
            above_hi, above_lo = hi[level], lo[level]
        with np.errstate(over="ignore"):
            hi -= lo
        kept = np.maximum.reduceat(hi, [(low << k) - low for k in range(levels)])
        object.__setattr__(f, "_oscillations", kept)
    return float(kept[kept.size - levels])


def _dyadic_rank(values: np.ndarray) -> int:
    # The smallest r for which the samples have period 2^r, so that f
    # depends only on x mod 2^r.  Period 2^r implies period 2^(r+1), so
    # halving from the top finds it.  Halves are compared by value, so
    # -0.0 and +0.0 are one sample, and a NaN matches nothing.
    while values.size > 1:
        half = values.size // 2
        if not np.array_equal(values[:half], values[half:]):
            break
        values = values[:half]
    return values.size.bit_length() - 1


def _rank_of(f: SampledFunction) -> int:
    # f's dyadic rank r: f is held as its 2^r samples.
    return f._head.size.bit_length() - 1


# Cells per block of rows in an array pass (512 KiB of float64 or int64),
# such as the translates of the finite-p modulus or the periods of an L^p
# norm; read by _rows_per_block.
_BLOCK_CELLS = 1 << 16


def _rows_per_block(cells: int) -> int:
    return max(1, _BLOCK_CELLS // cells)


def _batches(items, key):
    """The batch driver of the three batched lemma checks: consecutive
    runs of items that share key(item) = (group, cells), each at most
    _rows_per_block(cells) long, yielded once full or once the item that
    changes the key has been drawn."""
    for (_, cells), run in groupby(items, key):
        while batch := list(islice(run, _rows_per_block(cells))):
            yield batch


def _translate_sums(values: np.ndarray, n: int, p: float, scale: float) -> np.ndarray:
    # Entry k is the pairwise-tree sum over x of |f(x + k 2^n) - f(x)|^p,
    # the magnitudes divided by `scale`, for every translate k 2^n in I_n.
    # A translate's sum does not depend on n; n only picks the translates.
    # Translating by k 2^n sends row r of the coset table to row r ^ k.  A
    # block of translates is gathered, differenced and powered in work
    # arrays allocated once, one translate per row, and _pairwise_total
    # sums the rows.
    table = values.reshape(-1, 1 << n)
    rows = table.shape[0]
    block = min(rows, _rows_per_block(values.size))
    shifts = np.arange(rows)
    picks = np.empty((block, rows), dtype=np.intp)
    work = np.empty((block, values.size))
    sums = np.empty(rows)
    for first in range(0, rows, block):
        k = shifts[first : first + block]
        w, pick = work[: k.size], picks[: k.size]
        cells = w.reshape(k.size, rows, -1)
        np.bitwise_xor(k[:, None], shifts, out=pick)
        np.take(table, pick, axis=0, out=cells, mode="clip")
        np.subtract(cells, table, out=cells)
        np.abs(w, out=w)
        _scaled_powers(w, p, scale)
        sums[first : first + k.size] = _pairwise_total(w)
    return sums


# Translates per coset from which the p = 1 table is built by the sign
# split.  The split is the faster route from about 2^8 translates on
# (abs_power:0.5, best of 7 on a 2-vCPU Xeon, with the pair-stage
# butterfly: 2^10 translates at n = 0 at N = 10 took 4.1 ms blocked and
# 0.8 ms split, 2^8 at n = 2 took 0.54 and 0.44 ms, 2^7 at n = 3 took 0.30
# and 0.36 ms), but it matches the loop only to rounding.  From 2^11 on,
# every table at N <= 10 keeps the blocked route and its bits,
# verify-lemmas at N <= 10 included.
_SPLIT_MIN_TRANSLATES = 1 << 11

# Smallest share of a sign-split table's largest sum that the largest sum
# at t = 0 mod 2^n may have for the table to serve n.  Each entry is off by
# about 1e-15 of the largest sum, so a served modulus stays within about
# 1e-12 of its value, relative; a smaller stride is built again at n.
_SPLIT_MIN_SHARE = 2.0**-10


# Pair differences per np.bincount chunk of the sign split's in-bucket
# sums (512 KiB of float64).  The chunks fix the order in which the sums
# are added, and so their last bits, so their size is the route's own and
# not the batch budget's.
_SPLIT_CHUNK_CELLS = 1 << 16


def _sign_split_sums(values: np.ndarray, n: int, scale: float) -> np.ndarray:
    """The p = 1 table of _translate_sums, to rounding, in about
    2^n m^1.5 sqrt(log m) operations for m = 2^-n values.size translates.
    Each coset of I_n (a column of the coset table) is sorted and cut into
    B buckets of equal size by rank.  For x in a higher bucket than y,
    |f(x) - f(y)| = f(x) - f(y), so the sum over such pairs with
    x ^ y = t is a difference of two dyadic correlations, the products
    of Walsh transforms: sum_j (f 1_j) * 1_{<j} - 1_j * (f 1_{<j}), with
    the transforms of 1_{<j} and f 1_{<j} kept as running sums.  Pairs
    inside one bucket are summed directly.  Each pair is counted once,
    and the table counts both orders.  Shifting a coset by its smallest
    value changes no difference and keeps the transforms, and so their
    rounding, at the size of the differences rather than of the values.

    The orders that set its bits: each coset adds its buckets' cross
    terms bucket after bucket, and the cosets are then added one after
    another (a sum over the first axis of a C-contiguous array, which
    numpy runs row by row) before one butterfly.  The in-bucket pairs go
    level by level, and within a level in np.bincount chunks of about
    _SPLIT_CHUNK_CELLS differences, a group of runs by a slice of rows,
    the slices varying fastest: each chunk adds its differences to their
    bins in the order of its flat input, and the chunk sums are added to
    the table in chunk order."""
    from .walsh_system import _butterfly

    m = values.size >> n
    cosets = (values if scale == 1.0 else values / scale).reshape(m, -1).T
    order = np.argsort(cosets, axis=1, kind="stable")
    ranked = np.take_along_axis(cosets, order, axis=1)
    ranked -= ranked[:, :1].copy()
    buckets = 1 << round(math.log2(m / max(1.0, math.log2(m))) / 2)
    size = m // buckets
    columns = np.arange(ranked.shape[0])[:, None]
    pair = np.empty((2,) + ranked.shape)  # f 1_j and 1_j, then transformed
    below = np.zeros_like(pair)  # the same over the buckets below j
    cross = np.zeros(ranked.shape)
    for j in range(0, m, size):
        pair.fill(0.0)
        members = order[:, j : j + size]
        pair[0][columns, members] = ranked[:, j : j + size]
        pair[1][columns, members] = 1.0
        _butterfly(pair.reshape(-1, m))
        cross += pair[0] * below[1]
        cross -= pair[1] * below[0]
        below += pair
    sums = _butterfly(cross.sum(axis=0)) / m
    # Within a bucket, split each run of 2h ranks in halves: every pair
    # across the halves is counted once, at the next level inside them.
    h = size // 2
    while h:
        lo, hi = ranked.reshape(-1, 2, h).transpose(1, 0, 2)
        lo_at, hi_at = order.reshape(-1, 2, h).transpose(1, 0, 2)
        runs = max(1, _SPLIT_CHUNK_CELLS // (h * h))
        step = min(h, max(1, _SPLIT_CHUNK_CELLS // h))
        for first in range(0, lo.shape[0], runs):
            part = slice(first, first + runs)
            for low in range(0, h, step):
                rows = slice(low, low + step)
                diffs = hi[part, None, :] - lo[part, rows, None]
                shifts = hi_at[part, None, :] ^ lo_at[part, rows, None]
                sums += np.bincount(shifts.reshape(-1), diffs.reshape(-1), m)
        h //= 2
    sums *= 2.0
    return sums


def _takes_sign_split(p: float, translates: int) -> bool:
    return p == 1.0 and translates >= _SPLIT_MIN_TRANSLATES


def _modulus_table(f: SampledFunction, n: int, p: float, scale) -> tuple:
    # The table of sums over t = 0 mod 2^n0 that serves omega_p(f, 2^-n),
    # as (n0, scale, sums): the one kept on f for p if it serves n, else
    # one built at n0 = n that takes its place, for n below the rank r of
    # f.  A table serves every n >= n0 at its own scale; `scale` is None for
    # p = 2, whose scale depends only on f.  A sign-split table is exact
    # only to rounding of its largest sum, so it also needs the largest sum
    # over t = 0 mod 2^n to be at least _SPLIT_MIN_SHARE of it.  f is run
    # at resolution r on the 2^r samples it is held as: its
    # |differences|^p are 2^r-periodic, so the tree at resolution N reaches
    # 2^(N-r) equal partial sums and the rest of it only doubles them
    # exactly, sum_N 2^-N == sum_r 2^-r.  The scale stays the one of N.
    entry = f._moduli.get(p)
    if entry is not None and entry[0] <= n and (scale is None or scale == entry[1]):
        n0, _, sums = entry
        if not _takes_sign_split(p, sums.size):
            return entry
        if np.max(sums[:: 1 << (n - n0)]) >= _SPLIT_MIN_SHARE * np.max(sums):
            return entry
    values = f._head
    if p == 2.0:
        scale, sums = _l2_table(f, n)
    elif _takes_sign_split(p, values.size >> n):
        sums = _sign_split_sums(values, n, scale)
    else:
        sums = _translate_sums(values, n, p, scale)
    entry = f._moduli[p] = (n, scale, sums)
    return entry


def _modulus_by_translates(f: SampledFunction, n: int, p: float) -> float:
    # The oracle: one translate at a time.  A finite p divides by the scale
    # the blocked route uses, which the p = inf loop here checks.
    values = f.values
    top = None if p == INF else _coset_oscillation(values, n)
    idx = np.arange(f.size, dtype=np.int64)
    best = 0.0
    for t in range(0, f.size, 1 << n):
        diff = values[idx ^ t] - values
        best = max(best, _lp_of_values(diff, p, f.resolution, top))
    return best


def modulus_of_continuity(
    f: SampledFunction, n: int, p, brute_force: bool = False
) -> float:
    """omega_p(f, 2^-n): sup over |t| < 2^-n of ||f(.+t) - f||_p.

    At finite resolution the ball {|t| < 2^-n} is exactly the interval
    I_n, i.e. the indices divisible by 2^n, so the supremum is a finite
    maximum.  brute_force=True runs the loop over translates, the oracle.
    From the dyadic rank r of f on, every translate fixes f: 0.0 is
    returned before any oscillation, scale or table.  For n < r, four
    routes take every translate at once on the 2^r samples f is held as:
    p = inf is the largest oscillation of f over the cosets of I_n, which
    the translates permute, kept on f for every n from the lowest asked so
    far, since it also scales every other p != 2; a finite p is read from
    a table of one sum per translate in I_n0, built by a spectral identity
    for p = 2, by a sign split for p = 1 with at least 2^11 translates per
    coset, and in blocks of translates for any other p, each raised to p
    by _scaled_powers but the split, which copies f for a scale other than
    1.  The coset and blocked routes match the loop bit for bit, the
    spectral and sign-split routes to rounding.  Each function keeps one
    table per p, for the smallest n0 asked so far, and serves every n >=
    n0 from it by stride: a sweep over n costs one table.  A sign-split
    table serves n only while the largest sum at n is at least 2^-10 of
    its own, which keeps the modulus within about 1e-12 relative; below
    that it is built again.
    """
    p = _check_exponent(p)
    if not 0 <= n <= f.resolution:
        raise ValueError(f"modulus rank {n} out of range [0, {f.resolution}]")
    if brute_force:
        return _modulus_by_translates(f, n, p)
    if n >= _rank_of(f):  # every translate in I_n fixes f
        return 0.0
    scale = None
    if p != 2.0:
        top = _oscillation(f, n)
        if p == INF or top == INF:
            return top
        scale = _power_scale(top, p, f.resolution)
    n0, scale, sums = _modulus_table(f, n, p, scale)
    # The root is monotone, so the largest sum gives the largest norm.
    best = max(float(np.max(sums[:: 1 << (n - n0)])), 0.0)
    if p == 2.0:  # squared norms; x ** 0.5 does not always round as sqrt(x)
        return scale * math.sqrt(best)
    return scale * (best * 2.0**-_rank_of(f)) ** (1.0 / p)


def write_function(f: SampledFunction, stream) -> None:
    """Plain-text exchange form: `N=<int>` then one sample per line."""
    stream.write(f"{_HEADER_PREFIX}{f.resolution}\n")
    for v in f.values:
        stream.write(format(v, ".17g") + "\n")


def _read_samples(stream, noun: str):
    """The `N=<int>` line and the 2^N rows after it, one finite number
    each, for read_function and read_spectrum.  A bad row is named by
    its index; any non-blank row after the last is an error."""
    line = stream.readline().strip()
    if not line.startswith(_HEADER_PREFIX):
        raise ValueError(f"expected '{_HEADER_PREFIX}<int>' line, got {line!r}")
    resolution = check_resolution(int(line[len(_HEADER_PREFIX):]))
    count = 1 << resolution
    values = []
    for i in range(count):
        row = stream.readline()
        if not row:
            raise ValueError(f"expected {count} {noun}s, got {i}")
        try:
            value = float(row)
        except ValueError:
            raise ValueError(f"{noun} {i} is not a number: {row.strip()!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{noun} {i} is not finite: {value}")
        values.append(value)
    for row in stream:
        if row.strip():
            raise ValueError(f"expected {count} {noun}s, got more: {row.strip()!r}")
    return resolution, values


def read_function(stream) -> SampledFunction:
    return SampledFunction(*_read_samples(stream, "sample"))
