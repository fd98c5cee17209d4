"""Walsh-Paley system and the fast Walsh-Hadamard transform.

The LSB-first bit map makes w_n(x) = (-1)^popcount(n AND j) for point
index j, and the natural-order butterfly then produces coefficients in
Paley order directly.  The forward transform carries the 2^-N Haar
normalization; the inverse is unnormalized.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .dyadic import SampledFunction, _read_samples, _Samples, check_resolution

_SPECTRUM_HEADER = "SPECTRUM"


def _zero_padded(head: np.ndarray, size: int) -> np.ndarray:
    # head followed by +0.0 up to `size` entries.
    full = np.zeros(size)
    full[: head.size] = head
    return full


class Spectrum(_Samples):
    """Walsh-Fourier coefficients in Paley order; coeffs[n] = fhat(n).

    Held as its head, a prefix of 2^k coefficients, with +0.0 from 2^k
    on; coeffs is read-only and, for a head shorter than 2^N, built anew
    on each read."""

    __slots__ = ()
    _field = "coeffs"
    _extend = staticmethod(_zero_padded)

    @property
    def coeffs(self) -> np.ndarray:
        return self._full(self._head)

    def _prefix(self, size: int) -> np.ndarray:
        # The first `size` coefficients: a view of the head, or a new array
        # when the head is shorter.
        head = self._head
        return head[:size] if size <= head.size else _zero_padded(head, size)


def bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of popcount, vectorized by xor-folding (indices < 2^63)."""
    v = np.array(values, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def walsh_signs(n: int, resolution: int) -> np.ndarray:
    """w_n as a +-1 int64 vector."""
    check_resolution(resolution)
    if not 0 <= n < (1 << resolution):
        raise ValueError(
            f"Walsh index {n} not representable at resolution {resolution}"
        )
    return 1 - 2 * bit_parity(n & np.arange(1 << resolution, dtype=np.int64))


def walsh(n: int, resolution: int) -> SampledFunction:
    """Walsh-Paley function w_n, the product of Rademacher functions
    selected by the binary digits of n."""
    return SampledFunction._own(resolution, walsh_signs(n, resolution).astype(np.float64))


# Rows longer than _CHUNK_SIZE = 2^16 entries (512 KiB of float64, a
# quarter of a 2 MiB L2 cache) are transformed in chunks of that size, each
# of which stays in cache while it is worked on (layer timings in
# BENCH_23.json); shorter rows run in blocks of at most that many entries.
_CHUNK_SIZE = 1 << 16


def _pair_stages(x: np.ndarray, buffers, count: int) -> np.ndarray:
    """count constant-geometry butterfly stages (Pease, 1968) along the
    leading axis of x, whose rows are contiguous; returns the buffer that
    holds the result.  Each stage writes the sums of the adjacent pairs
    x[2k], x[2k + 1] to the first half of buffers[0] and buffers[1] in
    turn, and their differences to the second half; x itself may be a
    buffer from the second stage on.  On a flat x the pairs are entries,
    on a (rows, width) block whole rows of width entries."""
    half = len(x) // 2
    for stage in range(count):
        y = buffers[stage & 1]
        even, odd = x[0::2], x[1::2]
        np.add(even, odd, out=y[:half])
        np.subtract(even, odd, out=y[half:])
        x = y
    return x


# The CPUs this process may run on, the most shares the chunked butterfly
# below splits its pieces into; every CPU where there is no affinity mask.
if hasattr(os, "sched_getaffinity"):
    _CPUS = len(os.sched_getaffinity(0))
else:
    _CPUS = os.cpu_count() or 1

_pool = None
_pool_lock = threading.Lock()


def _executor():
    # The process-wide pool, created at the first split, never at import
    # (nor is concurrent.futures, whose import takes about 7 ms and pulls in
    # logging); _CPUS - 1 threads at most, the calling thread being the
    # other.  Its threads start as tasks arrive and exit with the
    # interpreter.
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="walshvp-butterfly")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of its parent's threads, so the pool it
    # inherits would never run a task: the child makes its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_shares(task, pieces: int, buffers: np.ndarray) -> None:
    """task(part, buffers[s]) for each share s of range(pieces), cut into
    len(buffers) contiguous parts as even as can be: share 0 on the
    calling thread, the others on the pool.  Each runs in a copy of the
    caller's context, which holds numpy's errstate, so an overflow warns,
    raises or passes as it would serially.  Every task has returned before
    this does, and then the first exception, in share order, is raised."""
    shares = len(buffers)
    cuts = [s * pieces // shares for s in range(shares + 1)]
    futures = [
        _executor().submit(
            contextvars.copy_context().run, task, range(cuts[s], cuts[s + 1]), buffers[s]
        )
        for s in range(1, shares)
    ]
    try:
        task(range(cuts[0], cuts[1]), buffers[0])
    finally:
        for future in futures:
            future.exception()  # returns once the task has, raised or not
    for future in futures:
        future.result()


def _butterfly(a: np.ndarray) -> np.ndarray:
    """The Hadamard butterfly in place along the last axis of a contiguous
    array whose last axis is a power of two long; returns a.  Each stage
    pairs entries less than a row apart, so the rows of a 2-D array are
    transformed as a batch, each as it would be on its own.

    Every stage is a _pair_stages stage along the leading axis of a block.
    Rows of m <= 2^16 entries run in blocks of R whole rows, R m <=
    _CHUNK_SIZE, on the calling thread, so each pass over a block stays in
    cache.  A stage on the flat block moves bit 0 of every flat index to
    the top, so stage s pairs the entries 2^s apart in a row: log2(m)
    stages leave the block's (m, R) transpose, and one copy puts it back.
    A row of 2^16 R entries, R > 1, is cache-blocked by
    H = (H_R (x) I)(I (x) H_(2^16)): the 16 low stages run on each flat
    2^16 chunk in cache, the chunk being the second buffer, so the 16th
    stage leaves it in place; then the log2(R) high stages run on the
    column blocks of the (R, 2^16) view, (R, 2^16 / R) each, pairing
    adjacent rows, which are contiguous runs.  The first reads the
    column block where it lies, and one copy puts the last buffer back.

    Each stage adds and subtracts the same two operands as the in-place
    stage of its span, lowest span first, and a copy only moves values,
    so the result is the in-place butterfly's bit for bit.  A pair stage
    reads with stride 2 but is one pass of two ufuncs, where the in-place
    stages of spans under 2^8 ran on runs of 1 to 64 entries: a 2^12 row
    took 0.11 -> 0.05 ms, a (4, 2048) batch 0.17 -> 0.07 ms and a
    (32, 2^16) batch 60 -> 21 ms (BENCH_41.json).

    From R = 32 on a block row holds 2048 entries or fewer, where numpy's
    ufuncs ran slower at their default buffer of 8192 entries (an add
    over a (32, 2048) block: 40 us, 24 us with the buffer at the width),
    so the high stages set the buffer size to the width; the bits do not
    depend on it.  Against the fused radix-4 passes on copies of the
    column blocks that this replaced (Fino & Algazi, 1976), a float64 row
    of 2^20..2^24 entries took 0.82-0.88x as long in one thread, and
    1.09-1.19x from 2^21 on at the default buffer (BENCH_44.json).

    The chunks, and then the column blocks, are independent pieces: they
    run in min(_CPUS, pieces) shares at once (_in_shares), one for Python
    ints, each with its own two buffers, with every chunk done before any
    column block starts.  Every piece runs the same additions in the same
    order whatever the share it falls in, so the bits do not depend on
    the thread count.
    """
    n = a.shape[-1]
    if n <= _CHUNK_SIZE:
        rows = a.reshape(-1, n)
        block = _CHUNK_SIZE // n
        buffers = np.empty((2, min(a.size, block * n)), a.dtype)
        for first in range(0, len(rows), block):
            part = rows[first : first + block]
            turned = _pair_stages(part.reshape(-1), buffers[:, : part.size], n.bit_length() - 1)
            np.copyto(part, turned.reshape(n, -1).T)
        return a
    chunks = a.reshape(-1, _CHUNK_SIZE)
    pieces = len(chunks)
    rows = n // _CHUNK_SIZE
    width = _CHUNK_SIZE // rows  # rows <= 2^8 under the resolution cap
    # Column block k is columns[k // rows, :, k % rows], (rows, width).
    columns = a.reshape(-1, rows, rows, width)
    # An addition of Python ints holds the GIL, so a second share would only
    # wait for it: object rows of 2^18 took 20% longer in two shares.
    shares = 1 if a.dtype == object else min(_CPUS, pieces)
    buffers = np.empty((shares, 2, _CHUNK_SIZE), a.dtype)

    def low_stages(part, buffer):
        for chunk in chunks[part.start : part.stop]:
            _pair_stages(chunk, (buffer[0], chunk), _CHUNK_SIZE.bit_length() - 1)

    def high_stages(part, buffer):
        blocks = buffer.reshape(2, rows, width)
        with np.errstate():  # restores numpy's ufunc buffer size on exit
            np.setbufsize(max(width, 16))  # a multiple of 16, as numpy asks
            for k in part:
                column = columns[k // rows, :, k % rows]
                np.copyto(column, _pair_stages(column, blocks, rows.bit_length() - 1))

    _in_shares(low_stages, pieces, buffers)
    _in_shares(high_stages, pieces, buffers)
    return a


def hadamard_transform(values) -> np.ndarray:
    """Unnormalized Hadamard butterfly, y[n] = sum_j (-1)^popcount(n&j) x[j].

    An int64 or object (Python int) array stays integer, so a known
    integer spectrum synthesizes exact values; the caller picks object
    when sum_j |x[j]| may pass the int64 range.  Anything else is
    computed in float64.  Self-inverse up to the factor 2^N; O(N 2^N)
    operations.  The input is copied, never written.
    """
    integer = isinstance(values, np.ndarray) and values.dtype in (np.int64, object)
    a = np.array(values, dtype=values.dtype if integer else np.float64)
    n = a.size
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    return _butterfly(a.reshape(n))


_FLOAT_MAX = float(np.finfo(np.float64).max)


def _keep_spectra(functions) -> None:
    """Keep on each of the functions that lacks one its spectrum.  A
    function of rank r is held as its 2^r samples and has no coefficient
    from 2^r on, so its samples are butterflied and scaled by 2^-r into the
    head of its spectrum.  The heads of one size are stacked into one
    batched butterfly, each row as it would be alone.  A row of
    2^r max|row| past the float range is scaled before the butterfly
    instead, so no sum overflows."""
    groups = {}
    for f in functions:
        if f._spectrum is None:
            groups.setdefault(f._head.size, []).append(f)
    for size, group in groups.items():
        heads = np.concatenate([f._head for f in group]).reshape(-1, size)
        scale = 2.0 ** -(size.bit_length() - 1)
        # x 2^r is finite exactly when x <= max_float 2^-r, both exact; the
        # row's max |x| is read off its max and min, with no |x| temporary.
        top = np.maximum(heads.max(axis=-1, keepdims=True), -heads.min(axis=-1, keepdims=True))
        early = top > _FLOAT_MAX * scale
        if early.any():
            # x * 1.0 is x, so each row is scaled once, before or after.
            heads *= np.where(early, scale, 1.0)
            _butterfly(heads)
            heads *= np.where(early, 1.0, scale)
        else:
            _butterfly(heads)
            heads *= scale
        for f, head in zip(group, heads):
            object.__setattr__(f, "_spectrum", Spectrum._own(f.resolution, head))


def fwht_forward(f: SampledFunction) -> Spectrum:
    """Walsh-Fourier coefficients fhat(n) = integral of f w_n d(mu).

    A function of x mod 2^r, r its dyadic rank, has no coefficient from
    2^r on, so the 2^r samples it is held as are transformed, scaled by
    2^-r, into the head of the spectrum, and the rest is +0.0: O(r 2^r).
    That is the full-size transform of values bit for bit, whose stages
    above 2^r only double the first 2^r sums exactly and set the rest to
    x - x = +0.0, as long as those doubled sums stay finite.  Where
    2^r max|f| is past the float range, the samples are scaled before the
    butterfly instead, so no sum overflows.  This is _keep_spectra of one
    function: the spectrum is computed once per function and kept on it;
    both are read-only, so every caller shares one transform.
    """
    if f._spectrum is None:
        _keep_spectra([f])
    return f._spectrum


def fwht_inverse(s: Spectrum) -> SampledFunction:
    """Synthesis sum_n coeffs[n] w_n; inverse of fwht_forward.
    The shortest power-of-two prefix past which every coefficient is zero
    is synthesized, and the 2^N samples repeat it: the full-size
    synthesis, whose stages past the prefix only tile it and add zeros,
    up to the sign of a zero.  A synthesis that passes the float range is
    a ValueError."""
    head = s._head
    size = head.size
    while size > 1 and not head[size // 2 : size].any():
        size //= 2
    with np.errstate(over="ignore", invalid="ignore"):
        values = hadamard_transform(head[:size])
    if not np.isfinite(values).all():
        raise ValueError("the synthesis of the spectrum overflows the float range")
    return SampledFunction._own(s.resolution, values)


def fourier_coefficients_naive(f: SampledFunction) -> np.ndarray:
    """O(4^N) double-loop coefficient formula; oracle for the fast path."""
    size = f.size
    idx = np.arange(size, dtype=np.int64)
    signs = 1.0 - 2.0 * bit_parity(idx[:, None] & idx[None, :])
    return signs @ f.values * 2.0**-f.resolution


def partial_sum(f: SampledFunction, n: int) -> SampledFunction:
    """S_n(f): synthesis of the coefficients below n; S_0 = 0."""
    if not 0 <= n <= f.size:
        raise ValueError(
            f"partial sum order {n} exceeds representable range [0, {f.size}]"
        )
    truncated = np.zeros(1 << max(n - 1, 0).bit_length())
    truncated[:n] = fwht_forward(f)._prefix(n)
    return fwht_inverse(Spectrum._own(f.resolution, truncated))


def write_spectrum(s: Spectrum, stream) -> None:
    """Text exchange form: `SPECTRUM`, `N=<int>`, then one coefficient
    per line in Paley order."""
    stream.write(_SPECTRUM_HEADER + "\n")
    stream.write(f"N={s.resolution}\n")
    for c in s.coeffs:
        stream.write(format(c, ".17g") + "\n")


def read_spectrum(stream) -> Spectrum:
    header = stream.readline().strip()
    if header != _SPECTRUM_HEADER:
        raise ValueError(f"expected '{_SPECTRUM_HEADER}' header, got {header!r}")
    return Spectrum(*_read_samples(stream, "spectrum coefficient"))
