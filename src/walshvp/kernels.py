"""Dirichlet, Fejer, and matrix-transform de la Vallee Poussin kernels.

D_n and K_n for n <= 2^m depend only on x_0..x_(m-1), the block-n VP
kernel only on x_0..x_n, so each is held as that period of integer
numerators over one denominator (1 for D_n, n for K_n, the weights'
common one for VP kernels), built by the integer butterfly of its Walsh
coefficients or, for D, also by its recursion.  Each has one builder of
many orders or weight rows in one block of rows (_walsh_sum_rows,
_dirichlet_rec_int, _fejer_numerators, _vp_numerators with the three VP
parts), whose batches of one are the public builders, none of them in
the package's __all__; D of every order up to 2^N also has
_walsh_running_rows, its running sum over the Walsh rows, batch by
batch.  The kernel identities (the closed form of D at powers of two,
the recursive splitting of D, the three-part VP decomposition) are then
checked with zero error.  The numerators are int64, int32 in the D rows,
or Python ints for a VP kernel whose weights have large numerators
(_block_weights).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dyadic import SampledFunction, _batches, _Samples, check_resolution
from .walsh_system import _butterfly
from .weights import WeightScheme, _integers, _quotients

# VP kernel sums switch to Python ints once their bound passes this.  At
# N <= MAX_RESOLUTION every Dirichlet and Fejer sum stays below it.
_INT64_SAFE = 1 << 62


class KernelFunction(SampledFunction):
    """SampledFunction whose samples are exact rationals: integer
    numerators (int64 or Python ints) over one positive denominator.

    Held as the numerators of one period, its exact head, whose correctly
    rounded quotients are its float head; exact_numer, like values, is
    read-only and, for a head shorter than 2^N, built anew on each read.
    The public constructor copies the 2^N numerators it is given; the
    builders hand their period over to _own with its denominator.  The
    exact head stays at the period it was built on, while the float head,
    like any function's, is held at its dyadic rank.  That rank is lower
    only where distinct numerators round to one float: the numerators
    2^60 and 2^60 + 1 over 1 are a float head of one sample."""

    __slots__ = ("_exact_head", "exact_denom")
    _field = "numerators"
    _dtype = None  # int64 or Python ints, as given

    # Every numerator given is kept: the exact head is not cut to the rank.
    _take = _Samples._take

    def __init__(self, resolution, exact_numer, exact_denom=1):
        super().__init__(resolution, exact_numer, exact_denom)

    def _hold(self, resolution: int, numer: np.ndarray, denom=1) -> None:
        denom = int(denom)
        if denom < 1:
            raise ValueError("exact denominator must be positive")
        if numer.dtype == object:
            numer = _integers(numer)  # refuses a float, which int() would truncate
        elif numer.dtype.kind != "i":
            raise TypeError(f"exact numerators must be integers, got {numer.dtype}")
        numer.setflags(write=False)
        super()._hold(resolution, _quotients(numer, denom))
        object.__setattr__(self, "_exact_head", numer)
        object.__setattr__(self, "exact_denom", denom)

    @property
    def exact_numer(self) -> np.ndarray:
        return self._full(self._exact_head)


def _check_order(n: int, resolution: int) -> int:
    check_resolution(resolution)
    if not 0 <= n <= (1 << resolution):
        raise ValueError(
            f"kernel order {n} not representable at resolution {resolution}"
        )
    return int(n)


def _walsh_sum_rows(orders, resolution: int) -> np.ndarray:
    """D_n = sum_{k<n} w_k as row b of an int32 (B, 2^N) block for each
    n = orders[b] <= 2^N (unchecked): the rows 1_{k<n}, synthesized by
    one _butterfly.  Every butterfly sum is at most 2^N <= 2^24 in
    magnitude."""
    orders = np.asarray(orders, dtype=np.int32).reshape(-1, 1)
    return _butterfly((np.arange(1 << resolution) < orders).astype(np.int32))


def _walsh_running_rows(resolution: int):
    """D_n for every n in [0, 2^N], N >= 0, in the _batches of the
    recursion check: yields (orders, rows) for each batch of B orders,
    orders an int32 array of its n and rows an int32 (B, 2^N) block whose
    row b is D_n for n = orders[b], by the definition's running sum
    D_0 = 0, D_(n+1) = D_n + w_n.  All 2^N + 1 rows cost O(4^N) adds,
    where _walsh_sum_rows of every order costs O(N 4^N).

    The Walsh rows come from one synthesis of an identity of 2^h rows,
    h = ceil(N/2), whose row i is w_i at its 2^h cells: with
    x = 2^h x_1 + x_0, w_k(x) = w_(k >> h)(x_1) w_(k mod 2^h)(x_0), so row
    k is the product of two gathered rows of it.  A batch stacks D of its
    first order, carried from the batch before (D_0 for the first), over
    its Walsh rows and sums them down the stack by doubling (Hillis &
    Steele, 1986): for s = 1, 2, 4, ..., every row gains the row s above
    it, ceil(log2(B + 1)) adds.  The row carried to the next batch is the
    one past those handed out, so the caller may write these.  Every sum
    is at most 2^N <= 2^24 in magnitude."""
    size = 1 << resolution
    h = (resolution + 1) // 2
    signs = _butterfly(np.eye(1 << h, dtype=np.int32))
    carry = np.zeros(size, dtype=np.int32)  # D_0
    for batch in _batches(range(size + 1), lambda n: (None, size)):
        first, count = batch[0], len(batch)
        terms = min(count, size - first)  # the w_k for first <= k < first + terms
        k = np.arange(first, first + terms)
        rows = np.empty((terms + 1, size), dtype=np.int32)
        rows[0] = carry
        np.multiply(
            signs[k >> h, : size >> h, None],
            signs[k & ((1 << h) - 1), None, :],
            out=rows[1:].reshape(terms, size >> h, 1 << h),
        )
        step = 1
        while step <= terms:
            rows[step:] += rows[:-step]
            step *= 2
        carry = rows[terms]  # D_(first + terms), handed out only in the last batch
        yield np.arange(first, first + count, dtype=np.int32), rows[:count]


def _dirichlet_rec_int(orders, resolution: int) -> np.ndarray:
    """D_n as row b of an int32 (B, 2^N) block, N >= 0, for each
    n = orders[b] <= 2^N (unchecked), by the splitting
    D_n = D_{2^m} + r_m D_j for the top bit m of n and j = n - 2^m,
    unrolled from the lowest bit up on all rows at once.  Before bit m
    each row is D_(n mod 2^m), a function of x_0..x_(m-1), so only its
    first 2^m cells are built: bit m copies them to the next 2^m, negated
    (r_m) in the rows whose n has m set (where j = 0 the copy is 0), in
    one multiply by each row's sign at bit m, and those rows gain the
    closed form 2^m at the cells 0 and 2^m of I_m; the order 2^N gains
    2^N at cell 0.  |D_n| <= n <= 2^N <= 2^24 under the resolution cap,
    so int32 holds every row exactly."""
    orders = np.asarray(orders, dtype=np.int32)
    # Row b's sign at bit m, -1 where n_b has bit m set.
    signs = 1 - 2 * (orders[:, None] >> np.arange(resolution, dtype=np.int32) & 1)
    values = np.zeros((orders.size, 1 << resolution), dtype=np.int32)
    for m in range(resolution):
        half = 1 << m
        np.multiply(values[:, :half], signs[:, m : m + 1], out=values[:, half : 2 * half])
        gain = orders & half
        values[:, 0] += gain
        values[:, half] += gain
    values[:, 0] += orders & (1 << resolution)
    return values


def _one_row(rows, n: int, resolution: int) -> KernelFunction:
    # D_n as the batch of one of a row builder, at its period.
    n = _check_order(n, resolution)
    numer = rows([n], max(n - 1, 0).bit_length())[0].astype(np.int64)
    return KernelFunction._own(resolution, numer)


def dirichlet(n: int, resolution: int) -> KernelFunction:
    """D_n: sum of the first n Walsh functions (D_0 = 0), exact integers
    synthesized from its coefficients, 1 below n: _walsh_sum_rows of
    the one order."""
    return _one_row(_walsh_sum_rows, n, resolution)


def dirichlet_via_recursion(n: int, resolution: int) -> KernelFunction:
    """D_n built by binary splitting: peel the top power of two with the
    closed form and recurse on the remainder behind a Rademacher sign
    (_dirichlet_rec_int of the one order)."""
    return _one_row(_dirichlet_rec_int, n, resolution)


def _fejer_numerators(orders, cells: int) -> np.ndarray:
    """n K_n at the first `cells` cells, a power of two, as row b of an
    int64 (B, cells) block for each n = orders[b] <= cells (unchecked):
    the coefficients (n - m)_+ of n K_n, synthesized by one butterfly of
    all rows.  |n K_n| <= n (n + 1) / 2 <= 2^47 under the resolution cap."""
    orders = np.asarray(orders, dtype=np.int64).reshape(-1, 1)
    return _butterfly(np.maximum(orders - np.arange(cells, dtype=np.int64), 0))


def fejer(n: int, resolution: int) -> KernelFunction:
    """K_n = (1/n) sum_{k=1}^{n} D_k; exact numerators over denominator n:
    _fejer_numerators of the one order at its period."""
    n = _check_order(n, resolution)
    if n < 1:
        raise ValueError(f"Fejer kernel needs n >= 1, got {n}")
    return KernelFunction._own(resolution, _fejer_numerators([n], 1 << (n - 1).bit_length())[0], n)


def kernel_l1_norm(kernel: KernelFunction) -> Fraction:
    """Exact L1 norm, summed over one period."""
    head = kernel._exact_head
    return Fraction(int(np.sum(np.abs(head))), kernel.exact_denom * head.size)


def kernel_norm_sweep(n_max: int, resolution: int):
    """Exact L1 norms of D_n and K_n for n = 1..n_max in one pass, as
    integer sums.

    Returns (d, ell), two int64 arrays of length n_max + 1 whose entry n is
    d(n) = sum_x |D_n(x)| and l(n) = sum_x |n K_n(x)| over the 2^N cells,
    so ||D_n||_1 = d(n) / 2^N and ||K_n||_1 = l(n) / (n 2^N); entry 0 is
    zero and d(1) = l(1) = 2^N.  Both stay below 2^(2N+2) <= 2^50, and the
    caller divides.

    For n = 2^m + j, 1 <= j <= 2^m, the Paley splitting gives
    D_n = D_{2^m} + r_m D_j and n K_n = (2^m K_{2^m} + j D_{2^m}) + r_m j K_j,
    where every term but r_m depends only on x_0..x_{m-1}.  Summing over
    x_m with |a + b| + |a - b| = 2 max(|a|, |b|), and using that D_{2^m}
    lives on I_m and 2^m K_{2^m} on I_m and the one-bit cells 2^t, t < m,
    with the value 2^(m+t-1) at 2^t:

      d(2^m + j) = 2^N + d(j) - 2^(N-m) j,
      l(2^m + j) = l(j) + 2^(N-m) [2^(m-1) (2^m + 1) + 2^m j - j (j+1) / 2
                   + sum_{t<m} max(0, 2^(m+t-1) - L_t(j))],

    with L_t(j) = j K_j(2^t) = sum_{k<=j} min(k mod 2^(t+1), 2^(t+1) - k mod
    2^(t+1)).  Each level m is one vector pass over j, so the sweep costs
    O(N n_max) integer operations and never builds a 2^N-cell array.
    """
    _check_order(n_max, resolution)
    if n_max < 1:
        raise ValueError("sweep needs n_max >= 1")
    size = 1 << resolution
    d = np.zeros(n_max + 1, dtype=np.int64)
    ell = np.zeros(n_max + 1, dtype=np.int64)
    d[1] = ell[1] = size
    m = 0
    while (1 << m) < n_max:
        half = 1 << m
        count = min(half, n_max - half)
        j = np.arange(1, count + 1, dtype=np.int64)
        scale = size >> m
        d[half + 1 : half + count + 1] = size + d[1 : count + 1] - scale * j
        excess = half * (half + 1) // 2 + half * j - j * (j + 1) // 2
        for t in range(m):
            period = 2 << t
            phase = j % period
            cell = np.cumsum(np.minimum(phase, period - phase))  # L_t(j)
            excess += np.maximum(0, (half << t) // 2 - cell)
        ell[half + 1 : half + count + 1] = ell[1 : count + 1] + scale * excess
        m += 1
    return d, ell


def _check_block(w: WeightScheme, resolution: int) -> None:
    check_resolution(resolution)
    if w.block_exponent + 1 > resolution:
        raise ValueError(
            f"block [{w.block_start}, {w.block_end}] exceeds resolution {resolution}"
        )


def _block_weights(w: WeightScheme):
    """The integer numerators a_k of the block weights over their common
    denominator L, t_k = a_k / L, and L.  The numerators are int64 while
    max(a) * 2^(3n+2), which bounds every sum the kernel and its
    decomposition form, stays below _INT64_SAFE, and Python ints past it.
    """
    bound = int(np.max(w.numerators)) << (3 * w.block_exponent + 2)
    dtype = np.int64 if bound < _INT64_SAFE else object
    return w.numerators.astype(dtype), w.denominator


def _above(x: np.ndarray) -> np.ndarray:
    """sum_{i>m} x_i at each m along the last axis, by one running sum
    from the top: zero at the last entry.  Keeps the dtype of x.  The
    running sum is numpy's cumsum, sequential: each entry adds x_{m+1} to
    the one above it, from the last entry down, and for floats that order
    sets the bits."""
    above = np.zeros_like(x)
    above[..., :-1] = x[..., :0:-1].cumsum(axis=-1)[..., ::-1]
    return above


def _block_multiplier(weights: np.ndarray, resolution: int) -> np.ndarray:
    """The first 2^resolution Walsh coefficients of sum_k t_k D_k over the
    block [2^n, 2^(n+1)-1] for each row of weights along the last axis:
    the whole weight mass below the block, the weight mass strictly above m
    at frequency m inside it, and zero from the block end on.  Only the
    coefficients asked for are built.  Keeps the dtype of the weights.
    The mass below the block is numpy's sum along the last axis, exact on
    integers; on floats its pairwise summation (eight interleaved partial
    sums up to 128 entries, halves above) sets the bits, and the mass
    above m is _above's sequential one."""
    count, width = weights.shape[-1], 1 << resolution
    coeffs = np.zeros(weights.shape[:-1] + (width,), dtype=weights.dtype)
    coeffs[..., :count] = weights.sum(axis=-1, keepdims=True)
    if width > count:
        coeffs[..., count : 2 * count] = _above(weights)[..., : width - count]
    return coeffs


def _vp_numerators(t: np.ndarray) -> tuple:
    """The numerators of the block VP kernel and of the three parts of
    decompose_vp_kernel, for each row of integer weight numerators t (2^n
    along the last axis), in the dtype of t: the kernel (the coefficients
    of _block_multiplier) and parts 2 and 3 at the 2^(n+1) cells of the
    support, as three rows of one butterfly, and part 1, the closed form
    of D_{2^n} times the weight sum, at its period of 2^n cells."""
    low = t.shape[-1]
    diff = np.zeros_like(t)
    diff[..., 1:-1] = t[..., 1:-1] - t[..., 2:]
    first = np.zeros_like(t)
    first[..., 0] = np.sum(t, axis=-1) * low  # the closed form of D_{2^n}
    coeffs = np.zeros((3,) + t.shape[:-1] + (2 * low,), dtype=t.dtype)
    coeffs[0] = _block_multiplier(t, low.bit_length())
    coeffs[1, ..., low:] = _above(diff + _above(diff))
    coeffs[2, ..., low:] = t[..., -1:] * np.arange(low - 1, -1, -1).astype(t.dtype)
    kernel, second, third = _butterfly(coeffs)
    return kernel, first, second, third


def vp_kernel(w: WeightScheme, resolution: int) -> KernelFunction:
    """Block de la Vallee Poussin kernel sum_k t_k D_k, k over
    [2^n, 2^(n+1)-1], synthesized from its Walsh coefficients in the
    integer numerators of the weights: _vp_numerators on one row.
    """
    _check_block(w, resolution)
    t, denom = _block_weights(w)
    return KernelFunction._own(resolution, _vp_numerators(t)[0], denom)


def decompose_vp_kernel(
    w: WeightScheme, resolution: int
) -> tuple[KernelFunction, KernelFunction, KernelFunction]:
    """Split the block VP kernel into three parts whose sum reproduces it,
    each over the weights' common denominator:

      part 1: (sum of the weights) * D_{2^n};
      part 2: r_n * sum_{k=1}^{2^n - 2} (t_{2^n+k} - t_{2^n+k+1}) * k * K_k;
      part 3: r_n * t_last * (2^n - 1) * K_{2^n - 1}.

    The identity follows from the Dirichlet splitting plus summation by
    parts, and holds exactly in rational arithmetic.  Part 1 is the closed
    form of D_{2^n}.  Parts 2 and 3 are synthesized from their Walsh
    coefficients in the integer numerators of the weights: k K_k has the
    coefficient (k - m)_+ at m, and r_n w_m = w_{2^n+m} for m < 2^n.  With
    d_k = t_{2^n+k} - t_{2^n+k+1} (and d_0 = d_{2^n-1} = 0), part 2 has
    sum_{k>m} d_k (k - m) = _above(d + _above(d)) at 2^n + m, and part 3
    has t_last (2^n - 1 - m) there.  vp_kernel takes its coefficients from
    the weight mass above m instead, so the sum of the parts checks them
    in exact integers.  The numerators are _vp_numerators on one row.  The
    oracle of each part, built from running sums of Walsh signs at the
    cells, is in tests/test_kernels.py.
    """
    _check_block(w, resolution)
    t, denom = _block_weights(w)
    return tuple(KernelFunction._own(resolution, part, denom) for part in _vp_numerators(t)[1:])
