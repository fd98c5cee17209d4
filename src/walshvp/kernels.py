"""Dirichlet, Fejer, and matrix-transform de la Vallee Poussin kernels.

D_n and K_n for n <= 2^m depend only on x_0..x_(m-1), the block-n VP
kernel only on x_0..x_n, so each is held as that period of integer
numerators over one denominator (1 for D_n, n for K_n, the weights'
common one for VP kernels), built by the integer butterfly of its Walsh
coefficients or, for D, by its recursion or closed form.  The kernel
identities (the closed form of D at powers of two, the recursive
splitting of D, the three-part VP decomposition) are then checked with
zero error.  The numerators are int64, or Python ints for a VP kernel
whose weights have large numerators (_block_weights); the VP cores run
on a stack of weight rows, so a check can build many kernels in one pass.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dyadic import SampledFunction, _periods, _Samples, check_resolution
from .walsh_system import _butterfly, _run_cells, hadamard_transform
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


def _paley_int(m: int) -> np.ndarray:
    # Closed form at powers of two, one period: 2^m on I_m, zero elsewhere.
    values = np.zeros(1 << m, dtype=np.int64)
    values[0] = 1 << m
    return values


def dirichlet(n: int, resolution: int) -> KernelFunction:
    """D_n: sum of the first n Walsh functions (D_0 = 0), exact integers
    synthesized from its coefficients, 1 below n."""
    n = _check_order(n, resolution)
    coeffs = np.zeros(1 << max(n - 1, 0).bit_length(), dtype=np.int64)
    coeffs[:n] = 1
    return KernelFunction._own(resolution, hadamard_transform(coeffs))


def _dirichlet_rec_int(orders, resolution: int) -> np.ndarray:
    """D_n as column b of a C-contiguous (2^N, B) int32 block, N >= 0, for
    each n = orders[b] <= 2^N (unchecked), by the splitting
    D_n = D_{2^m} + r_m D_j for the top bit m of n and j = n - 2^m,
    unrolled from the lowest bit up on all columns at once.  Before bit m
    each column is D_(n mod 2^m), a function of x_0..x_(m-1), so only its
    first 2^m cells are built: bit m copies them to the next 2^m, negated
    (r_m) in the columns whose n has m set (where j = 0 the copy is 0),
    and those columns gain the closed form 2^m at the cells 0 and 2^m of
    I_m; the order 2^N gains 2^N at cell 0.  Each bit is one contiguous
    pass over B 2^m entries, multiplied in runs of up to
    _run_cells(B, 2^N) cells by the signs of the orders repeated over the
    run, so a narrow block runs no pass on runs of B entries.
    |D_n| <= n <= 2^N <= 2^24 under the resolution cap, so int32 holds
    every column exactly."""
    orders = np.asarray(orders, dtype=np.int32)
    size, width = 1 << resolution, orders.size
    # The orders repeated over the cells of the longest run.
    tiled = _periods(orders, _run_cells(width, size) * width)
    values = np.zeros((size, width), dtype=np.int32)
    for m in range(resolution):
        half = 1 << m
        run = min(half * width, tiled.size)
        low, high = values[:half].reshape(-1, run), values[half : 2 * half].reshape(-1, run)
        np.multiply(low, 1 - 2 * (tiled[:run] >> m & 1), out=high)
        gain = orders & half
        values[0] += gain
        values[half] += gain
    values[0] += orders & size
    return values


def dirichlet_via_recursion(n: int, resolution: int) -> KernelFunction:
    """D_n built by binary splitting: peel the top power of two with the
    closed form and recurse on the remainder behind a Rademacher sign."""
    n = _check_order(n, resolution)
    support = max(n - 1, 0).bit_length()
    numer = _dirichlet_rec_int([n], support).reshape(-1).astype(np.int64)
    return KernelFunction._own(resolution, numer)


def fejer(n: int, resolution: int) -> KernelFunction:
    """K_n = (1/n) sum_{k=1}^{n} D_k; exact numerators over denominator n,
    synthesized from the coefficients (n - m)_+ of n K_n."""
    n = _check_order(n, resolution)
    if n < 1:
        raise ValueError(f"Fejer kernel needs n >= 1, got {n}")
    coeffs = np.zeros(1 << (n - 1).bit_length(), dtype=np.int64)
    coeffs[:n] = np.arange(n, 0, -1)
    return KernelFunction._own(resolution, hadamard_transform(coeffs), n)


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
    from the top: zero at the last entry.  Keeps the dtype of x."""
    above = np.zeros_like(x)
    above[..., :-1] = x[..., :0:-1].cumsum(axis=-1)[..., ::-1]
    return above


def _block_multiplier(weights: np.ndarray, resolution: int) -> np.ndarray:
    """The first 2^resolution Walsh coefficients of sum_k t_k D_k over the
    block [2^n, 2^(n+1)-1] for each row of weights along the last axis:
    the whole weight mass below the block, the weight mass strictly above m
    at frequency m inside it, and zero from the block end on.  Only the
    coefficients asked for are built.  Keeps the dtype of the weights."""
    count, width = weights.shape[-1], 1 << resolution
    coeffs = np.zeros(weights.shape[:-1] + (width,), dtype=weights.dtype)
    coeffs[..., :count] = weights.sum(axis=-1, keepdims=True)
    if width > count:
        coeffs[..., count : 2 * count] = _above(weights)[..., : width - count]
    return coeffs


def _vp_numerators(t: np.ndarray) -> np.ndarray:
    """The numerators of the block VP kernel at the 2^(n+1) cells of its
    support, for each row of integer weight numerators t (2^n along the
    last axis): the butterfly of _block_multiplier, in the dtype of t."""
    return _butterfly(_block_multiplier(t, t.shape[-1].bit_length()))


def _vp_part_numerators(t: np.ndarray) -> tuple:
    """The numerators of the three parts of decompose_vp_kernel for each
    row of integer weight numerators t (2^n along the last axis): part 1
    at its period of 2^n cells, parts 2 and 3 at the 2^(n+1) of the
    support, in the dtype of t."""
    low = t.shape[-1]
    diff = np.zeros_like(t)
    diff[..., 1:-1] = t[..., 1:-1] - t[..., 2:]
    first = np.zeros_like(t)
    first[..., 0] = np.sum(t, axis=-1) * low  # the closed form of D_{2^n}
    coeffs = np.zeros((2,) + t.shape[:-1] + (2 * low,), dtype=t.dtype)
    coeffs[0, ..., low:] = _above(diff + _above(diff))
    coeffs[1, ..., low:] = t[..., -1:] * np.arange(low - 1, -1, -1).astype(t.dtype)
    second, third = _butterfly(coeffs)
    return first, second, third


def vp_kernel(w: WeightScheme, resolution: int) -> KernelFunction:
    """Block de la Vallee Poussin kernel sum_k t_k D_k, k over
    [2^n, 2^(n+1)-1], synthesized from its Walsh coefficients in the
    integer numerators of the weights: _vp_numerators on one row.
    """
    _check_block(w, resolution)
    t, denom = _block_weights(w)
    return KernelFunction._own(resolution, _vp_numerators(t), denom)


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
    in exact integers.  The numerators are _vp_part_numerators on one row.
    The oracle of each part, built from running sums of Walsh signs at the
    cells, is in tests/test_kernels.py.
    """
    _check_block(w, resolution)
    t, denom = _block_weights(w)
    return tuple(KernelFunction._own(resolution, part, denom) for part in _vp_part_numerators(t))
