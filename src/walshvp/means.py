"""Matrix-transform de la Vallee Poussin means and dyadic convolution.

The mean over a dyadic block is computed by two independent routes: the
default multiplies fhat by the block kernel's closed-form multiplier (no
extra scaling with this package's normalization) and synthesizes the
products up to their common support (_mean_period, which vp_mean and the
approx sweep share), which the mean keeps as its period, and the
verification route is the definition, the weighted sum of the partial sums
S_k(f) over the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import SampledFunction, _rank_of
from .walsh_system import _butterfly, fwht_forward, hadamard_transform, partial_sum
from .weights import WeightScheme
from .kernels import _block_multiplier, _check_block

PATH_CONVOLUTION = "convolution"
PATH_PARTIAL_SUMS = "partial_sums"


@dataclass(frozen=True)
class MeanResult:
    function: SampledFunction


def dyadic_convolve(f: SampledFunction, kernel: SampledFunction) -> SampledFunction:
    """(f * K)(x) = integral of f(u) K(u + x) d(mu)(u).

    Spectral route: the coefficients of the convolution are the products
    of the coefficients, which vanish from 2^r on, r the smaller dyadic
    rank, so the first 2^r are synthesized, a period of the full-size
    synthesis up to the sign of a zero, as in vp_mean.
    """
    f._check_same(kernel)
    size = min(f._head.size, kernel._head.size)
    coeffs = fwht_forward(f)._prefix(size) * fwht_forward(kernel)._prefix(size)
    return SampledFunction._own(f.resolution, hadamard_transform(coeffs))


def dyadic_convolve_naive(f: SampledFunction, kernel: SampledFunction) -> SampledFunction:
    """Direct O(4^N) quadrature over all translates; spectral oracle."""
    f._check_same(kernel)
    idx = np.arange(f.size, dtype=np.int64)
    table = kernel.values[idx[:, None] ^ idx[None, :]]
    return SampledFunction._own(f.resolution, table @ f.values * 2.0**-f.resolution)


def _mean_period(f: SampledFunction, weights: np.ndarray, n: int) -> np.ndarray:
    """The period of the block-n mean of f with these weights: the block
    multiplier, built at its first 2^min(n+1, r) coefficients, r the rank
    of f (fhat is zero from 2^r on and the multiplier from 2^(n+1) on, so
    these hold every product that is not zero), times fhat in place, then
    synthesized in place.  A mean past the float range is a ValueError."""
    mean = _block_multiplier(weights, min(n + 1, _rank_of(f)))
    with np.errstate(over="ignore", invalid="ignore"):
        _butterfly(np.multiply(mean, fwht_forward(f)._prefix(mean.size), out=mean))
    if not np.isfinite(mean).all():
        raise ValueError(f"the mean of block n = {n} passes the float range")
    return mean


def vp_mean(f: SampledFunction, w: WeightScheme, path: str = PATH_CONVOLUTION) -> MeanResult:
    """Block mean sum_k t_k S_k(f) over k in [2^n, 2^(n+1)-1].

    The convolution route is _mean_period: the block multiplier, built at
    its first 2^min(n+1, r) coefficients (r the rank of f), times fhat,
    synthesized there, so the mean holds at most 2^r samples.  They are a
    period of the full-size synthesis up to the sign of a zero, since a
    product past the support can be -0.0; no output reads that sign.  A
    mean past the float range is a ValueError.
    """
    _check_block(w, f.resolution)
    n = w.block_exponent
    if path == PATH_CONVOLUTION:
        return MeanResult(SampledFunction._own(f.resolution, _mean_period(f, w.weights, n)))
    if path == PATH_PARTIAL_SUMS:
        terms = zip(w.weights, range(w.block_start, w.block_end + 1))
        return MeanResult(
            SampledFunction._own(f.resolution, sum(t * partial_sum(f, k).values for t, k in terms))
        )
    raise ValueError(f"unknown path {path!r}")
