"""The spectral routes sized by the rank of their data, against the
full-size transforms they replace."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvp import dyadic
from walshvp.dyadic import (
    INF,
    SampledFunction,
    _coset_oscillation,
    _pairwise_total,
    _power_scale,
    lp_norm,
    modulus_of_continuity,
)
from walshvp.experiments import (
    SplitMix64,
    approximation_error,
    make_function,
    random_rational_scheme,
    ratio_sweep,
)
from walshvp.kernels import _block_multiplier
from walshvp.means import dyadic_convolve, vp_mean
from walshvp.walsh_system import Spectrum, fwht_forward, fwht_inverse, hadamard_transform
from walshvp.weights import WeightScheme, build_scheme

SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _forward_oracle(f):
    return hadamard_transform(f.values) * 2.0**-f.resolution


def _l2_distances_oracle(f):
    """(scale, ||f(.+t) - f||_2^2 / scale^2 for every t) from one transform
    of all 2^N squared coefficients but the one at m = 0, which w_0 = 1
    cancels at every t."""
    top = max(-float(np.min(f.values)), float(np.max(f.values)))
    scale = _power_scale(top, 2.0, f.resolution)
    g = (_forward_oracle(f) / scale) ** 2
    g[0] = 0.0
    return scale, 2.0 * (_pairwise_total(g) - hadamard_transform(g))


def _l2_moduli_oracle(scale, per_t):
    """omega_2(f, 2^-n) for n = 0..N: the largest distance at t = 0 mod 2^n."""
    return [
        scale * math.sqrt(max(float(np.max(per_t[:: 1 << n])), 0.0))
        for n in range(per_t.size.bit_length())
    ]


def _mean_oracle(f, scheme):
    return hadamard_transform(_block_multiplier(scheme.weights, f.resolution) * _forward_oracle(f))


@st.composite
def rank_functions(draw, min_resolution=1):
    """(N, samples of x mod 2^r tiled to 2^N) for N <= 10 and any r <= N,
    at a magnitude where the p = 2 table is scaled or not."""
    N = draw(st.integers(min_resolution, 10))
    r = draw(st.integers(0, N))
    cells = draw(st.lists(SAMPLES, min_size=1 << r, max_size=1 << r))
    magnitude = 2.0 ** draw(st.sampled_from([0, 600, -600]))
    return N, np.tile(np.array(cells) * magnitude, 1 << (N - r))


@given(rank_functions())
@settings(max_examples=120, deadline=None)
def test_forward_is_the_full_transform_bit_for_bit(case):
    N, values = case
    f = SampledFunction(N, values)
    assert _bits(fwht_forward(f).coeffs) == _bits(_forward_oracle(f))


@given(st.integers(1, 10), st.data())
@settings(max_examples=120, deadline=None)
def test_inverse_is_the_full_synthesis_bit_for_bit(N, data):
    k = data.draw(st.integers(0, N))
    coeffs = np.zeros(1 << N)
    coeffs[: 1 << k] = data.draw(st.lists(SAMPLES, min_size=1 << k, max_size=1 << k))
    # up to the sign of a zero, which the full-size stages may flip
    synthesis = fwht_inverse(Spectrum(N, coeffs)).values
    assert _bits(synthesis + 0.0) == _bits(hadamard_transform(coeffs) + 0.0)


@given(rank_functions(), st.sampled_from([dyadic._BLOCK_CELLS, 1 << 4]))
@settings(max_examples=60, deadline=None)
def test_l2_modulus_is_the_full_route_bit_for_bit_for_every_first_n(case, budget):
    # The table squares the spectrum in blocks of the budget; at 2^4 the
    # rows of 2^n0 > 2^4 span several blocks.  rank_functions scales the
    # samples by 2^+-600, where the table's scale is not 1.
    # A first n at or above the rank is the rank exit, which keeps no table.
    N, values = case
    f = SampledFunction(N, values)
    rank = dyadic._rank_of(f)
    if rank:
        scale, per_t = _l2_distances_oracle(f)
        expected = [m.hex() for m in _l2_moduli_oracle(scale, per_t)]
    else:  # a constant f, 0 among them: every n is at or above the rank
        expected = [(0.0).hex()] * (N + 1)
    with mock.patch.object(dyadic, "_BLOCK_CELLS", budget):
        for first in range(N + 1):
            f = SampledFunction(N, values)
            modulus_of_continuity(f, first, 2)
            if first >= rank:
                assert f._moduli == {}
            else:
                n0, table_scale, sums = f._moduli[2.0]
                # the table is the full one at t = 0 mod 2^n0, over one period
                assert table_scale == scale and _bits(sums) == _bits(per_t[:: 1 << n0][: sums.size])
            assert [modulus_of_continuity(f, n, 2).hex() for n in range(N + 1)] == expected


@given(rank_functions(), st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]), st.data())
@settings(max_examples=60, deadline=None)
def test_the_modulus_is_zero_from_the_rank_on_before_any_table(case, p, data):
    # Every translate in I_n fixes f from its rank on, so the modulus is 0.0
    # there at every p, with no oscillation, scale or table.
    N, values = case
    f = SampledFunction(N, values)
    n = data.draw(st.integers(dyadic._rank_of(f), N))
    refuse = mock.Mock(side_effect=AssertionError("a route below the rank ran"))
    with mock.patch.object(dyadic, "_modulus_table", refuse), \
            mock.patch.object(dyadic, "_oscillation", refuse):
        assert modulus_of_continuity(f, n, p).hex() == (0.0).hex()
    assert f._moduli == {} and f._oscillations is None


@given(rank_functions(min_resolution=2), st.data())
@settings(max_examples=60, deadline=None)
def test_mean_equals_the_full_synthesis(case, data):
    N, values = case
    f = SampledFunction(N, values)
    n = data.draw(st.integers(1, N - 1))
    family = data.draw(st.sampled_from(["uniform", "linear_up", "cesaro", "random"]))
    if family == "random":
        scheme = random_rational_scheme(n, SplitMix64(data.draw(st.integers(0, 2**32))))
    else:
        scheme = build_scheme(family, n, alpha=0.5 if family == "cesaro" else None)
    assert np.array_equal(vp_mean(f, scheme).function.values, _mean_oracle(f, scheme))


@given(rank_functions(min_resolution=2), st.data())
@settings(max_examples=120, deadline=None)
def test_l2_error_by_parseval_is_the_synthesized_residual(case, data):
    # The p = 2 error was once taken by Parseval off the spectrum; it is
    # now read off the residual of one period of the mean, so it meets the
    # oracle, the L2 norm of the mean synthesized at 2^N cells less f, bit
    # for bit, and a fortiori within the rounding the Parseval route left.
    N, values = case
    f = SampledFunction(N, values)
    n = data.draw(st.integers(1, N - 1))
    scheme = random_rational_scheme(n, SplitMix64(data.draw(st.integers(0, 2**32))))
    gain, loss = data.draw(st.sampled_from([(1, 1), (3, 1), (1, 7), (1000, 3)]))
    scheme = WeightScheme(
        n, [int(a) * gain for a in scheme.numerators], scheme.denominator * loss
    )
    error = approximation_error(f, scheme, 2).error
    oracle = lp_norm(vp_mean(f, scheme).function - f, 2)
    rounding = 1e-15 * float(np.max(np.abs(values))) + 2.0**-1070
    assert abs(error - oracle) <= 1e-12 * oracle + rounding
    assert error.hex() == oracle.hex()


@given(rank_functions(min_resolution=2), st.data())
@settings(max_examples=80, deadline=None)
def test_sweep_errors_are_the_norms_of_the_mean_residuals(case, data):
    # A sweep takes each error, p = 2 included, off the residual of its
    # block's mean at the 2^r cells of one period of f; that is the L^p
    # norm of vp_mean(f) - f at 2^N cells bit for bit, whichever blocks the
    # sweep runs and in whatever order, and whether the weights sum to one
    # or not.
    N, values = case
    f = SampledFunction(N, values)
    blocks = data.draw(st.lists(st.integers(1, N - 1), min_size=1, max_size=4))
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    gain, loss = data.draw(st.sampled_from([(1, 1), (3, 1), (1, 7), (1000, 3)]))
    schemes = []
    for n in blocks:
        scheme = random_rational_scheme(n, rng)
        numerators = [int(a) * gain for a in scheme.numerators]
        schemes.append(WeightScheme(n, numerators, scheme.denominator * loss))
    p_values = (1.0, 2.0, 3.5, INF)
    records = ratio_sweep(f, iter(schemes), p_values)
    assert [r.n for r in records] == [n for n in blocks for _ in p_values]
    for i, record in enumerate(records):
        residual = vp_mean(f, schemes[i // len(p_values)]).function - f
        assert record.error.hex() == lp_norm(residual, record.p).hex()


def _exact_l2_error(f, scheme):
    """||mean - f||_2 of the float samples of f and the scheme's exact
    weights, by Parseval in integers, correctly rounded: with f = A / D
    cell by cell, the integer butterfly of A is 2^N D fhat, and the mean
    keeps fhat_m times the weight mass below the block for m < 2^n, the
    mass strictly above m inside it, and 0 from 2^(n+1) on."""
    samples = [Fraction(v) for v in f.values]
    denominator = max(v.denominator for v in samples)
    a = [int(v * denominator) for v in samples]
    half = 1
    while half < len(a):
        for i in range(0, len(a), 2 * half):
            for j in range(i, i + half):
                a[j], a[j + half] = a[j] + a[j + half], a[j] - a[j + half]
        half *= 2
    t, low = scheme.exact, 1 << scheme.block_exponent
    masses = [sum(t)] * low + [sum(t[i + 1 :]) for i in range(low)]
    masses += [Fraction(0)] * (len(a) - len(masses))
    square = sum((1 - mu) ** 2 * c * c for mu, c in zip(masses, a))
    return math.sqrt(square / (denominator * len(a)) ** 2)


@pytest.mark.parametrize("spec", ["abs_power:0.5", "step_mix", "random"])
def test_l2_error_is_within_rounding_of_the_exact_error(spec):
    # The p = 2 error of the float samples, against its exact value, within
    # 1e-15 relative, or 1e-15 of max |f| where it is 0 (step_mix from its
    # rank 4 on).  Parseval over the 2^r coefficients read 2.8e-15 relative
    # for abs_power:0.5 at N = 8.  At n = N - 1, where the error is about
    # 2^(-N/2) of max |f|, the rounding of the mean's cells reads up to
    # 1.8e-15 relative at N <= 8, so the blocks run up to N - 2.
    for N in range(3, 9):
        f = make_function(spec, N, seed=3)
        top = float(np.max(np.abs(f.values)))
        for n in range(1, N - 1):
            rng = SplitMix64(7 * n + N)
            for scheme in (build_scheme("uniform", n), build_scheme("linear_up", n),
                           random_rational_scheme(n, rng)):
                exact = _exact_l2_error(f, scheme)
                error = approximation_error(f, scheme, 2).error
                assert abs(error - exact) <= 1e-15 * (exact if exact else top), (N, n)


def test_a_sweep_block_builds_no_array_of_f_size():
    # The errors read f's 2^18 samples less the mean's period in blocks of
    # _BLOCK_CELLS: with f's spectrum, moduli and oscillations kept, one
    # block at p = 1, 2 and inf allocates less than one 2^18-entry array.
    f = make_function("abs_power:0.5", 18)
    scheme = build_scheme("linear_down", 8)
    first = ratio_sweep(f, [scheme], [1.0, 2.0, INF])
    tracemalloc.start()
    try:
        again = ratio_sweep(f, [scheme], [1.0, 2.0, INF])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 8 << 18


@pytest.mark.parametrize("n0", range(3, 9))
def test_the_l2_table_builds_no_array_of_spectrum_size(n0):
    # The squares are made from the kept spectrum in blocks of _BLOCK_CELLS
    # through one work array, and the total is read off the butterfly, so
    # a table of 2^(18 - n0) entries allocates less than one 2^18 array.
    f = make_function("abs_power:0.5", 18)
    fwht_forward(f)
    tracemalloc.start()
    try:
        dyadic._l2_table(f, n0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 18


def test_the_sign_split_at_scale_1_copies_no_samples():
    # At scale 1 the split sorts f's own samples: a table of 2^16 translates
    # at N = 18 allocates less than 8.5 arrays of 2^18, where a scaled copy
    # of the samples would take it past 9.
    f = make_function("abs_power:0.5", 18)
    tracemalloc.start()
    try:
        dyadic._sign_split_sums(f._head, 2, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * (8 << 18)


@given(rank_functions(), st.sampled_from([1.0, 3.0, INF]), st.booleans(), st.randoms())
@settings(max_examples=80, deadline=None)
def test_kept_oscillations_are_the_per_n_route_bit_for_bit(case, p, huge, rnd):
    # f keeps its coset oscillations from the lowest n asked so far, so each
    # n of a sweep in any order, on one f, reads the oscillation of the
    # per-n route; scaled to 2^1023, opposite samples are inf apart.
    N, values = case
    top = float(np.max(np.abs(values)))
    if huge and top > 0.0:
        values = values / top * 2.0**1023
    order = list(range(N + 1))
    rnd.shuffle(order)
    f = SampledFunction(N, values)
    kept = [modulus_of_continuity(f, n, p).hex() for n in order]
    with mock.patch.object(dyadic, "_oscillation", lambda g, n: _coset_oscillation(g._head, n)):
        g = SampledFunction(N, values)
        per_n = [modulus_of_continuity(g, n, p).hex() for n in order]
    assert kept == per_n
    assert (INF.hex() in kept) == (huge and _coset_oscillation(values, 0) == INF)


def _row_bits(records):
    return [tuple(v.hex() if isinstance(v, float) else v for v in vars(r).values()) for r in records]


@given(rank_functions(min_resolution=2), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_the_sign_of_a_zero_moves_no_row(case, seed):
    # Every row reads absolute values, squares, differences or sums of the
    # samples, so a zero sample of either sign gives the same bits; the
    # rank compares values, so both are held at one rank.
    N, values = case
    flips = np.random.default_rng(seed).random(values.size) < 0.5
    flipped = np.where(flips & (values == 0.0), -values, values)
    f, g = SampledFunction(N, values), SampledFunction(N, flipped)
    assert g._head.size == f._head.size
    ps = (1.0, 2.0, 3.0, INF)
    rows = [ratio_sweep(h, (build_scheme("linear_down", n) for n in range(1, N)), ps)
            for h in (f, g)]
    assert _row_bits(rows[1]) == _row_bits(rows[0])
    for n in range(N + 1):
        for p in ps:
            assert modulus_of_continuity(g, n, p).hex() == modulus_of_continuity(f, n, p).hex()


@given(rank_functions(), st.data())
@settings(max_examples=60, deadline=None)
def test_convolution_equals_the_full_synthesis(case, data):
    N, values = case
    r = data.draw(st.integers(0, N))
    cells = data.draw(st.lists(SAMPLES, min_size=1 << r, max_size=1 << r))
    f = SampledFunction(N, values)
    kernel = SampledFunction(N, np.tile(cells, 1 << (N - r)))
    expected = hadamard_transform(_forward_oracle(f) * _forward_oracle(kernel))
    assert np.array_equal(dyadic_convolve(f, kernel).values, expected)


def test_forward_scales_after_the_butterfly_while_the_sums_stay_finite():
    # Subnormal samples: scaling each by 2^-r first would round it; the sums
    # are exact and rounded once when scaled after, as in the full transform.
    f = SampledFunction(3, np.array([3.0, 1.0, 0.0, 1.0] * 2) * 5e-324)
    assert _bits(fwht_forward(f).coeffs) == _bits(_forward_oracle(f))
