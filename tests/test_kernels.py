import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import walshvp.dyadic
import walshvp.kernels
import walshvp.walsh_system
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshvp.dyadic import MAX_RESOLUTION, SampledFunction, interval_indicator
from walshvp.kernels import (
    KernelFunction,
    decompose_vp_kernel,
    dirichlet,
    dirichlet_via_recursion,
    fejer,
    kernel_l1_norm,
    kernel_norm_sweep,
    vp_kernel,
)
from walshvp.walsh_system import fwht_forward, hadamard_transform, walsh, walsh_signs
from walshvp.weights import WeightScheme, build_scheme
from walshvp.experiments import SplitMix64, random_rational_scheme


def exact_value(kernel, j):
    return Fraction(int(kernel.exact_numer[j]), kernel.exact_denom)


def naive_vp_kernel(scheme, resolution):
    acc = np.zeros(1 << resolution)
    for k in range(scheme.block_start, scheme.block_end + 1):
        acc += scheme.weights[k - scheme.block_start] * dirichlet(k, resolution).values
    return acc


def space_domain_vp_numerators(scheme, resolution):
    """sum_k a_k D_k in Python ints, with t_k = a_k / L; returns (numerators, L).

    D_k is the running sum of Walsh signs, independent of the spectral route.
    """
    exact = scheme.exact
    denom = math.lcm(*(t.denominator for t in exact))
    running = np.zeros(1 << resolution, dtype=np.int64)
    acc = np.zeros(1 << resolution, dtype=object)
    for k in range(1, scheme.block_end + 1):
        running += walsh_signs(k - 1, resolution)
        if k >= scheme.block_start:
            t = exact[k - scheme.block_start]
            acc += t.numerator * (denom // t.denominator) * running.astype(object)
    return acc, denom


def space_domain_parts(scheme, resolution):
    """The three parts of decompose_vp_kernel in Python ints over the
    weights' denominator: D_k and k K_k for k <= 2^n as running sums of
    Walsh signs, independent of the spectral route, and r_n = w_{2^n}."""
    low = scheme.block_size
    a = [int(v) for v in scheme.numerators]
    d_k = np.zeros(1 << resolution, dtype=object)
    k_k = np.zeros(1 << resolution, dtype=object)
    second = np.zeros(1 << resolution, dtype=object)
    for k in range(1, low):
        d_k = d_k + walsh_signs(k - 1, resolution).astype(object)  # D_k
        k_k = k_k + d_k  # k K_k
        if k <= low - 2:
            second = second + (a[k] - a[k + 1]) * k_k
    d_low = d_k + walsh_signs(low - 1, resolution).astype(object)  # D_{2^n}
    r_n = walsh_signs(low, resolution).astype(object)
    return sum(a) * d_low, r_n * second, r_n * a[-1] * k_k


def sweep_norms(n_max, resolution):
    """The Fraction norms that kernel_norm_sweep's integer sums define:
    ||D_n||_1 = d(n) / 2^N and ||K_n||_1 = l(n) / (n 2^N), n = 1..n_max."""
    d, ell = kernel_norm_sweep(n_max, resolution)
    size = 1 << resolution
    d_norms = [Fraction(int(v), size) for v in d[1:]]
    k_norms = [Fraction(int(v), n * size) for n, v in enumerate(ell[1:], start=1)]
    return d_norms, k_norms


def kernel_norm_sweep_oracle(n_max, resolution):
    """The per-n loop: D_n and n K_n accumulated from Walsh signs over all
    2^N cells, O(n_max 2^N)."""
    size = 1 << resolution
    running = np.zeros(size, dtype=np.int64)
    cumulative = np.zeros(size, dtype=np.int64)
    d_norms = []
    k_norms = []
    for n in range(1, n_max + 1):
        running += walsh_signs(n - 1, resolution)
        cumulative += running
        d_norms.append(Fraction(int(np.sum(np.abs(running))), size))
        k_norms.append(Fraction(int(np.sum(np.abs(cumulative))), n * size))
    return d_norms, k_norms


class TestDirichlet:
    def test_paley_closed_form(self):
        # D_{2^n} is 2^n on I_n and zero elsewhere
        for n in range(4):
            d = dirichlet(1 << n, 3)
            expected = (1 << n) * interval_indicator(n, 3).values
            assert np.array_equal(d.values, expected)

    def test_d0_is_zero(self):
        assert np.all(dirichlet(0, 3).values == 0.0)

    def test_d3_samples(self):
        assert dirichlet(3, 2).values.tolist() == [3.0, 1.0, 1.0, -1.0]

    def test_integral_one(self):
        for n in range(1, 17):
            assert fwht_forward(dirichlet(n, 4)).coeffs[0] == 1.0

    def test_order_too_large(self):
        with pytest.raises(ValueError):
            dirichlet(17, 4)


class TestDirichletRecursion:
    def test_power_of_two_base_case(self):
        for k in range(5):
            a = dirichlet_via_recursion(1 << k, 5)
            b = dirichlet(1 << k, 5)
            assert np.array_equal(a.exact_numer, b.exact_numer)

    def test_five_equals_direct(self):
        a = dirichlet_via_recursion(5, 3)
        b = dirichlet(5, 3)
        assert np.array_equal(a.exact_numer, b.exact_numer)

    def test_exhaustive_equivalence(self):
        N = 6
        for n in range(1 << N):
            assert np.array_equal(
                dirichlet_via_recursion(n, N).exact_numer,
                dirichlet(n, N).exact_numer,
            )

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_running_walsh_sums(self, N, data):
        # One row per order, in the order given: unsorted, repeated, with
        # the ends 0 and 2^N.
        drawn = data.draw(st.lists(st.integers(0, 1 << N), max_size=20))
        orders = data.draw(st.permutations(drawn + [0, 1 << N]))
        sums = [np.zeros(1 << N, dtype=np.int64)]
        for k in range(1 << N):
            sums.append(sums[-1] + walsh_signs(k, N))  # sums[n] == D_n
        rows = walshvp.kernels._dirichlet_rec_int(np.array(orders), N)
        assert rows.shape == (len(orders), 1 << N) and rows.dtype == np.int32
        assert rows.flags.c_contiguous
        for n, row in zip(orders, rows):
            assert np.array_equal(row, sums[n])

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_recursion_rows_are_the_walsh_sum_rows(self, N, data):
        # The order batches of the recursion check: 0, 2^N, the powers of
        # two between, and any order in [0, 2^N].
        order = st.one_of(
            st.just(0), st.just(1 << N), st.integers(0, N - 1).map(lambda m: 1 << m),
            st.integers(0, 1 << N),
        )
        orders = data.draw(st.lists(order, min_size=1, max_size=40))
        rows = walshvp.kernels._dirichlet_rec_int(orders, N)
        sums = walshvp.kernels._walsh_sum_rows(orders, N)
        assert rows.dtype == sums.dtype == np.int32
        assert rows.shape == sums.shape == (len(orders), 1 << N)
        assert np.array_equal(rows, sums)
        for n, row in zip(orders, rows):
            assert np.array_equal(dirichlet(n, N).exact_numer, row)
            assert np.array_equal(dirichlet_via_recursion(n, N).exact_numer, row)

    @pytest.mark.parametrize("budget", [1 << 6, 1 << 11, 1 << 16])
    @pytest.mark.parametrize("N", range(1, 11))
    def test_running_rows_are_the_walsh_sum_rows(self, monkeypatch, N, budget):
        # Every order 0..2^N, in the _batches of the recursion check: one
        # row a batch from N = 6 on at a budget of 2^6 cells, a few at 2^11,
        # and every order in one batch at 2^16 up to N = 7.  The check
        # writes its differences into each batch, so this does too before
        # drawing the next: the running sum carries nothing handed out.
        monkeypatch.setattr(walshvp.dyadic, "_BLOCK_CELLS", budget)
        size = 1 << N
        expected = [len(b) for b in walshvp.dyadic._batches(range(size + 1), lambda n: (None, size))]
        orders, rows = [], []
        for batch, block in walshvp.kernels._walsh_running_rows(N):
            assert batch.dtype == block.dtype == np.int32 and block.shape == (batch.size, size)
            orders.append(batch.copy())
            rows.append(block.copy())
            block[...] = -7
        assert [batch.size for batch in orders] == expected
        assert np.array_equal(np.concatenate(orders), np.arange(size + 1))
        sums = walshvp.kernels._walsh_sum_rows(np.arange(size + 1), N)
        assert sums.dtype == np.int32
        assert np.concatenate(rows).tobytes() == sums.tobytes()

    def test_a_row_past_the_chunk_takes_the_chunked_butterfly(self, monkeypatch):
        # One order at N = 17: its row of 2^17 entries is longer than
        # _CHUNK_SIZE, so _butterfly runs its high stage on the (2, 2^15)
        # column blocks of the (2, 2^16) view.
        N, n = 17, 92_681
        blocks = []
        stages = walshvp.walsh_system._pair_stages

        def counted(x, buffers, count):
            if x.ndim == 2:
                blocks.append((x.shape, count))
            return stages(x, buffers, count)

        monkeypatch.setattr(walshvp.walsh_system, "_pair_stages", counted)
        sums = walshvp.kernels._walsh_sum_rows([n], N)
        half = walshvp.walsh_system._CHUNK_SIZE // 2
        assert blocks == [((2, half), 1)] * 2
        rows = walshvp.kernels._dirichlet_rec_int([n], N)
        assert sums.shape == rows.shape == (1, 1 << N) and np.array_equal(rows, sums)
        assert np.array_equal(dirichlet(n, N).exact_numer, rows[0])
        assert np.array_equal(dirichlet_via_recursion(n, N).exact_numer, rows[0])


class TestFejer:
    def test_k1_is_constant_one(self):
        assert np.all(fejer(1, 3).values == 1.0)

    def test_k2_at_n1(self):
        k2 = fejer(2, 1)
        assert k2.values.tolist() == [1.5, 0.5]
        assert exact_value(k2, 0) == Fraction(3, 2)

    def test_values_derive_from_integer_numerators(self):
        kernel = KernelFunction(1, [3, 1], 2)
        assert kernel.values.tolist() == fejer(2, 1).values.tolist()
        with pytest.raises(TypeError):
            KernelFunction(1, [1.5, 0.5])  # float samples are not a form
        with pytest.raises(ValueError):
            KernelFunction(1, [3, 1], 0)

    def test_float_head_is_held_at_its_own_rank(self):
        # 2^60 and 2^60 + 1 round to one float: the float head is one sample,
        # the exact head keeps both numerators, and the exact values and
        # norm are read from them.
        kernel = KernelFunction(1, np.array([2**60, 2**60 + 1], dtype=object))
        assert kernel._head.tolist() == [2.0**60] and kernel._exact_head.size == 2
        assert kernel.values.tolist() == [2.0**60, 2.0**60]
        assert kernel.exact_numer.tolist() == [2**60, 2**60 + 1]
        assert kernel_l1_norm(kernel) == Fraction(2**61 + 1, 2)

    def test_k2_l1_norm_is_one(self):
        assert kernel_l1_norm(fejer(2, 3)) == 1

    def test_integral_one(self):
        for n in (1, 3, 7, 12):
            assert fwht_forward(fejer(n, 4)).coeffs[0] == pytest.approx(1.0, abs=1e-14)

    def test_norm_sweep_matches_individual(self):
        d_norms, k_norms = sweep_norms(12, 4)
        for n in range(1, 13):
            assert k_norms[n - 1] == kernel_l1_norm(fejer(n, 4))
            assert d_norms[n - 1] == kernel_l1_norm(dirichlet(n, 4))

    def test_norm_bounds_small_sweep(self):
        _, k_norms = sweep_norms(1 << 7, 8)
        peak = max(k_norms)
        assert peak <= 2
        assert peak <= Fraction(17, 15)


class TestNormSweep:
    """The Paley recurrence of kernel_norm_sweep against the per-n loop."""

    @pytest.mark.parametrize("N", range(1, 11))
    def test_equals_oracle(self, N):
        for n_max in sorted({1, 3, 1 << (N - 1), (1 << N) - 1, 1 << N}):
            if n_max <= 1 << N:
                assert sweep_norms(n_max, N) == kernel_norm_sweep_oracle(n_max, N)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_oracle_at_random_sizes(self, data):
        N = data.draw(st.integers(1, 11))
        n_max = data.draw(st.integers(1, 1 << N))
        assert sweep_norms(n_max, N) == kernel_norm_sweep_oracle(n_max, N)

    def test_builds_no_cell_array(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not touch the 2^N cells")

        monkeypatch.setattr(walshvp.walsh_system, "walsh_signs", refuse)
        for builder in ("_butterfly", "_dirichlet_rec_int"):
            monkeypatch.setattr(walshvp.kernels, builder, refuse)
        monkeypatch.setattr(walshvp.walsh_system, "hadamard_transform", refuse)
        d_norms, k_norms = sweep_norms(1 << 9, 12)
        assert d_norms[-1] == 1 and max(k_norms) <= Fraction(17, 15)

    def test_norms_at_the_cap_match_a_small_resolution(self):
        # The norms do not depend on N once n <= 2^N.  At the cap the sums
        # stay below 2^(2N+2) = 2^50, in int64.
        assert sweep_norms(200, MAX_RESOLUTION) == sweep_norms(200, 8)

    def test_returns_the_int64_sums(self):
        # Entry n of each array is the sum over the 2^N cells; entry 0 is 0.
        d, ell = kernel_norm_sweep(5, 3)
        assert d.dtype == ell.dtype == np.int64
        for n in range(1, 6):
            assert d[n] == np.sum(np.abs(dirichlet(n, 3).exact_numer))
            assert ell[n] == np.sum(np.abs(fejer(n, 3).exact_numer))  # n K_n
        assert d[0] == ell[0] == 0


class TestVpKernel:
    def test_uniform_integrates_to_one(self):
        scheme = build_scheme("uniform", 3)
        kernel = vp_kernel(scheme, 6)
        assert fwht_forward(kernel).coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_pair_block(self):
        # n=1 block {2,3} with weights (1/2, 1/2) equals (D_2 + D_3)/2
        scheme = build_scheme("uniform", 1)
        kernel = vp_kernel(scheme, 3)
        expected = (dirichlet(2, 3).values + dirichlet(3, 3).values) / 2
        assert np.array_equal(kernel.values, expected)

    def test_matches_naive_oracle(self):
        rng = SplitMix64(5)
        for n in (1, 2, 3):
            scheme = random_rational_scheme(n, rng)
            fast = vp_kernel(scheme, 6)
            assert np.max(np.abs(fast.values - naive_vp_kernel(scheme, 6))) < 1e-11

    def test_block_exceeds_resolution(self):
        with pytest.raises(ValueError):
            vp_kernel(build_scheme("uniform", 4), 4)

    def test_exact_requires_rationals(self):
        # The kernel is exact only: float weights never reach it, the
        # scheme that would carry them is refused.
        with pytest.raises(TypeError):
            vp_kernel(WeightScheme(2, [0.3, 0.3, 0.2, 0.2]), 5)


class TestDecomposition:
    def test_uniform_middle_component_vanishes(self):
        dec = decompose_vp_kernel(build_scheme("uniform", 3), 6)
        assert np.all(dec[1].values == 0.0)

    def test_pair_block_identity(self):
        dec = decompose_vp_kernel(build_scheme("uniform", 1), 3)
        kernel = vp_kernel(build_scheme("uniform", 1), 3)
        first, second, third = dec
        assert np.array_equal((first + second + third).values, kernel.values)

    def test_random_schemes_exact_identity(self):
        rng = SplitMix64(6)
        for _ in range(10):
            n = 1 + rng.randint(3)
            drawn = random_rational_scheme(n, rng)
            numerators = sorted(drawn.numerators, reverse=True)
            scheme = WeightScheme(n, numerators=numerators, denominator=drawn.denominator)
            dec = decompose_vp_kernel(scheme, 6)
            kernel = vp_kernel(scheme, 6)
            for j in range(kernel.size):
                total = sum(exact_value(c, j) for c in dec)
                assert total == exact_value(kernel, j)


class TestAbelTransform:
    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=7))
    @settings(max_examples=25, deadline=None)
    def test_summation_by_parts_identity(self, seq):
        # sum_k a_k D_k == sum_k (a_k - a_{k+1}) k K_k with a padded zero
        N = 4
        padded = np.append(seq, 0.0)
        diffs = padded[:-1] - padded[1:]
        direct = np.zeros(1 << N)
        parts = np.zeros(1 << N)
        for k, a_k in enumerate(seq, start=1):
            direct += a_k * dirichlet(k, N).values
            parts += diffs[k - 1] * k * fejer(k, N).values
        assert np.max(np.abs(direct - parts)) < 1e-10


class TestSpaceDomainOracles:
    """The spectral kernels against the accumulation of Walsh signs."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_dirichlet_and_fejer(self, data):
        N = data.draw(st.integers(1, 10))
        n = data.draw(st.integers(1, 1 << N))
        running = np.zeros(1 << N, dtype=np.int64)
        cumulative = np.zeros(1 << N, dtype=np.int64)
        for k in range(n):
            running += walsh_signs(k, N)  # running == D_{k+1}
            cumulative += running
        assert np.array_equal(dirichlet(n, N).exact_numer, running)
        kernel = fejer(n, N)
        assert kernel.exact_denom == n
        assert np.array_equal(kernel.exact_numer, cumulative)

    @given(st.integers(2, 10), st.integers(0, 2**63), st.data())
    @settings(max_examples=25, deadline=None)
    def test_vp_kernel(self, N, seed, data):
        n = data.draw(st.integers(1, N - 1))
        scheme = random_rational_scheme(n, SplitMix64(seed))
        kernel = vp_kernel(scheme, N)
        numer, denom = space_domain_vp_numerators(scheme, N)
        assert np.array_equal(kernel.exact_numer * denom, numer * kernel.exact_denom)


class TestDecompositionOracle:
    """Each part of the VP decomposition against its space-domain oracle."""

    @given(st.integers(2, 8), st.integers(0, 2**63), st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_schemes(self, N, seed, data):
        n = data.draw(st.integers(1, min(N - 1, 5)))
        self._check(random_rational_scheme(n, SplitMix64(seed)), N)

    @pytest.mark.parametrize("family, alpha", [
        ("uniform", None), ("linear_up", None), ("linear_down", None), ("cesaro", 2),
    ])
    @pytest.mark.parametrize("n, N", [(1, 2), (3, 6), (5, 8)])
    def test_families(self, family, alpha, n, N):
        self._check(build_scheme(family, n, alpha=alpha), N)

    def test_object_dtype_scheme(self):
        scheme = build_scheme("cesaro", 5, alpha=0.5)
        parts = self._check(scheme, 8)
        assert all(part.exact_numer.dtype == object for part in parts)

    @staticmethod
    def _check(scheme, N):
        parts = decompose_vp_kernel(scheme, N)
        assert len(parts) == 3
        for part, oracle in zip(parts, space_domain_parts(scheme, N)):
            assert part.exact_denom == scheme.denominator
            assert np.array_equal(part.exact_numer, oracle)
        return parts


class TestBigintExactPath:
    """Weights whose numerators pass the int64 range switch to Python ints."""

    def test_vp_kernel_cell_by_cell(self):
        scheme = build_scheme("cesaro", 9, alpha=0.5)
        kernel = vp_kernel(scheme, 10)
        assert kernel.exact_numer.dtype == object
        numer, denom = space_domain_vp_numerators(scheme, 10)
        for j in range(kernel.size):
            expected = Fraction(numer[j], denom)
            assert exact_value(kernel, j) == expected
            assert kernel.values[j] == float(expected)

    @pytest.mark.parametrize("N", [10, 13])
    def test_floats_of_one_period_equal_the_per_cell_conversion(self, N):
        # The object numerators repeat one support period of 2^10 cells;
        # the gathered floats are the correctly rounded quotient of each cell.
        kernel = vp_kernel(build_scheme("cesaro", 9, alpha=0.5), N)
        assert kernel.exact_numer.dtype == object
        per_cell = np.array([int(v) / kernel.exact_denom for v in kernel.exact_numer])
        assert np.array_equal(kernel.values.view(np.uint64), per_cell.view(np.uint64))
        # Numerators of full period are converted cell by cell as they are.
        numer = np.array([3**k * (-1) ** k for k in range(16)], dtype=object) << 1100
        kernel = KernelFunction(4, numer, 7 << 1100)
        expected = [float(Fraction(int(v), 7 << 1100)) for v in numer]
        assert kernel.values.tolist() == expected

    def test_decomposition_sums_exactly(self):
        scheme = build_scheme("cesaro", 6, alpha=0.5)
        parts = decompose_vp_kernel(scheme, 8)
        kernel = vp_kernel(scheme, 8)
        assert all(part.exact_numer.dtype == object for part in parts)
        for j in range(kernel.size):
            assert sum(exact_value(part, j) for part in parts) == exact_value(kernel, j)


def full_size_numerators(coeffs, resolution):
    """The oracle: the integer butterfly over all 2^N Walsh coefficients,
    those given padded with zeros, in Python ints."""
    full = np.zeros(1 << resolution, dtype=object)
    full[: len(coeffs)] = coeffs
    return hadamard_transform(full)


def former_vp_numerators(t):
    """The two butterflies that built the VP kernel and its parts before
    they shared one: the kernel from _block_multiplier, then parts 2 and 3
    as two rows of a second call; part 1 is the closed form of D_{2^n}."""
    low, butterfly, above = t.shape[-1], walshvp.walsh_system._butterfly, walshvp.kernels._above
    kernel = butterfly(walshvp.kernels._block_multiplier(t, low.bit_length()))
    diff = np.zeros_like(t)
    diff[..., 1:-1] = t[..., 1:-1] - t[..., 2:]
    first = np.zeros_like(t)
    first[..., 0] = np.sum(t, axis=-1) * low
    coeffs = np.zeros((2,) + t.shape[:-1] + (2 * low,), dtype=t.dtype)
    coeffs[0, ..., low:] = above(diff + above(diff))
    coeffs[1, ..., low:] = t[..., -1:] * np.arange(low - 1, -1, -1).astype(t.dtype)
    second, third = butterfly(coeffs)
    return kernel, first, second, third


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestSynthesisAtSupport:
    """Each kernel has one builder of many orders, run at the support of
    the orders; the per-order routes it replaced stay here as oracles."""

    @pytest.mark.parametrize("N", range(1, 11))
    def test_dirichlet_is_the_butterfly_of_n_ones(self, N):
        for n in range((1 << N) + 1):
            ones = np.zeros(1 << N, dtype=np.int64)
            ones[:n] = 1
            kernel = dirichlet(n, N)
            assert kernel.exact_numer.dtype == np.int64
            assert np.array_equal(kernel.exact_numer, hadamard_transform(ones))

    @given(st.integers(0, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, 1 << n), min_size=1, max_size=40))
    ))
    @settings(max_examples=60, deadline=None)
    @example((12, [1, 2, 3, 1 << 11, (1 << 11) + 1, 4095, 4096]))
    @example((0, [1]))
    def test_fejer_rows_have_the_heads_of_fejer(self, drawn):
        # Each row of the 2^n cells, held as a function, is cut to the rank
        # of K_k and has the bits of fejer's float head; fejer's numerators
        # are the int64 butterfly of (k - m)_+ at its period.
        n, ks = drawn
        N = max(n, 1)
        orders = np.array(ks)[:, None]
        rows = walshvp.kernels._fejer_numerators(orders, 1 << n)
        assert rows.dtype == np.int64 and rows.shape == (len(ks), 1 << n)
        for k, row in zip(ks, rows / orders):
            kernel = fejer(k, N)
            assert _bits(SampledFunction._own(N, row)._head) == _bits(kernel._head)
            coeffs = np.maximum(k - np.arange(kernel._exact_head.size, dtype=np.int64), 0)
            assert np.array_equal(kernel._exact_head, hadamard_transform(coeffs))
            assert kernel.exact_denom == k

    @given(st.integers(1, 7), st.integers(1, 5), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_vp_numerators_equal_the_two_former_butterflies(self, n, rows, big, data):
        if big:  # numerators near 2^58 pass the int64 bound of the kernel sums
            n = min(n, 3)
            numerators = st.lists(st.integers(2**57, 2**58), min_size=1 << n, max_size=1 << n)
            schemes = [WeightScheme(n, numerators=data.draw(numerators)) for _ in range(rows)]
        else:
            rng = SplitMix64(data.draw(st.integers(0, 2**63)))
            schemes = [random_rational_scheme(n, rng) for _ in range(rows)]
        t = np.stack([walshvp.kernels._block_weights(scheme)[0] for scheme in schemes])
        assert t.dtype == (object if big else np.int64)
        got = walshvp.kernels._vp_numerators(t)
        for one, former in zip(got, former_vp_numerators(t.copy())):
            assert one.dtype == t.dtype and one.shape == former.shape
            assert one.tolist() == former.tolist()

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_vp_kernel(self, N, data):
        n = data.draw(st.integers(1, N - 1))
        if n == 2 and data.draw(st.booleans()):
            # numerators near 2^58 pass the int64 bound of the kernel sums
            numerators = data.draw(st.lists(st.integers(2**57, 2**58), min_size=4, max_size=4))
            scheme, dtype = WeightScheme(2, numerators=numerators), object
        else:
            seed = data.draw(st.integers(0, 2**63))
            scheme, dtype = random_rational_scheme(n, SplitMix64(seed)), np.int64
        kernel = vp_kernel(scheme, N)
        assert kernel._exact_head.size == 2 << n and kernel.exact_numer.dtype == dtype
        a = [int(v) for v in scheme.numerators]
        # the coefficient at m is the weight mass above m: all of it below the block
        coeffs = [sum(a[max(m + 1 - (1 << n), 0) :]) for m in range(2 << n)]
        assert kernel.exact_denom == scheme.denominator
        assert np.array_equal(kernel.exact_numer, full_size_numerators(coeffs, N))

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_decompose_vp_kernel(self, N, data):
        n = data.draw(st.integers(1, N - 1))
        if n == 2 and data.draw(st.booleans()):
            numerators = data.draw(st.lists(st.integers(2**57, 2**58), min_size=4, max_size=4))
            scheme, dtype = WeightScheme(2, numerators=numerators), object
        else:
            seed = data.draw(st.integers(0, 2**63))
            scheme, dtype = random_rational_scheme(n, SplitMix64(seed)), np.int64
        parts = decompose_vp_kernel(scheme, N)
        assert [part._exact_head.size for part in parts] == [1 << n, 2 << n, 2 << n]
        assert all(part.exact_numer.dtype == dtype for part in parts)
        a = [int(v) for v in scheme.numerators]
        low = 1 << n
        diff = [0] + [a[k] - a[k + 1] for k in range(1, low - 1)] + [0]
        coeffs = (
            [sum(a)] * low,
            [0] * low + [sum(diff[k] * (k - m) for k in range(m + 1, low)) for m in range(low)],
            [0] * low + [a[-1] * (low - 1 - m) for m in range(low)],
        )
        for part, c in zip(parts, coeffs):
            assert part.exact_denom == scheme.denominator
            assert np.array_equal(part.exact_numer, full_size_numerators(c, N))


class TestHeldAsItsPeriod:
    """Each kernel holds the integer numerators of one period: 2^m for D_n
    and K_n with n <= 2^m, 2^(n+1) for the block-n VP kernel."""

    def test_builders_hold_their_period(self):
        scheme = build_scheme("uniform", 3)
        for kernel, period in (
            (dirichlet(5, 20), 8),
            (fejer(5, 20), 8),
            (dirichlet_via_recursion(5, 20), 8),
            (dirichlet(0, 20), 1),
            (fejer(1, 20), 1),
            (vp_kernel(scheme, 20), 16),
        ):
            head = kernel._exact_head
            assert head.size == period and kernel._head.size == period
            assert np.array_equal(kernel.exact_numer, np.tile(head, (1 << 20) // period))
        parts = decompose_vp_kernel(scheme, 20)
        assert [part._exact_head.size for part in parts] == [8, 16, 16]

    def test_builders_allocate_no_cells_at_the_cap(self):
        # A 2^24-cell int64 array alone is 128 MiB.
        scheme = build_scheme("uniform", 3)
        for build in (
            lambda: dirichlet(5, MAX_RESOLUTION),
            lambda: fejer(5, MAX_RESOLUTION),
            lambda: dirichlet_via_recursion(5, MAX_RESOLUTION),
            lambda: vp_kernel(scheme, MAX_RESOLUTION),
            lambda: decompose_vp_kernel(scheme, MAX_RESOLUTION),
        ):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10

    def test_constructor_copies_its_numerators(self):
        # Before the copy the kernel kept the caller's array: the write
        # moved its L1 norm from 1 to 13 but not its float samples.
        a = np.array([3, 1, 1, 3])
        kernel = KernelFunction(2, a, 2)
        a[0] = -99
        assert kernel_l1_norm(kernel) == 1
        assert kernel.values.tolist() == [1.5, 0.5, 0.5, 1.5]
        assert kernel.exact_numer.tolist() == [3, 1, 1, 3]
        assert not kernel.exact_numer.flags.writeable

    def test_non_integer_numerators_are_refused(self):
        # An object array of floats was taken as exact numerators: the L1
        # norm of [1.5, 0.7] / 1 read int(2.2) / 2 = 1, not 1.1.
        for numer in ([1.5, 0.7], [1, 0.5]):
            with pytest.raises(TypeError):
                KernelFunction(1, np.array(numer, dtype=object))
        # Integer objects of any width are still exact numerators.
        kernel = KernelFunction(1, np.array([np.int64(3), 1 << 70], dtype=object), 2)
        assert kernel.exact_numer.tolist() == [3, 1 << 70]
        assert kernel_l1_norm(kernel) == Fraction(3 + (1 << 70), 4)

    @given(st.integers(1, 4), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_float_samples_are_the_correctly_rounded_quotients(self, n, big, data):
        # With int64 numerators, a denominator past 2^53 was rounded to
        # float64 before the division, and so the quotient twice.
        count = 1 << n
        if big:  # 2^58 and odd numerators, gcd 1: the kernel sums in Python ints
            odd = st.integers(2**56, 2**57).map(lambda v: 2 * v + 1)
            numerators = [2**58] + data.draw(st.lists(odd, min_size=count - 1, max_size=count - 1))
        else:
            numerators = data.draw(st.lists(st.integers(0, 999), min_size=count, max_size=count))
        denom = data.draw(st.integers(2**53, 2**60)) | 1
        scheme = WeightScheme(n, numerators, denom)
        kernel = vp_kernel(scheme, n + 1)
        assert kernel.exact_numer.dtype == (object if big else np.int64)
        for k in (kernel, *decompose_vp_kernel(scheme, n + 1)):
            assert k.values.tolist() == [int(a) / k.exact_denom for a in k.exact_numer]
