import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvp.dyadic import SampledFunction, lp_norm
from walshvp.kernels import dirichlet, kernel_l1_norm, vp_kernel
from walshvp.means import (
    PATH_CONVOLUTION,
    PATH_PARTIAL_SUMS,
    dyadic_convolve,
    dyadic_convolve_naive,
    vp_mean,
)
from walshvp.walsh_system import partial_sum, walsh
from walshvp.weights import WeightScheme, build_scheme
from walshvp.experiments import SplitMix64, random_rational_scheme


def rand_fn(seed, resolution):
    rng = np.random.default_rng(seed)
    return SampledFunction(resolution, rng.uniform(-1, 1, 1 << resolution))


class TestConvolution:
    def test_full_resolution_dirichlet_is_identity(self):
        f = rand_fn(0, 5)
        out = dyadic_convolve(f, dirichlet(32, 5))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_dirichlet_truncates_spectrum(self):
        # convolving w_n against D_m keeps w_n iff n < m
        N = 5
        for n, m in ((3, 7), (3, 3), (9, 16), (16, 16)):
            out = dyadic_convolve(walsh(n, N), dirichlet(m, N))
            expected = walsh(n, N).values if n < m else np.zeros(1 << N)
            assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_matches_naive_double_loop(self):
        f = rand_fn(1, 6)
        k = rand_fn(2, 6)
        fast = dyadic_convolve(f, k)
        slow = dyadic_convolve_naive(f, k)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-11

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            dyadic_convolve(rand_fn(0, 4), rand_fn(0, 5))


class TestVpMean:
    def test_polynomial_reproduction(self):
        # f in P_{2^n} is reproduced exactly when the weights sum to 1
        scheme = build_scheme("uniform", 2)
        f = walsh(3, 6)
        for path in (PATH_CONVOLUTION, PATH_PARTIAL_SUMS):
            out = vp_mean(f, scheme, path).function
            assert np.max(np.abs(out.values - f.values)) < 1e-11

    def test_above_block_annihilated(self):
        n = 2
        scheme = build_scheme("linear_down", n)
        f = walsh(1 << (n + 1), 6)
        out = vp_mean(f, scheme).function
        assert np.max(np.abs(out.values)) < 1e-12

    def test_w3_against_pair_block(self):
        # S_2(w_3) = S_3(w_3) = 0, so any block-1 mean sends w_3 to zero
        for family in ("uniform", "linear_up"):
            out = vp_mean(walsh(3, 5), build_scheme(family, 1)).function
            assert np.max(np.abs(out.values)) < 1e-13

    def test_paths_agree_random(self):
        rng = SplitMix64(7)
        f = rand_fn(3, 8)
        for n in (1, 3, 5):
            scheme = random_rational_scheme(n, rng)
            a = vp_mean(f, scheme, PATH_CONVOLUTION).function
            b = vp_mean(f, scheme, PATH_PARTIAL_SUMS).function
            assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_linearity(self):
        scheme = build_scheme("linear_down", 3)
        f, g = rand_fn(4, 7), rand_fn(5, 7)
        combo = vp_mean(2.0 * f - 3.0 * g, scheme).function
        parts = 2.0 * vp_mean(f, scheme).function - 3.0 * vp_mean(g, scheme).function
        assert np.max(np.abs(combo.values - parts.values)) < 1e-11

    def test_young_inequality(self):
        scheme = build_scheme("linear_up", 3)
        f = rand_fn(6, 7)
        kernel = vp_kernel(scheme, 7)
        lhs = lp_norm(vp_mean(f, scheme).function, 1)
        assert lhs <= float(kernel_l1_norm(kernel)) * lp_norm(f, 1) + 1e-10

    def test_block_exceeds_resolution(self):
        with pytest.raises(ValueError):
            vp_mean(rand_fn(0, 4), build_scheme("uniform", 4))

    def test_unknown_path(self):
        with pytest.raises(ValueError):
            vp_mean(rand_fn(0, 4), build_scheme("uniform", 1), "magic")


class TestGeneralMean:
    # The partial-sums route is the definition, sum_k t_k S_k(f).

    def test_single_term_is_partial_sum(self):
        f = rand_fn(7, 6)
        for k in (2, 5, 12):
            n = k.bit_length() - 1
            scheme = WeightScheme(n, numerators=[int(i == k - (1 << n)) for i in range(1 << n)])
            for path in (PATH_CONVOLUTION, PATH_PARTIAL_SUMS):
                out = vp_mean(f, scheme, path).function
                assert np.max(np.abs(out.values - partial_sum(f, k).values)) < 1e-12

    def test_agrees_with_block_mean(self):
        # S_k(f) = f * D_k, so the mean is sum_k t_k (f * D_k).
        f = rand_fn(8, 7)
        scheme = build_scheme("linear_down", 2)
        terms = zip(scheme.weights, range(scheme.block_start, scheme.block_end + 1))
        expected = sum(t * dyadic_convolve(f, dirichlet(k, 7)).values for t, k in terms)
        b = vp_mean(f, scheme, PATH_PARTIAL_SUMS).function
        assert np.max(np.abs(b.values - expected)) < 1e-12


class TestFastAgainstOracle:
    """Hypothesis properties: each fast route against its oracle at N <= 10."""

    @given(st.integers(2, 10), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_convolution_path_matches_partial_sums(self, N, data, seed):
        n = data.draw(st.integers(1, N - 1))
        scheme = random_rational_scheme(n, SplitMix64(seed))
        f = rand_fn(seed, N)
        fast = vp_mean(f, scheme, PATH_CONVOLUTION).function
        slow = vp_mean(f, scheme, PATH_PARTIAL_SUMS).function
        assert np.max(np.abs(fast.values - slow.values)) < 1e-10

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dyadic_convolve_matches_naive(self, N, seed):
        f, k = rand_fn(seed, N), rand_fn(seed + 1, N)
        fast = dyadic_convolve(f, k)
        slow = dyadic_convolve_naive(f, k)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-11
