import io
import random

import numpy as np
import pytest

from walshvp.dyadic import SampledFunction, integrate, lp_norm
from walshvp.walsh_system import (
    Spectrum,
    bit_parity,
    fourier_coefficients_naive,
    fwht_forward,
    fwht_inverse,
    partial_sum,
    rademacher,
    read_spectrum,
    walsh,
    write_spectrum,
)


def rand_fn(seed, resolution):
    rng = np.random.default_rng(seed)
    return SampledFunction(resolution, rng.uniform(-1, 1, 1 << resolution))


def test_rademacher_bit0():
    assert rademacher(0, 2).values.tolist() == [1, -1, 1, -1]


def test_rademacher_mean_and_square():
    r = rademacher(2, 4)
    assert integrate(r) == 0.0
    assert np.all((r * r).values == 1.0)


def test_rademacher_out_of_range():
    with pytest.raises(ValueError):
        rademacher(4, 4)


def test_walsh_zero_is_one():
    assert np.all(walsh(0, 3).values == 1.0)


def test_walsh_three():
    # w_3 = r_0 r_1 at the four points of N=2
    assert walsh(3, 2).values.tolist() == [1, -1, -1, 1]


def test_walsh_orthonormality_exhaustive():
    N = 4
    for m in range(1 << N):
        for n in range(1 << N):
            inner = integrate(walsh(m, N) * walsh(n, N))
            assert inner == (1.0 if m == n else 0.0)


def test_walsh_multiplicativity_exhaustive():
    N = 5
    for m in (0, 3, 17, 30):
        for n in range(1 << N):
            prod = walsh(m, N) * walsh(n, N)
            assert np.array_equal(prod.values, walsh(m ^ n, N).values)


class TestTransform:
    def test_single_walsh_function(self):
        s = fwht_forward(walsh(5, 3))
        expected = np.zeros(8)
        expected[5] = 1.0
        assert np.allclose(s.coeffs, expected, atol=1e-15)

    def test_constant(self):
        s = fwht_forward(SampledFunction(3, np.full(8, 2.5)))
        assert s.coeffs[0] == 2.5 and np.all(s.coeffs[1:] == 0.0)

    def test_against_naive_oracle(self):
        f = rand_fn(11, 6)
        assert np.max(np.abs(fwht_forward(f).coeffs - fourier_coefficients_naive(f))) < 1e-12

    def test_roundtrip(self):
        f = rand_fn(12, 10)
        back = fwht_inverse(fwht_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_unit_spectrum(self):
        coeffs = np.zeros(8)
        coeffs[0] = 1.0
        assert np.all(fwht_inverse(Spectrum(3, coeffs)).values == 1.0)

    def test_parseval(self):
        for N in (6, 10, 14):
            f = rand_fn(N, N)
            energy = float(np.sum(fwht_forward(f).coeffs ** 2))
            assert energy == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-12)


class TestPartialSum:
    def test_single_frequency(self):
        w = walsh(6, 4)
        assert np.allclose(partial_sum(w, 7).values, w.values, atol=1e-13)
        assert np.allclose(partial_sum(w, 6).values, 0.0, atol=1e-13)

    def test_zero_and_full(self):
        f = rand_fn(13, 5)
        assert np.all(partial_sum(f, 0).values == 0.0)
        assert np.max(np.abs(partial_sum(f, 32).values - f.values)) < 1e-13

    def test_projection(self):
        f = rand_fn(14, 6)
        once = partial_sum(f, 11)
        assert np.max(np.abs(partial_sum(once, 11).values - once.values)) < 1e-12

    def test_block_average_oracle(self):
        # S_{2^k}(f) is the conditional expectation onto rank-k cells:
        # averaging f over each coset of I_k.
        f = rand_fn(15, 6)
        k = 3
        smooth = partial_sum(f, 1 << k)
        sums = np.zeros(1 << k)
        for j in range(f.size):
            sums[j & ((1 << k) - 1)] += f.values[j]
        averages = sums / (1 << (6 - k))
        expected = averages[np.arange(f.size) & ((1 << k) - 1)]
        assert np.max(np.abs(smooth.values - expected)) < 1e-12

    def test_order_too_large(self):
        with pytest.raises(ValueError):
            partial_sum(rand_fn(0, 4), 17)


def test_spectrum_text_roundtrip():
    s = fwht_forward(rand_fn(16, 4))
    buf = io.StringIO()
    write_spectrum(s, buf)
    assert buf.getvalue().startswith("SPECTRUM\nN=4\n")
    buf.seek(0)
    back = read_spectrum(buf)
    assert np.array_equal(back.coeffs, s.coeffs)


def test_spectrum_bad_header():
    with pytest.raises(ValueError):
        read_spectrum(io.StringIO("N=4\n"))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_spectrum_nonfinite_rejected(token):
    with pytest.raises(ValueError, match="spectrum coefficient 1 is not finite"):
        read_spectrum(io.StringIO(f"SPECTRUM\nN=1\n0.5\n{token}\n"))


def test_bit_parity_folds_all_63_bits():
    assert bit_parity(2**32).tolist() == 1
    rng = random.Random(63)
    values = [rng.getrandbits(63) for _ in range(200)]
    expected = [bin(x).count("1") & 1 for x in values]
    assert bit_parity(np.array(values, dtype=np.int64)).tolist() == expected
