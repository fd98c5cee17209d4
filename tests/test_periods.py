"""A function held as its 2^r period and a spectrum as its prefix: the 2^N
entries read back, the copies of the public constructors, and the low-rank
commands that never build 2^N entries."""

import contextlib
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvp import cli, dyadic
from walshvp.dyadic import (
    SampledFunction,
    interval_indicator,
    lp_norm,
    modulus_of_continuity,
    translate,
)
from walshvp.experiments import STANDARD_SUITE_SPECS, make_function, step_mix, walsh_poly
from walshvp.kernels import decompose_vp_kernel, dirichlet, fejer, vp_kernel
from walshvp.means import dyadic_convolve, vp_mean
from walshvp.walsh_system import Spectrum, fwht_forward, fwht_inverse
from walshvp.weights import build_scheme


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class TestHeldPeriod:
    def test_builders_hold_one_period(self):
        assert step_mix(3, 20)._head.size == 16
        assert interval_indicator(5, 20)._head.size == 32
        assert walsh_poly([1.0, 0.0, 0.5], 20)._head.size == 4
        f = step_mix(3, 20)
        assert fwht_forward(f)._head.size == 16
        mean = vp_mean(f, build_scheme("uniform", 2)).function
        assert mean._head.size == 8 and (mean - f)._head.size == 16

    def test_the_sign_of_a_zero_sets_no_period(self):
        # The zero function given as -0.0 was held at all 2^20 cells.
        assert make_function("walsh_poly:-0", 20)._head.size == 1
        # Halves that differ only in the signs of zeros are one period; the
        # first copy is kept.
        given = np.array([1.0, -0.0, 2.0, 0.0, 1.0, 0.0, 2.0, -0.0])
        for f in (SampledFunction(3, given), SampledFunction._own(3, given.copy())):
            assert f._head.tobytes() == given[:4].tobytes()
            assert (f.values + 0.0).tobytes() == (given + 0.0).tobytes()
        assert SampledFunction(3, [1.0, -0.0, 2.0, 0.0, 1.0, 0.0, 3.0, -0.0])._head.size == 8

    def test_values_repeat_the_head_and_coeffs_pad_it_with_zeros(self):
        f = step_mix(7, 10)
        assert f.values.shape == (1 << 10,)
        assert np.array_equal(f.values, np.tile(f._head, 1 << 6))
        coeffs = fwht_forward(f).coeffs
        assert coeffs.shape == (1 << 10,) and not coeffs[16:].view(np.uint64).any()
        for full in (f.values, coeffs):
            with pytest.raises(ValueError):
                full[0] = 1.0

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_operations_on_periods_are_the_operations_on_the_samples(self, N, data):
        ra, rb = data.draw(st.integers(0, N)), data.draw(st.integers(0, N))
        ka = data.draw(st.integers(ra, N))  # a is handed over as 2^(ka - ra) periods
        floats = st.floats(-4, 4, allow_nan=False)
        period = np.array(data.draw(st.lists(floats, min_size=1 << ra, max_size=1 << ra)))
        a = SampledFunction._own(N, np.tile(period, 1 << (ka - ra)))
        b = SampledFunction._own(N, np.array(data.draw(st.lists(floats, min_size=1 << rb,
                                                                max_size=1 << rb))))
        t = data.draw(st.integers(0, (1 << N) - 1))
        idx = np.arange(1 << N)
        bits = {
            "sum": ((a + b).values, a.values + b.values),
            "difference": ((a - b).values, a.values - b.values),
            "product": ((a * b).values, a.values * b.values),
            "scaled": ((a * 3.0).values, a.values * 3.0),
            "negation": ((-a).values, -a.values),
            "translate": (translate(a, t).values, a.values[idx ^ t]),
        }
        # A period stands for every copy equal to it by value, so the bits
        # agree up to the sign of a zero.
        for name, (held, full) in bits.items():
            assert (held + 0.0).tobytes() == (full + 0.0).tobytes(), name
        full_a = SampledFunction(N, a.values)
        for p in (1.0, 2.0, 3.5, float("inf")):
            assert lp_norm(a, p) == lp_norm(full_a, p)
            for n in range(N + 1):
                assert modulus_of_continuity(a, n, p) == modulus_of_continuity(full_a, n, p)
        # Every function is held at its rank, whatever period it was built on.
        assert a._head.size == full_a._head.size <= period.size
        assert fwht_forward(full_a).coeffs.tobytes() == fwht_forward(a).coeffs.tobytes()
        k = data.draw(st.integers(1, 1 << N))
        held = [a, b, a + b, a - b, a * b, a * 3.0, -a, translate(a, t), full_a,
                fwht_inverse(fwht_forward(a)), dyadic_convolve(a, b),
                dirichlet(k, N), dirichlet(k - 1, N), fejer(k, N)]
        if N > 1:
            scheme = build_scheme("linear_up", data.draw(st.integers(1, N - 1)))
            held += [vp_mean(a, scheme).function, vp_kernel(scheme, N),
                     *decompose_vp_kernel(scheme, N)]
        for f in held:
            assert f._head.size == 1 << dyadic._dyadic_rank(f._head)


class TestFullArraysExportTheirBuffer:
    """values, coeffs and exact_numer are read-only and C-contiguous, so a
    caller can hash their buffer.  A one-sample head was repeated by a
    stride-0 view, whose memoryview raised BufferError."""

    @pytest.mark.parametrize("N", [4, 6])
    def test_every_builder(self, N):
        specs = STANDARD_SUITE_SPECS + ("indicator:0", "walsh_poly:3")
        functions = [make_function(spec, N) for spec in specs]
        scheme = build_scheme("uniform", 1)
        kernels = [dirichlet(0, N), dirichlet(1, N), fejer(1, N), fejer(3, N),
                   vp_kernel(scheme, N), *decompose_vp_kernel(scheme, N)]
        arrays = [f.values for f in functions + kernels]
        arrays += [fwht_forward(f).coeffs for f in functions]
        arrays += [k.exact_numer for k in kernels]
        for full in arrays:
            assert full.shape == (1 << N,)
            assert full.flags.c_contiguous and not full.flags.writeable
            hashlib.sha1(memoryview(full))
        assert not any(k._exact_head.flags.writeable for k in kernels)


class TestPublicConstructorsCopy:
    def test_a_later_write_to_the_caller_array_changes_nothing(self):
        # Before the copy, f saw the write: its kept table still gave 0.0
        # while the brute-force loop over its samples gave 0.5.
        a = np.zeros(8)
        f = SampledFunction(3, a)
        assert modulus_of_continuity(f, 0, 2) == 0.0
        a[3] = 1.0
        assert not f.values.any()
        assert modulus_of_continuity(f, 0, 2) == modulus_of_continuity(f, 0, 2, brute_force=True)
        assert modulus_of_continuity(f, 0, 2, brute_force=True) == 0.0
        g = SampledFunction(3, a)
        assert modulus_of_continuity(g, 0, 2) == modulus_of_continuity(g, 0, 2, brute_force=True)
        assert modulus_of_continuity(g, 0, 2, brute_force=True) == 0.5

    def test_a_full_array_is_held_at_its_rank(self):
        # 2^22 samples that repeat 16 draws keep the 16, and their norm and
        # modulus pass over those alone; a head of all 2^22 samples held
        # 32 MiB, and the L^3 norm alone allocated as much again.
        draws = np.random.default_rng(22).uniform(-1, 1, 16)
        f = SampledFunction(22, np.tile(draws, 1 << 18))
        assert f._head.size == 16 and f._head.tobytes() == draws.tobytes()
        tracemalloc.start()
        try:
            norm, modulus = lp_norm(f, 3), modulus_of_continuity(f, 1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        period = SampledFunction._own(22, draws.copy())
        assert (norm, modulus) == (lp_norm(period, 3), modulus_of_continuity(period, 1, 3))

    def test_the_public_constructor_copies_only_the_period(self):
        # The rank is found on the caller's array in place and only its 16
        # samples are copied; copying all 2^22 first peaked at 34 MiB.  A
        # later write to the caller's array does not reach f.
        draws = np.random.default_rng(23).uniform(-1, 1, 16)
        given = np.tile(draws, 1 << 18)
        tracemalloc.start()
        try:
            f = SampledFunction(22, given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert f._head.size == 16 and not np.shares_memory(f._head, given)
        given[:16] = 0.0
        assert f._head.tobytes() == draws.tobytes()
        full = np.random.default_rng(24).uniform(-1, 1, 1 << 10)  # rank N: all copied
        g = SampledFunction(10, full)
        full[0] = 2.0
        assert g._head.size == 1 << 10 and g.values[0] != 2.0

    def test_the_public_constructor_finds_the_rank_once(self, monkeypatch):
        # The period found on the caller's array is handed on to _hold; a
        # second search on the copy cost a second half-array compare at
        # full rank.  A builder's head, whose rank is not known, is searched.
        calls = []
        rank = dyadic._dyadic_rank
        monkeypatch.setattr(dyadic, "_dyadic_rank", lambda v: calls.append(v.size) or rank(v))
        draws = np.random.default_rng(25).uniform(-1, 1, 1 << 10)
        for given, size in ((draws, 1 << 10), (np.tile(draws[:8], 1 << 7), 8)):
            calls.clear()
            assert SampledFunction(10, given)._head.size == size
            assert calls == [1 << 10]
        calls.clear()
        assert SampledFunction._own(10, np.tile(draws[:8], 4))._head.size == 8
        assert calls == [32]

    def test_spectrum_keeps_its_own_coefficients(self):
        c = np.zeros(8)
        c[0] = 1.0
        s = Spectrum(3, c)
        c[5] = 2.0
        assert not s.coeffs[1:].any()
        assert np.array_equal(fwht_inverse(s).values, np.ones(8))


def test_p2_modulus_keeps_a_term_that_the_mean_dwarfs():
    # The mean's square, 1, would round the 1e-20 of w_4 away in the
    # difference of the p = 2 table; it cancels exactly and is left out.
    code, out = _run("approx", "--function", "walsh_poly:1,0,0,0,1e-10", "--resolution", "4",
                     "--weights", "uniform", "--nmin", "1", "--nmax", "1", "--p", "1,2,inf")
    assert code == 0 and "inconsistent" not in out
    row = [line for line in out.splitlines() if line.startswith("1,2,")][0].split(",")
    f = make_function("walsh_poly:1,0,0,0,1e-10", 4)
    oracle = modulus_of_continuity(f, 1, 2, brute_force=True)
    modulus = modulus_of_continuity(f, 1, 2)
    assert abs(modulus - oracle) <= 1e-12 * oracle
    assert float(row[3]) == pytest.approx(oracle, rel=1e-11)


class TestLowRankCommandsStayAtTheirRank:
    """A rank-4 function at N = 20..24 never builds its 2^N samples."""

    def test_no_full_array_is_read(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a 2^N array was built")

        monkeypatch.setattr(dyadic._Samples, "_full", refuse)
        for argv in (
            ("approx", "--weights", "uniform", "--nmin", "1", "--nmax", "8", "--p", "1,2,inf"),
            ("modulus", "--nmin", "0", "--nmax", "20", "--p", "1,2,3,inf"),
        ):
            for function in ("step_mix", "indicator:3", "walsh_poly:1,0.5,0,-0.25"):
                code, _ = _run(*argv, "--function", function, "--resolution", "20")
                assert code == 0, (argv, function)

    def test_rank4_approx_at_n24_peaks_below_50_mib(self):
        tracemalloc.start()
        try:
            code, out = _run("approx", "--function", "step_mix", "--resolution", "24",
                             "--weights", "uniform", "--p", "1,2,inf", "--nmin", "8", "--nmax", "8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.count("\n8,") == 3
        assert peak < 50 << 20
