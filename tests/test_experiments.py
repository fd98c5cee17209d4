import csv
import dataclasses
import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshvp.dyadic
import walshvp.kernels
import walshvp.walsh_system
from walshvp import experiments as exp
from walshvp.cli import main
from walshvp.dyadic import INF, SampledFunction, abs_values, lp_norm
from walshvp.kernels import (
    decompose_vp_kernel,
    dirichlet_via_recursion,
    fejer,
    kernel_norm_sweep,
    vp_kernel,
)
from walshvp.means import dyadic_convolve, dyadic_convolve_naive
from walshvp.walsh_system import Spectrum, fwht_forward, fwht_inverse, walsh
from walshvp.weights import WeightScheme, build_scheme

uniform = functools.partial(build_scheme, "uniform")


class TestGenerators:
    def test_splitmix_deterministic(self):
        a = exp.SplitMix64(42)
        b = exp.SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("count", [0, 1, 1000])
    def test_uniforms_match_scalar_draws(self, seed, count):
        fast, slow = exp.SplitMix64(seed), exp.SplitMix64(seed)
        vals = fast.uniforms(count)
        assert vals.dtype == np.float64
        assert vals.tobytes() == np.array([slow.uniform() for _ in range(count)]).tobytes()
        assert fast.state == slow.state

    def test_uniform_range(self):
        rng = exp.SplitMix64(1)
        vals = rng.uniforms(500)
        assert np.all(vals >= -1.0) and np.all(vals < 1.0)
        assert abs(float(np.mean(vals))) < 0.15

    def test_make_function_specs(self):
        f = exp.make_function("abs_power:1.0", 5)
        assert np.array_equal(f.values, abs_values(5))
        ind = exp.make_function("indicator:2", 5)
        assert ind.values[0] == 1.0 and ind.values[1] == 0.0
        poly = exp.make_function("walsh_poly:0,1", 4)
        assert np.array_equal(poly.values, walsh(1, 4).values)
        r1 = exp.make_function("random", 5, seed=9)
        r2 = exp.make_function("random", 5, seed=9)
        assert np.array_equal(r1.values, r2.values)

    def test_step_mix_constant_on_cells(self):
        # Bit for bit the gather of the seed's 2^min(4, N) cells by index.
        for N in range(1, 15):
            cells = exp.SplitMix64(3).uniforms(1 << min(4, N))
            gathered = cells[np.arange(1 << N) & (cells.size - 1)]
            assert exp.step_mix(3, N).values.tobytes() == gathered.tobytes()

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            exp.make_function("bogus:1", 4)

    def test_standard_suite_size(self):
        suite = exp.standard_suite(7, seed=1)
        assert len(suite) == 5


class TestApproximationError:
    def test_polynomial_reproduction_row(self):
        rec = exp.approximation_error(walsh(3, 6), build_scheme("uniform", 2), 2)
        assert rec.error < 1e-11
        assert rec.ratio == 0.0
        assert rec.bound_ok and not rec.flag

    def test_frequency_above_block(self):
        # the mean annihilates w_{2^{n+1}}; the translate by the top
        # block coordinate flips its sign, giving modulus 2
        n = 2
        f = walsh(1 << (n + 1), 6)
        rec = exp.approximation_error(f, build_scheme("linear_down", n), INF)
        assert rec.error == pytest.approx(1.0, abs=1e-12)
        assert rec.modulus == pytest.approx(2.0, abs=1e-12)
        assert rec.ratio == pytest.approx(0.5, abs=1e-12)
        assert rec.bound_ok

    def test_abs_power_within_bound(self):
        f = exp.abs_power(1.0, 10)
        rec = exp.approximation_error(f, build_scheme("uniform", 3), INF)
        assert rec.ratio <= float(exp.CASE_B_BOUND)
        assert rec.bound == pytest.approx(47 / 30)

    def test_case_a_has_no_asserted_bound(self):
        f = exp.abs_power(1.0, 8)
        rec = exp.approximation_error(f, build_scheme("linear_up", 2), 2)
        assert math.isnan(rec.bound) and rec.bound_ok

    def test_ratio_affine_invariance(self):
        f = exp.abs_power(0.5, 8)
        g = SampledFunction(8, 3.5 * f.values - 2.0)
        scheme = build_scheme("uniform", 3)
        for p in (1.0, 2.0, INF):
            r1 = exp.approximation_error(f, scheme, p)
            r2 = exp.approximation_error(g, scheme, p)
            assert r1.ratio == pytest.approx(r2.ratio, rel=1e-9)


class TestRatioSweep:
    def test_uniform_sweep_all_ok(self):
        f = exp.abs_power(0.5, 9)
        recs = exp.ratio_sweep(f, map(uniform, range(1, 6)), (2.0,))
        assert len(recs) == 5
        assert exp.sweep_ok(recs)

    def test_custom_factory(self):
        f = exp.abs_power(1.0, 8)
        schemes = [build_scheme("cesaro", n, alpha=2) for n in (2, 3)]
        recs = exp.ratio_sweep(f, schemes, (1.0, INF))
        assert len(recs) == 4 and exp.sweep_ok(recs)

    @pytest.mark.parametrize("spec, weights", [("step_mix", "linear_up"), ("indicator:2", "cesaro")])
    def test_rows_equal_single_records(self, spec, weights):
        # The sweep shares one mean per block across p; each row must be
        # the record approximation_error computes alone, field for field.
        f = exp.make_function(spec, 8, seed=5)
        p_values = (1.0, 1.5, 2.0, INF)
        scheme_for = functools.partial(build_scheme, weights, alpha=2)
        recs = exp.ratio_sweep(f, map(scheme_for, range(1, 7)), iter(p_values))
        assert len(recs) == 6 * len(p_values)
        for rec in recs:
            alone = exp.approximation_error(f, scheme_for(rec.n), rec.p)
            for field in dataclasses.fields(exp.ApproxRecord):
                got, want = getattr(rec, field.name), getattr(alone, field.name)
                assert got == want or (math.isnan(got) and math.isnan(want)), field.name

    def test_large_exponent_rows(self):
        # Unscaled, the error underflowed to 0 for n >= 4 and the modulus
        # for n >= 6, so the rows passed with ratio 0.
        recs = exp.ratio_sweep(exp.abs_power(0.5, 10), map(uniform, range(1, 9)), (400.0,))
        assert all(r.error > 0 and r.modulus > 0 and not r.flag for r in recs)
        assert all(0.3 < r.ratio < 0.7 for r in recs)

    def test_failing_block_raises_before_the_next_scheme_is_built(self):
        # f = 1e308 has rank 0, so every block's mean has period 1; weights
        # of 3 send block 1's mean past the float range at its first p != 2.
        f = SampledFunction(8, np.full(256, 1e308))
        built = []

        def scheme_for(n):
            built.append(n)
            return WeightScheme(n, [3] * (1 << n))

        with pytest.raises(ValueError, match="the mean of block n = 1 passes the float range"):
            exp.ratio_sweep(f, map(scheme_for, range(1, 7)), (1.0,))
        assert built == [1]


class TestTranslateDifferenceBound:
    def test_zero_polynomial(self):
        f = exp.random_bounded(1, 7)
        zero = SampledFunction(7, np.zeros(128))
        lhs, rhs, ok = exp.verify_translate_difference_bound(f, zero, 3, 2)
        assert lhs == 0.0 and rhs == 0.0 and ok

    def test_constant_function(self):
        f = SampledFunction(7, np.full(128, 0.7))
        g = fejer(4, 7)
        lhs, rhs, ok = exp.verify_translate_difference_bound(f, g, 3, 1)
        assert lhs < 1e-14 and ok

    def test_fejer_instances(self):
        f = exp.random_bounded(5, 8)
        for n in (2, 3, 5):
            for k in (1, 1 << (n - 1), 1 << n):
                lhs, rhs, ok = exp.verify_translate_difference_bound(
                    f, fejer(k, 8), n, INF
                )
                assert ok

    def test_lhs_matches_naive_convolution(self):
        # The left side convolves f with r_n g on the spectral route; the
        # naive O(4^N) quadrature over all translates is its oracle.
        rng = exp.SplitMix64(17)
        for resolution in range(2, 9):
            idx = np.arange(1 << resolution)
            for n in range(1, resolution):
                f = SampledFunction(resolution, rng.uniforms(1 << resolution))
                g = fejer(1 + rng.randint(1 << n), resolution)
                rg = SampledFunction(resolution, (1 - 2 * ((idx >> n) & 1)) * g.values)
                inner = dyadic_convolve_naive(f, rg) - f * float(np.mean(rg.values))
                for p in (1.0, 2.0, INF):
                    lhs, _, _ = exp.verify_translate_difference_bound(f, g, n, p)
                    assert lhs == pytest.approx(lp_norm(inner, p), rel=1e-12, abs=1e-13)

    def test_rejects_wide_spectrum(self):
        # The hypothesis is the exact rank of g: a coefficient 2^-40 at 2^n,
        # below the old tolerance of 1e-12 max|g|, still refuses it.
        f = exp.random_bounded(6, 6)
        for g in (walsh(8, 6), fejer(4, 6) + 2.0**-40 * walsh(4, 6)):
            with pytest.raises(ValueError, match="dyadic rank [34], above n = 2"):
                exp.verify_translate_difference_bound(f, g, 2, 2)

    def test_signed_zeros_are_rank_zero(self):
        # The synthesis of [-0, -0, 0, ...] is zero, held as one -0.0.
        f = exp.random_bounded(4, 3)
        g = fwht_inverse(Spectrum(3, [-0.0, -0.0, 0, 0, 0, 0, 0, 0]))
        assert np.signbit(g.values).any() and not g.values.any()
        assert exp.verify_translate_difference_bound(f, g, 1, 2) == (0.0, 0.0, True)

    def test_signed_zeros_do_not_hide_a_dependence_on_x_n(self):
        f = exp.random_bounded(4, 3)
        g = SampledFunction(3, [-0.0, 0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="dyadic rank 2, above n = 1"):
            exp.verify_translate_difference_bound(f, g, 1, 2)

    def test_a_left_side_past_the_float_range_is_refused(self):
        # fhat(4) ghat(0) = 1e308 * 1e308 passes the float range: an inf left
        # side would pass any bound, inf <= inf, so it is refused.
        f = walsh(4, 4) * 1e308
        g = SampledFunction(4, np.full(16, 1e308))
        with pytest.raises(ValueError, match="left side at n = 2 passes the float range"):
            exp.verify_translate_difference_bound(f, g, 2, 1)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
    def test_a_modulus_past_the_float_range_is_refused(self, p):
        # omega_p(f, 1/2) is inf, and (7.5e307, inf, True) was returned: a
        # right side of inf bounds nothing.
        f = SampledFunction(4, np.tile([1e308, 1e308, -1e308, -1e308], 4))
        g = SampledFunction(4, np.tile([1.0, 0.5], 8))
        with pytest.raises(ValueError, match=f"the p = {p:.12g} modulus at n = 1 passes"):
            exp.verify_translate_difference_bound(f, g, 1, p)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 10), st.data())
    def test_lhs_is_the_convolution_route_bit_for_bit(self, resolution, data):
        # The route the left side replaced: convolve f with r_n g and
        # subtract f times the mean of r_n g.
        n = data.draw(st.integers(1, resolution - 1))
        p = data.draw(st.sampled_from((1.0, 2.0, 3.0, INF)))
        rng = exp.SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
        f = SampledFunction(resolution, rng.uniforms(1 << resolution))
        if data.draw(st.booleans()):
            coeffs = np.zeros(1 << resolution)
            count = data.draw(st.integers(1, 1 << n))
            coeffs[:count] = rng.uniforms(count)
            g = fwht_inverse(Spectrum(resolution, coeffs))
        else:
            g = fejer(data.draw(st.integers(1, 1 << n)), resolution)
        idx = np.arange(1 << resolution)
        rg = SampledFunction(resolution, (1.0 - 2.0 * ((idx >> n) & 1)) * g.values)
        inner = dyadic_convolve(f, rg) - f * fwht_forward(rg).coeffs[0]
        lhs, _, _ = exp.verify_translate_difference_bound(f, g, n, p)
        assert lhs == lp_norm(inner, p)


class TestVerifyAllLemmas:
    def test_minimal_resolution(self):
        results = exp.verify_all_lemmas(4, translate_count=30, random_schemes=5)
        assert all(r.passed for r in results)
        names = {r.name for r in results}
        assert "vp-kernel-decomposition" in names

    def test_sum_violation_is_orthogonal_to_decomposition(self):
        # a scheme breaking the sum condition still satisfies the exact
        # kernel split; only the validator flags it
        from walshvp.weights import WeightScheme, validate

        bad = WeightScheme(2, numerators=[2, 2, 2, 1], denominator=8)
        assert exp._decomposition_deviation(bad) == 0
        assert not validate(bad).sum_ok

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            exp.verify_all_lemmas(3)

    def test_work_past_the_budget_is_refused_before_any_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no check may start past the budget")

        for name in ("dirichlet_recursion", "fejer_bounds"):
            monkeypatch.setattr(exp, f"_check_{name}", refuse)
        with pytest.raises(ValueError, match="--lemma5-count or --random-schemes"):
            exp.verify_all_lemmas(12, translate_count=10**7)
        with pytest.raises(ValueError, match="budget"):
            exp.verify_all_lemmas(12, translate_count=0, random_schemes=10**7)

    def test_default_counts_pass_the_budget_up_to_the_cap(self, monkeypatch):
        from walshvp.dyadic import MAX_RESOLUTION

        # Every check is stubbed: only the guard runs at each resolution.
        result = exp.LemmaResult("stub", 1, 0.0, True)
        for name in ("dirichlet_recursion", "fejer_bounds"):
            monkeypatch.setattr(exp, f"_check_{name}", lambda *args: (result, result))
        for name in ("translate_difference", "decomposition"):
            monkeypatch.setattr(exp, f"_check_{name}", lambda *args: result)
        for resolution in range(4, MAX_RESOLUTION + 1):
            assert all(r.passed for r in exp.verify_all_lemmas(resolution))

    def test_sharp_fejer_bound_is_compared_exactly(self, monkeypatch):
        # a bound 2^-40 below the peak norm must fail; no slack absorbs it
        _, ell = kernel_norm_sweep(1 << 7, 8)
        peak = max(Fraction(int(v), n << 8) for n, v in enumerate(ell[1:], start=1))
        monkeypatch.setattr(exp, "FEJER_SHARP_BOUND", peak - Fraction(1, 1 << 40))
        _, sharp = exp._check_fejer_bounds(8)
        assert not sharp.passed and sharp.worst_margin < 0

    @pytest.mark.parametrize("N", range(4, 12))
    def test_fejer_peak_is_the_first_exact_maximum(self, N):
        _, ell = kernel_norm_sweep(1 << (N - 1), N)
        norms = [Fraction(int(v), n << N) for n, v in enumerate(ell[1:], start=1)]
        best = max(range(len(norms)), key=norms.__getitem__)
        uniform, sharp = exp._check_fejer_bounds(N)
        assert uniform.detail == sharp.detail == f"max={float(norms[best]):.12g}@n={best + 1}"
        assert uniform.worst_margin == float(2 - norms[best])
        assert sharp.worst_margin == float(exp.FEJER_SHARP_BOUND - norms[best])

    def test_equal_fejer_peaks_keep_the_first(self, monkeypatch):
        # l(2) / 2 = l(4) / 4 exactly: the lower order is the peak.
        ell = np.array([0, 16, 40, 30, 80, 16, 16, 16, 16])
        monkeypatch.setattr(exp, "kernel_norm_sweep", lambda n_max, N: (None, ell))
        _, sharp = exp._check_fejer_bounds(4)
        assert sharp.detail == "max=1.25@n=2"

    def test_fejer_peak_builds_few_fractions(self, monkeypatch):
        # Only the orders whose float l(n) / n ties the largest are compared
        # as Fractions; the check once built one for each of the 2^(N-1).
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(exp, "Fraction", counted)
        monkeypatch.setattr(walshvp.kernels, "Fraction", counted)
        uniform, sharp = exp._check_fejer_bounds(10)
        assert uniform.passed and sharp.passed
        assert sharp.detail == "max=1.1292269978@n=341"
        assert len(made) <= 4


class TestBatchedChecks:
    """The recursion, translate-difference and decomposition checks run in
    blocks of rows; an error in any one row must still show."""

    def _counted_recursion(self, monkeypatch, perturb_call=None):
        calls = []
        recursion = exp._dirichlet_rec_int

        def counted(orders, resolution):
            rows = recursion(orders, resolution)
            assert rows.shape == (len(orders), 1 << resolution)
            calls.append(len(orders))
            if len(calls) == perturb_call:
                rows[len(orders) // 2, 3] += 1  # cell 3 of the middle order
            return rows

        monkeypatch.setattr(exp, "_dirichlet_rec_int", counted)
        return calls

    @pytest.mark.parametrize("N", [4, 7, 10, 11])
    def test_one_wrong_cell_in_a_middle_block_fails(self, monkeypatch, N):
        # Each block's definition rows are its own orders', so a wrong row of
        # the recursion is compared with its own definition.  At N = 4 and 7 one block holds every order.
        perturb_call, blocks = {4: (1, 1), 7: (1, 1), 10: (8, 17), 11: (8, 33)}[N]
        calls = self._counted_recursion(monkeypatch, perturb_call=perturb_call)
        _, result = exp._check_dirichlet_recursion(N, 0)
        assert len(calls) == blocks
        assert not result.passed and result.worst_margin == 1

    @pytest.mark.parametrize("N", [4, 7, 10, 12, 16])
    @pytest.mark.parametrize("power", [True, False])
    def test_a_wrong_cell_fails_the_rows_of_its_column(self, monkeypatch, N, power):
        # The closed-form result reads the rows of the N + 1 powers of two,
        # the recursion result every row: a wrong cell of the recursion at
        # the order 2^(N-1), or at the first order above it, fails the
        # results that read its row.  N = 4, 7 and 10 check every order, in
        # one batch at N = 4 and 7; N = 12 samples them, and N = 16 runs one
        # order per batch.
        recursion, widths, wrong = exp._dirichlet_rec_int, [], []

        def perturbed(orders, resolution):
            rows = recursion(orders, resolution)
            widths.append(len(orders))
            for b, n in enumerate(orders.tolist()):
                if not wrong and (n == 1 << (N - 1) if power else n > 1 << (N - 1)):
                    rows[b, 3] += 1  # D_n is 0 at cell 3 for both kinds of n
                    wrong.append(n)
            return rows

        monkeypatch.setattr(exp, "_dirichlet_rec_int", perturbed)
        closed, result = exp._check_dirichlet_recursion(N, 0)
        assert len(wrong) == 1 and (wrong[0] & (wrong[0] - 1) == 0) == power
        assert closed.instances == N + 1 and result.instances == (1 << min(N, 10)) + 1
        assert not result.passed and result.worst_margin == 1
        assert closed.passed != power and closed.worst_margin == int(power)
        assert N < 16 or set(widths) == {1}

    @pytest.mark.parametrize("N", [1, 4, 10, 16])
    def test_the_recursion_builds_powers_of_two_as_their_closed_form(self, N):
        for m in range(N + 1):
            closed = np.zeros((1, 1 << N), dtype=np.int32)
            closed[:, :: 1 << m] = 1 << m  # 2^m on I_m, the cells whose m low bits are 0
            assert np.array_equal(exp._dirichlet_rec_int([1 << m], N), closed)

    @pytest.mark.parametrize("N", [10, 11])
    def test_recursion_runs_in_blocks(self, monkeypatch, N):
        calls = self._counted_recursion(monkeypatch)
        closed, result = exp._check_dirichlet_recursion(N, 0)
        assert result.passed and result.instances == 1025 == sum(calls)
        assert closed.passed and closed.instances == N + 1 and closed.worst_margin == 0
        rows = (1 << 16) >> N
        assert len(calls) <= -(-1025 // rows) and max(calls) <= rows

    def test_recursion_oracle_rows_are_int32(self, monkeypatch):
        # The definition rows are int32, |D_n| <= 2^N, one row per order of
        # each batch and every order once, in blocks of 64 orders at N = 10.
        # The check's one butterfly synthesizes the int8 identity of
        # 2^ceil(N/2) rows for the tables of every batch, at every N: no
        # batch synthesizes a row of 2^N entries.
        shapes, blocks = [], []
        butterfly, rows = walshvp.walsh_system._butterfly, exp._walsh_sum_rows

        def spied(a):
            shapes.append((a.dtype, a.shape, a.flags.c_contiguous))
            return butterfly(a)

        def counted(orders, resolution, tables):
            block = rows(orders, resolution, tables)
            blocks.append((orders.copy(), block.dtype, block.shape))
            return block

        monkeypatch.setattr(walshvp.kernels, "_butterfly", spied)
        monkeypatch.setattr(exp, "_walsh_sum_rows", counted)
        for N in range(4, 15):
            shapes.clear()
            blocks.clear()
            _, result = exp._check_dirichlet_recursion(N, 0)
            count = (1 << min(N, 10)) + 1
            assert result.passed and result.instances == count and result.worst_margin == 0
            side = 1 << (N + 1) // 2
            assert shapes == [(np.dtype(np.int8), (side, side), True)]
            assert {(o.dtype, b) for o, b, _ in blocks} == {(np.dtype(np.int32), np.dtype(np.int32))}
            orders = np.concatenate([o for o, _, _ in blocks])
            assert orders.size == count and np.unique(orders).size == count
            assert N > 10 or np.array_equal(orders, np.arange(count))
            assert all(shape == (o.size, 1 << N) for o, _, shape in blocks)
        assert [shape[0] for _, _, shape in blocks] == [4] * 256 + [1]  # N = 14
        exp._check_dirichlet_recursion(10, 0)
        assert [shape[0] for _, _, shape in blocks[-17:]] == [64] * 16 + [1]

    @pytest.mark.parametrize("N", [4, 7, 10, 12])
    def test_a_flipped_sign_of_the_oracle_synthesis_fails(self, monkeypatch, N):
        # The definition rows are built from the rows of one synthesized
        # identity: one wrong sign there (the last cell of its last row)
        # flips that Walsh row at that cell and the running sums below it,
        # so the definition rows that read them are off and the recursion
        # check fails.
        butterfly = walshvp.walsh_system._butterfly

        def flipped(a):
            signs = butterfly(a)
            signs[-1, -1] *= -1
            return signs

        monkeypatch.setattr(walshvp.kernels, "_butterfly", flipped)
        _, result = exp._check_dirichlet_recursion(N, 0)
        assert not result.passed and result.worst_margin >= 2

    @pytest.mark.parametrize("N, k", [(4, 0), (7, 77), (10, 1023), (12, 2049)])
    def test_one_flipped_walsh_term_of_the_running_sum_fails(self, monkeypatch, N, k):
        # With w_k counted as -w_k, every D_n with n > k is 2 w_k off, so the
        # recursion row fails by 2 and so does the closed form at 2^N > k.
        rows, wrong = exp._walsh_sum_rows, 2 * walsh(k, N).values.astype(np.int32)

        def flipped(orders, resolution, tables):
            block = rows(orders, resolution, tables)
            block[orders > k] -= wrong
            return block

        monkeypatch.setattr(exp, "_walsh_sum_rows", flipped)
        closed, result = exp._check_dirichlet_recursion(N, 0)
        assert not result.passed and result.worst_margin == 2
        assert not closed.passed and closed.worst_margin == 2

    def test_the_lemma_checks_build_no_kernel_function(self, monkeypatch):
        # Every kernel of the checks is a row of numerators or of floats.
        calls = []
        hold = walshvp.kernels.KernelFunction._hold
        monkeypatch.setattr(
            walshvp.kernels.KernelFunction, "_hold", lambda *args: calls.append(args) or hold(*args)
        )
        assert all(r.passed for r in exp.verify_all_lemmas(11, 0, 20, 4))
        assert calls == []
        walshvp.kernels.fejer(3, 4)
        assert len(calls) == 1  # the spy sees a builder

    def test_decomposition_builds_no_walsh_signs_row(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            walshvp.walsh_system, "walsh_signs", lambda *args: calls.append(args)
        )
        assert exp._decomposition_deviation(build_scheme("cesaro", 6, alpha=2)) == 0
        assert calls == []

    def test_recursion_rows_are_int32_and_its_kernel_int64(self):
        # |D_n| <= 2^N <= 2^24 under the cap, so int32 holds the rows; the
        # kernel built from one still hands int64 numerators over.
        assert exp._dirichlet_rec_int(np.array([0, 5, 1 << 10]), 10).dtype == np.int32
        assert dirichlet_via_recursion(5, 10).exact_numer.dtype == np.int64

    def _perturbed_parts(self, monkeypatch, perturb_call):
        # One wrong cell of part 2, in the middle row of the given call of
        # the batched integer core; returns the weight rows of each call.
        calls = []
        numerators = exp._vp_numerators

        def perturbed(t):
            kernel, first, second, third = numerators(t)
            calls.append(t)
            if perturb_call in (None, len(calls)):
                second[len(t) // 2, 3] += 1
            return kernel, first, second, third

        monkeypatch.setattr(exp, "_vp_numerators", perturbed)
        return calls

    def test_one_wrong_part_shows_a_deviation(self, monkeypatch):
        self._perturbed_parts(monkeypatch, None)
        scheme = build_scheme("linear_down", 3)
        assert exp._decomposition_deviation(scheme) == Fraction(1, scheme.denominator)
        assert not exp._check_decomposition(8, 0, 0).passed

    def test_one_wrong_cell_in_a_middle_batch_fails(self, monkeypatch):
        # Every scheme of the check sums to one, so its denominator L is the
        # sum of its numerators, and the wrong cell deviates by 1/L.
        calls = self._perturbed_parts(monkeypatch, 3)
        result = exp._check_decomposition(8, 0, 25)
        assert len(calls) > 3 and len(calls[2]) > 1
        wrong = calls[2][len(calls[2]) // 2]
        assert not result.passed
        assert result.worst_margin == float(Fraction(1, int(np.sum(wrong))))

    def test_one_wrong_left_side_fails_with_its_margin(self, monkeypatch):
        # The middle row of the third batch gets a kept spectrum 2^20 times
        # too large: its left side grows, its modulus (read off the
        # samples) does not.  Its margin is the one that row has alone.
        sizes, alone = [], []
        core = exp._translate_differences

        def perturbed(fs, gs, n, ps):
            sizes.append(len(fs))
            if len(sizes) == 3:
                j = len(fs) // 2
                f = fs[j]
                wrong = SampledFunction(f.resolution, f.values)
                spectrum = Spectrum(f.resolution, fwht_forward(f).coeffs * 2.0**20)
                object.__setattr__(wrong, "_spectrum", spectrum)
                fs = fs[:j] + [wrong] + fs[j + 1 :]
                alone.append(core([wrong], [gs[j]], n, [ps[j]])[0])
            return core(fs, gs, n, ps)

        monkeypatch.setattr(exp, "_translate_differences", perturbed)
        result = exp._check_translate_difference(8, 0, 40)
        lhs, rhs, ok = alone[0]
        assert len(sizes) > 3 and not ok and lhs > rhs
        assert not result.passed and result.worst_margin == rhs - lhs

    @pytest.mark.parametrize("N, count", [(8, 40), (12, 40), (16, 3)])
    def test_translate_difference_runs_in_blocks(self, monkeypatch, N, count):
        # A batch holds at most 2^16 cells of f: one instance from N = 16 on.
        sizes = []
        core = exp._translate_differences
        monkeypatch.setattr(
            exp, "_translate_differences",
            lambda fs, gs, n, ps: sizes.append(len(fs)) or core(fs, gs, n, ps),
        )
        result = exp._check_translate_difference(N, 0, count)
        assert result.passed and result.instances == count == sum(sizes)
        assert max(sizes) << N <= 1 << 16
        assert N < 16 or sizes == [1] * count

    def test_decomposition_runs_in_blocks(self, monkeypatch):
        calls = self._perturbed_parts(monkeypatch, 0)
        result = exp._check_decomposition(10, 0, 200)
        assert result.passed and result.instances == 224 == sum(map(len, calls))
        assert max(t.size << 1 for t in calls) <= 1 << 16

    def test_deviation_at_the_support_is_the_deviation_at_every_cell(self):
        # The kernel and its parts at 2^N cells repeat their values at the
        # 2^(n+1) cells of their support.
        rng = exp.SplitMix64(11)
        schemes = [
            build_scheme(family, n, alpha=alpha)
            for n in (1, 3, 5)
            for family, alpha in (
                ("uniform", None), ("linear_up", None), ("linear_down", None), ("cesaro", 2)
            )
        ]
        schemes += [exp.random_rational_scheme(1 + rng.randint(6), rng) for _ in range(8)]
        for scheme in schemes:
            support, resolution = scheme.block_exponent + 1, 9
            kernel = vp_kernel(scheme, resolution)
            parts = decompose_vp_kernel(scheme, resolution)
            total = sum(part.exact_numer for part in parts)
            deviation = int(np.max(np.abs(total - kernel.exact_numer)))
            assert exp._decomposition_deviation(scheme) == Fraction(deviation, kernel.exact_denom)
            at_support = [vp_kernel(scheme, support)] + list(decompose_vp_kernel(scheme, support))
            for whole, short in zip([kernel] + list(parts), at_support):
                tiled = np.tile(short.exact_numer, 1 << (resolution - support))
                assert np.array_equal(whole.exact_numer, tiled)


# JSON prints every bit of a float, where CSV rounds to 12 digits.
_BUDGET_OPS = [
    ["verify-lemmas", "--resolution", str(N), "--format", "json"] for N in (8, 9, 10)
] + [
    ["approx", "--resolution", "10", "--function", function, "--weights", weights,
     "--p", "1,2,3,inf", "--format", "json"]
    for function in ("abs_power:0.5", "random", "step_mix", "walsh_poly:1,0.5,0,-0.25")
    for weights in ("uniform", "linear_up", "cesaro:2", "cesaro:0.5")
] + [
    # 2^12 translates at n = 0 take the p = 1 sign split.
    ["modulus", "--function", "random", "--resolution", "12", "--p", "1", "--nmin", "0",
     "--nmax", "0", "--seed", "1", "--format", "json"],
    # Its recursion check runs blocks of 16 orders, and of 1 at a budget of
    # 2^6 cells, and its translate-difference check takes the sign split.
    ["verify-lemmas", "--resolution", "12", "--format", "json"],
]


def test_every_batch_budget_prints_the_same_bytes(capsys, monkeypatch):
    # The budget sizes every batch of the lemma checks and the blocks of
    # translates of the modulus tables (the approx sweep's among them)
    # through dyadic._rows_per_block, and no batch changes a printed bit.
    # 2^6 cells is one row per batch of 2^6 cells or more, the batches
    # every check takes from N = 16 on.  The sign split's bincount chunks,
    # which order its sums, have a size of their own, so its tables at
    # N = 12 keep their bits too.
    batches = exp._batches
    counts = []

    def counted(items, key):
        for batch in batches(items, key):
            counts[-1] += 1
            yield batch

    monkeypatch.setattr(exp, "_batches", counted)
    outputs = []
    for budget in (walshvp.dyadic._BLOCK_CELLS, 1 << 6, 1 << 11, 1 << 20):
        monkeypatch.setattr(walshvp.dyadic, "_BLOCK_CELLS", budget)
        counts.append(0)
        printed = []
        for argv in _BUDGET_OPS:
            code = main(argv)
            captured = capsys.readouterr()
            printed.append((code, captured.out, captured.err))
        outputs.append(printed)
    assert all(code == 0 for code, _, _ in outputs[0])
    assert all(printed == outputs[0] for printed in outputs[1:])
    assert len(set(counts)) == len(counts)  # each budget batches differently


def _batched(resolution, instances):
    """_translate_differences over instances (f row, g row, n, p), the
    instances of each n in one batch, as the lemma check batches them:
    each row held as a function, which cuts a tiled Fejer period to the
    Fejer kernel's own head, and their spectra kept by the one
    _keep_spectra call of the batch."""
    results = [None] * len(instances)
    by_n = {}
    for i, (_, _, n, _) in enumerate(instances):
        by_n.setdefault(n, []).append(i)
    for n, members in by_n.items():
        fs, gs = (
            [SampledFunction._own(resolution, instances[i][k].copy()) for i in members]
            for k in (0, 1)
        )
        ps = [instances[i][3] for i in members]
        for i, result in zip(members, exp._translate_differences(fs, gs, n, ps)):
            results[i] = result
    return results


class TestTranslateDifferenceBatches:
    """A batch of translate-difference instances gives each instance the
    (lhs, rhs, ok) of verify_translate_difference_bound alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_batch_equals_one_at_a_time(self, resolution, data):
        rng = exp.SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
        batch, alone = [], []
        for _ in range(data.draw(st.integers(1, 6))):
            n = data.draw(st.integers(1, resolution - 1))
            p = data.draw(st.sampled_from((1.0, 2.0, 3.0, INF)))
            f = rng.uniforms(1 << resolution)
            rank = data.draw(st.integers(0, resolution))  # below N for a rank < N row
            f = np.tile(f[: 1 << rank], 1 << (resolution - rank))
            kind = data.draw(st.sampled_from(("spectral", "fejer", "fejer(1)")))
            if kind == "spectral":
                draws = rng.uniforms(1 << n)
                g_row = walshvp.walsh_system.hadamard_transform(draws)
                padded = np.pad(draws, (0, (1 << resolution) - draws.size))
                g = fwht_inverse(Spectrum(resolution, padded))
            else:
                k = 1 if kind == "fejer(1)" else data.draw(st.integers(1, 1 << n))
                g = fejer(k, resolution)
                g_row = np.tile(g._head, (1 << n) // g._head.size)
            batch.append((f, g_row, n, p))
            f_alone = SampledFunction(resolution, f)
            alone.append(exp.verify_translate_difference_bound(f_alone, g, n, p))
        assert _batched(resolution, batch) == alone

    def test_the_sign_split_row_equals_one_at_a_time(self, monkeypatch):
        # At N = 12 and n = 1 each coset has 2^11 translates, from which the
        # p = 1 table is built by the sign split.
        split = []
        sums = walshvp.dyadic._sign_split_sums
        monkeypatch.setattr(
            walshvp.dyadic, "_sign_split_sums", lambda *a: split.append(a[1]) or sums(*a)
        )
        rng = exp.SplitMix64(12)
        batch, alone = [], []
        for k in (1, 2):
            f = rng.uniforms(1 << 12)
            g = fejer(k, 12)
            batch.append((f, np.tile(g._head, 2 // g._head.size), 1, 1.0))
            alone.append(exp.verify_translate_difference_bound(SampledFunction(12, f), g, 1, 1))
        assert split == [1, 1]
        assert _batched(12, batch) == alone and split == [1, 1, 1, 1]
        assert all(ok for _, _, ok in alone)


def _approx(capsys, weights, p, fmt):
    argv = ["approx", "--function", "abs_power:1.0", "--weights", weights, "--p", p,
            "--resolution", "8", "--nmin", "2", "--nmax", "2", "--format", fmt]
    code = main(argv)
    return code, capsys.readouterr().out


class TestSerialization:
    """Sweep records as the approx command's single record writer prints them."""

    def test_csv_rows(self, capsys):
        code, out = _approx(capsys, "uniform", "1,inf", "csv")
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert code == 0
        assert rows[0] == "n,p,error,modulus,ratio,bound,bound_ok,flag"
        assert rows[1].startswith("2,1,") and rows[2].startswith("2,inf,")
        assert [row["bound_ok"] for row in csv.DictReader(rows)] == ["true", "true"]

    def test_json_rows(self, capsys):
        code, out = _approx(capsys, "uniform", "1,inf", "json")
        assert code == 0
        assert [row["p"] for row in json.loads(out)["records"]] == ["1", "inf"]
        # no constant is asserted for increasing weights
        code, out = _approx(capsys, "linear_up", "2", "json")
        payload = json.loads(out)["records"]
        assert code == 0 and payload[0]["bound"] is None and payload[0]["bound_ok"] is True
