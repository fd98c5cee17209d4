import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvp import dyadic
from walshvp.cli import main
from walshvp.dyadic import (
    INF,
    SampledFunction,
    abs_values,
    interval_indicator,
    lp_norm,
    modulus_of_continuity,
    read_function,
    translate,
    write_function,
)
from walshvp.walsh_system import fwht_forward, walsh


def rand_fn(seed, resolution):
    rng = np.random.default_rng(seed)
    return SampledFunction(resolution, rng.uniform(-1, 1, 1 << resolution))


def _abs_value(a, resolution):
    """Scalar oracle for abs_values: |x| = sum_i x_i / 2^(i+1)."""
    total = 0.0
    for i in range(resolution):
        if (a >> i) & 1:
            total += 2.0 ** -(i + 1)
    return total


def _abs_values_by_bits(resolution):
    """The bitwise loop abs_values replaced: one pass per coordinate."""
    idx = np.arange(1 << resolution, dtype=np.int64)
    total = np.zeros(idx.size)
    for i in range(resolution):
        total += ((idx >> i) & 1) * 2.0 ** -(i + 1)
    return total


def _add(a, b, resolution):
    """a + b read off translate: the identity f(x) = x translated by b,
    evaluated at a."""
    ident = SampledFunction(resolution, np.arange(1 << resolution, dtype=np.float64))
    return int(translate(ident, b).values[a])


class TestGroup:
    """The group operation, as translate applies it."""

    def test_null_element(self):
        assert _add(0, 5, 3) == 5

    def test_self_inverse(self):
        assert _add(5, 5, 3) == 0

    def test_xor(self):
        assert _add(3, 5, 3) == 6
        # translate by t permutes the cells by XOR with t
        for t in range(16):
            assert [_add(x, t, 4) for x in range(16)] == [x ^ t for x in range(16)]

    def test_group_axioms_exhaustive(self):
        # associativity/commutativity over the whole group at N=4
        size = 16
        for a in range(size):
            for b in range(size):
                ab = _add(a, b, 4)
                assert ab == _add(b, a, 4)
                for c in range(0, size, 5):
                    assert _add(ab, c, 4) == _add(a, _add(b, c, 4), 4)

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            translate(rand_fn(0, 3), 9)


class TestAbsValue:
    def test_zero(self):
        assert abs_values(4)[0] == 0.0

    def test_first_coordinate(self):
        assert abs_values(4)[1] == 0.5

    def test_all_ones_n3(self):
        # 1/2 + 1/4 + 1/8
        assert abs_values(3)[7] == 0.875

    def test_range_and_involution(self):
        vals = abs_values(4)
        for j in range(16):
            assert 0.0 <= vals[j] <= 1 - 2.0**-4
            assert vals[_add(j, j, 4)] == 0.0

    def test_vectorized_matches_scalar(self):
        vals = abs_values(5)
        assert vals.tolist() == [_abs_value(j, 5) for j in range(32)]

    def test_doubling_matches_bitwise_loop(self):
        for N in range(1, 21):
            assert abs_values(N).tobytes() == _abs_values_by_bits(N).tobytes()


class TestIntegrate:
    # The integral against the Haar measure is the coefficient fhat(0).
    def test_constant_one(self):
        assert fwht_forward(SampledFunction(6, np.ones(64))).coeffs[0] == 1.0

    def test_rademacher_mean_zero(self):
        for n in (2, 5):
            assert fwht_forward(walsh(1, n)).coeffs[0] == 0.0

    def test_dirichlet_power_of_two(self):
        # D_4 at N=3: 4 on I_2 (two cells of measure 1/8 each)
        from walshvp.kernels import dirichlet

        assert fwht_forward(dirichlet(4, 3)).coeffs[0] == 1.0


@st.composite
def power_of_two_arrays(draw):
    """A float array of 2^m entries, m <= 6, whose sums round."""
    size = 1 << draw(st.integers(0, 6))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(values, min_size=size, max_size=size)))


class TestPairwiseTotal:
    # Every sum is the one tree of _pairwise_total, so a route that sums
    # rows first, or only one period of a periodic array, keeps the bits of
    # the full-size sum.
    @given(power_of_two_arrays(), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_row_sums_are_the_first_levels_of_the_total(self, values, log_rows):
        rows = values.reshape(1 << min(log_rows, values.size.bit_length() - 1), -1)
        sums = dyadic._pairwise_total(rows)
        assert sums.tobytes() == np.array([dyadic._pairwise_total(r) for r in rows]).tobytes()
        assert dyadic._pairwise_total(sums) == dyadic._pairwise_total(values)

    @given(power_of_two_arrays(), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_a_tiling_sums_to_copies_times_its_period(self, period, log_copies):
        # Past the period's levels the tree adds equal sums: each doubling
        # is exact, as _modulus_table and fwht_forward assume.
        total = dyadic._pairwise_total(np.tile(period, 1 << log_copies))
        assert total == 2.0**log_copies * dyadic._pairwise_total(period)


def _flat_norm(values, p, resolution, period):
    """The L_p norm of values less the tiled period (none: values) from one
    array of all the magnitudes: the flat route that the blocks replace."""
    if period is not None:
        values = values - np.tile(period, values.size // period.size)
    magnitudes = np.abs(values)
    top = float(np.max(magnitudes))
    if p == INF or not 0.0 < top < INF:
        return top
    scale = dyadic._power_scale(top, p, resolution)
    if scale != 1.0:
        magnitudes /= scale
    magnitudes **= p
    return scale * (dyadic._pairwise_total(magnitudes) / values.size) ** (1.0 / p)


@st.composite
def blocked_norm_cases(draw):
    """(values, period or None, p, budget) for N = 18: 2^0..2^18 values, on
    both sides of _BLOCK_CELLS, a period from 1 entry up to all of them, and
    magnitudes from subnormals up to 2^1000, at which every finite p is
    scaled; the values may repeat the period, so the norm is 0.  The
    budget is _BLOCK_CELLS or 2^4, which cuts small arrays into many
    blocks."""
    size = 1 << draw(st.integers(0, 18))
    period_size = 1 << draw(st.integers(0, size.bit_length() - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    magnitude = 2.0 ** draw(st.sampled_from([-1074, -1060, -600, 0, 600, 1000]))
    values = rng.uniform(-4, 4, size) * magnitude
    period = None
    if draw(st.booleans()):
        period = rng.uniform(-4, 4, period_size) * magnitude
        if draw(st.booleans()):
            values = np.tile(period, size // period_size)
    p = draw(st.sampled_from([1.0, 2.0, 3.5, INF, 1000.0]))
    return values, period, p, draw(st.sampled_from([dyadic._BLOCK_CELLS, 1 << 4]))


class TestLpNorm:
    @given(blocked_norm_cases())
    @settings(max_examples=120, deadline=None)
    def test_blocks_are_the_flat_norm_bit_for_bit(self, case):
        # Each block's tree is a node of the flat tree, so the blocks keep
        # the flat norm's bits; the unscaled first pass may overflow where
        # the flat route scales, and must not warn of it.
        values, period, p, budget = case
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flat = _flat_norm(values, p, 18, period)
        with warnings.catch_warnings(), mock.patch.object(dyadic, "_BLOCK_CELLS", budget):
            if not caught:
                warnings.simplefilter("error")
            blocked = dyadic._lp_of_values(values, p, 18, period=period)
        assert blocked.hex() == flat.hex()

    def test_walsh_l2_unit(self):
        for n in (0, 3, 7):
            assert lp_norm(walsh(n, 3), 2) == pytest.approx(1.0, abs=1e-14)

    def test_rademacher_l1(self):
        assert lp_norm(walsh(1, 4), 1) == 1.0

    def test_dirichlet2_l1(self):
        from walshvp.kernels import dirichlet

        assert lp_norm(dirichlet(2, 4), 1) == pytest.approx(1.0, abs=1e-15)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            lp_norm(SampledFunction(2, np.ones(4)), 0.5)

    @pytest.mark.parametrize("level", [10.0, 1e-3])
    def test_large_exponent_of_a_constant(self, level):
        # Unscaled, 10^400 overflows to inf and 10^-1200 underflows to 0.
        f = SampledFunction(4, np.full(16, level))
        assert lp_norm(f, 400) == pytest.approx(level, rel=1e-14)

    def test_large_exponent_is_scale_invariant(self):
        f = rand_fn(7, 6)
        for p in (3.0, 400.0, 1e4):
            base = lp_norm(f, p)
            for factor in (2.0**-600, 2.0**600):
                assert lp_norm(f * factor, p) == pytest.approx(base * factor, rel=1e-12)

    @given(st.integers(0, 2**31), st.sampled_from([1.0, 2.0, INF]))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed, p):
        f = rand_fn(seed, 5)
        g = rand_fn(seed + 1, 5)
        lhs = lp_norm(f + g, p)
        rhs = lp_norm(f, p) + lp_norm(g, p)
        assert lhs <= rhs * (1 + 1e-12)


class TestTranslate:
    def test_null_translation(self):
        f = rand_fn(0, 5)
        assert np.array_equal(translate(f, 0).values, f.values)

    def test_involution(self):
        f = rand_fn(1, 5)
        assert np.array_equal(translate(translate(f, 13), 13).values, f.values)

    def test_character_property(self):
        # w_n(x + t) = w_n(t) w_n(x), brute force over all t
        for n in (1, 5, 11):
            w = walsh(n, 4)
            for t in range(16):
                expected = w.values[t] * w.values
                assert np.array_equal(translate(w, t).values, expected)

    def test_norm_preserved(self):
        f = rand_fn(2, 6)
        for p in (1.0, 2.0, INF):
            assert lp_norm(translate(f, 37), p) == lp_norm(f, p)


class TestModulus:
    def test_rademacher_fine_scale(self):
        assert modulus_of_continuity(walsh(1, 4), 1, INF) == 0.0

    def test_rademacher_coarse_scale(self):
        for p in (1.0, 2.0, INF):
            assert modulus_of_continuity(walsh(1, 4), 0, p) == pytest.approx(
                2.0, abs=1e-14
            )

    def test_abs_value_sup_modulus(self):
        N = 7
        f = SampledFunction(N, abs_values(N))
        for n in (1, 3, 5):
            assert modulus_of_continuity(f, n, INF) == pytest.approx(
                2.0**-n - 2.0**-N, abs=1e-15
            )

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_fast_path_matches_brute_force(self, p):
        # Unscaled, the squared coefficients of the spectral p = 2 route
        # overflowed (nan) at 2^600 and underflowed (0) at 2^-600.
        for factor in (1.0, 2.0**-600, 2.0**600):
            f = rand_fn(3, 7) * factor
            for n in range(8):
                fast = modulus_of_continuity(f, n, p)
                brute = modulus_of_continuity(f, n, p, brute_force=True)
                if p == 2.0:  # the spectral route rounds differently
                    assert fast == pytest.approx(brute, rel=1e-12, abs=1e-12 * factor)
                else:
                    assert fast == brute

    @given(
        st.integers(1, 10),
        st.data(),
        st.sampled_from([1.0, 1.25, 2.0, 3.0, 7.5, 400.0, INF]),
        st.integers(0, 2**32 - 1),
        st.integers(-600, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_oracle_property(self, N, data, p, seed, exponent):
        n = data.draw(st.integers(0, N))
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1, 1, 1 << N) * 2.0**exponent
        values[rng.random(1 << N) < 0.3] = 0.0  # repeated values, flat cosets
        f = SampledFunction(N, values)
        fast = modulus_of_continuity(f, n, p)
        brute = modulus_of_continuity(f, n, p, brute_force=True)
        if p == 2.0:
            assert fast == pytest.approx(brute, rel=1e-9, abs=1e-300)
        else:
            assert fast == brute
        assert math.isfinite(fast) and (fast > 0) == (brute > 0)

    def test_vanishes_at_full_rank(self):
        f = rand_fn(4, 6)
        for p in (1.0, 2.0, INF):
            assert modulus_of_continuity(f, 6, p) == 0.0

    def test_nonincreasing_in_n(self):
        f = rand_fn(5, 6)
        for p in (1.0, 2.0, INF):
            vals = [modulus_of_continuity(f, n, p) for n in range(7)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_twice_norm(self):
        f = rand_fn(6, 6)
        for p in (1.0, 2.0, INF):
            assert modulus_of_continuity(f, 0, p) <= 2 * lp_norm(f, p) + 1e-12

    def test_large_exponent_modulus_is_positive(self):
        # Unscaled, the 400th powers of the differences underflowed to 0
        # at n = 6..9.
        N = 10
        f = SampledFunction(N, abs_values(N) ** 0.5)
        moduli = [modulus_of_continuity(f, n, 400) for n in range(N + 1)]
        assert all(m > 0 for m in moduli[:N]) and moduli[N] == 0.0
        assert all(a > b for a, b in zip(moduli, moduli[1:]))

    def test_overflowing_differences(self):
        # A difference of 2e308 is inf; scaling by it must not give nan.
        f = SampledFunction(3, [1e308, -1e308, 0, 0, 1, 2, 3, 4])
        for p in (1.0, 3.0, INF):
            with np.errstate(over="ignore"):
                assert modulus_of_continuity(f, 0, p) == math.inf
                assert modulus_of_continuity(f, 0, p, brute_force=True) == math.inf
            assert modulus_of_continuity(f, 1, p) == modulus_of_continuity(
                f, 1, p, brute_force=True
            ) < math.inf

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(rand_fn(0, 4), 5, 1)


def _periodic_fn(seed, resolution, rank, exponent=0):
    """A function of x mod 2^rank only, with repeated values."""
    rng = np.random.default_rng(seed)
    cells = rng.uniform(-1, 1, 1 << rank) * 2.0**exponent
    cells[rng.random(1 << rank) < 0.3] = 0.0
    return SampledFunction(resolution, np.tile(cells, 1 << (resolution - rank)))


@pytest.fixture
def tables(monkeypatch):
    """(cells, n, p, scale) of every table of translate sums built."""
    built = []
    sums = dyadic._translate_sums

    def counted(values, n, p, scale):
        built.append((values.size, n, p, scale))
        return sums(values, n, p, scale)

    monkeypatch.setattr(dyadic, "_translate_sums", counted)
    return built


class TestRankAndSharedTable:
    """The blocked route at the function's dyadic rank, with one table of
    translate sums per (function, p), against the brute-force loop."""

    @given(
        st.integers(1, 10),
        st.data(),
        st.sampled_from([1.0, 1.25, 3.0, 7.5, 400.0]),
        st.integers(0, 2**32 - 1),
        st.integers(-600, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodic_function_matches_oracle(self, N, data, p, seed, exponent):
        rank = data.draw(st.integers(0, N))
        n = data.draw(st.integers(0, N))
        f = _periodic_fn(seed, N, rank, exponent)
        fast = modulus_of_continuity(f, n, p)
        assert fast == modulus_of_continuity(f, n, p, brute_force=True)
        if n >= rank:
            assert fast == 0.0

    def test_rank_is_the_smallest_period(self):
        for rank in range(7):
            f = _periodic_fn(rank, 6, rank)
            # seeds 0..6 give no period shorter than 2^rank
            assert dyadic._dyadic_rank(f.values) == rank
        assert dyadic._dyadic_rank(np.zeros(8)) == 0
        # -0.0 and 0.0 are one value to the rank test
        assert dyadic._dyadic_rank(np.array([0.0, -0.0, 0.0, 0.0])) == 0

    @pytest.mark.parametrize("rank", [3, 8])
    @pytest.mark.parametrize("exponent", [0, 600, -600])
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_any_order_of_n_gives_the_fresh_bits(self, rank, exponent, p):
        # At 2^+-600 and p = 3 each scale is the coset oscillation of its
        # own n, so a table is reused only where that oscillation repeats.
        N = 8
        orders = (range(N + 1), range(N, -1, -1), [4, 4, 2, 6, 2, 0, 7, 1, 1, 5, 3, 8])
        fresh = {n: modulus_of_continuity(_periodic_fn(5, N, rank, exponent), n, p)
                 for n in range(N + 1)}
        assert fresh == {n: modulus_of_continuity(_periodic_fn(5, N, rank, exponent), n, p,
                                                  brute_force=True) for n in range(N + 1)}
        for order in orders:
            f = _periodic_fn(5, N, rank, exponent)
            assert [modulus_of_continuity(f, n, p) for n in order] == [fresh[n] for n in order]

    @pytest.mark.parametrize("rank", [3, 8])
    @pytest.mark.parametrize("exponent", [0, 600, -600])
    def test_any_order_of_n_gives_the_fresh_bits_of_the_l2_table(self, rank, exponent):
        # The p = 2 table at any n0 is the full one by stride, so a kept
        # table gives the bits of a fresh function's own table.
        N = 8
        orders = (range(N + 1), range(N, -1, -1), [4, 4, 2, 6, 2, 0, 7, 1, 1, 5, 3, 8])
        fresh = {n: modulus_of_continuity(_periodic_fn(5, N, rank, exponent), n, 2)
                 for n in range(N + 1)}
        for order in orders:
            f = _periodic_fn(5, N, rank, exponent)
            assert [modulus_of_continuity(f, n, 2) for n in order] == [fresh[n] for n in order]

    def test_any_order_of_n_keeps_a_split_table_near_the_oracle(self, tables):
        # A split table's bits depend on the n0 it was built at, so each
        # modulus is only held to the bound of TestSignSplit.  Ascending
        # from n = 0, the split table at n0 = 0 serves n = 1..10; at n = 11
        # its largest sum is 6e-4 of the table's, so n = 11 is built again.
        N = 12
        orders = (range(N + 1), range(N, -1, -1), [5, 0, 9, 1, 11, 3, 10, 0, 12, 7])
        brute = [modulus_of_continuity(SampledFunction(N, abs_values(N) ** 0.5), n, 1,
                                       brute_force=True) for n in range(N + 1)]
        for order in orders:
            f = SampledFunction(N, abs_values(N) ** 0.5)
            fast = [modulus_of_continuity(f, n, 1) for n in order]
            assert fast == pytest.approx([brute[n] for n in order],
                                         rel=1e-13 / dyadic._SPLIT_MIN_SHARE, abs=0.0)
            if order is orders[0]:
                assert tables == [(1 << N, 11, 1.0, 1.0)]

    def test_scaled_table_is_replaced_when_the_scale_changes(self, tables):
        a = 2.0**400  # 3 * 400 > 960: the powers are scaled by the oscillation
        f = SampledFunction(3, [a, -a, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        order = (0, 1, 2, 1, 0)
        assert [modulus_of_continuity(f, n, 3.0) for n in order] == [
            modulus_of_continuity(f, n, 3.0, brute_force=True) for n in order
        ]
        # The oscillation is 2a at n = 0 and a at n = 1, 2: n = 1 replaces
        # the table, n = 2 and the second n = 1 reuse it, n = 0 rebuilds.
        assert [(n, scale) for _, n, _, scale in tables] == [(0, 2 * a), (1, a), (0, 2 * a)]

    def test_one_table_per_sweep(self, capsys, tables):
        code = main(["approx", "--function", "step_mix", "--weights", "uniform",
                     "--resolution", "10", "--p", "1", "--nmin", "1", "--nmax", "8"])
        capsys.readouterr()
        # step_mix depends on 4 bits: one table of 2^3 translates at rank 4
        assert code == 0 and tables == [(1 << 4, 1, 1.0, 1.0)]

    @pytest.mark.parametrize("resolution, built", [(12, []), (10, [(1 << 10, 1, 1.0, 1.0)])])
    def test_p1_route_follows_the_translates_per_coset(self, capsys, tables, resolution, built):
        # abs_power has full rank, so n0 = 1 leaves 2^(N-1) translates per
        # coset: 2^11 take the sign split, 2^9 the blocked route.
        code = main(["approx", "--function", "abs_power:0.5", "--weights", "uniform",
                     "--resolution", str(resolution), "--p", "1", "--nmin", "1"])
        capsys.readouterr()
        assert code == 0 and tables == built


SPLIT_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def split_tables(draw):
    """(N, r, n0, samples of x mod 2^r tiled to 2^N) for N <= 10, any r <= N
    and n0 <= r.  The samples come from a pool of one, two or a few values
    (constant, two-valued, heavy ties) or from any values, around 0 or 1e6,
    at 1 or 2^+-600."""
    N = draw(st.integers(1, 10))
    r = draw(st.integers(0, N))
    pool = draw(st.sampled_from([1, 2, 5, None]))
    if pool is not None:
        values = st.sampled_from(draw(st.lists(SPLIT_SAMPLES, min_size=1, max_size=pool)))
    else:
        values = SPLIT_SAMPLES
    cells = np.array(draw(st.lists(values, min_size=1 << r, max_size=1 << r)))
    if draw(st.booleans()):  # far from 0: the differences cancel the offset
        cells += 1e6
    cells *= 2.0 ** draw(st.sampled_from([0, 600, -600]))
    return N, r, draw(st.integers(0, r)), np.tile(cells, 1 << (N - r))


class TestSignSplit:
    """The p = 1 table by the sign split, against the blocked table and the
    brute-force loop."""

    @given(split_tables())
    @settings(max_examples=150, deadline=None)
    def test_split_table_matches_blocked_and_oracle(self, case):
        N, r, n0, values = case
        top = dyadic._coset_oscillation(values, n0)
        scale = dyadic._power_scale(top, 1.0, N) if top > 0 else 1.0
        cells = values[: 1 << r]
        split = dyadic._sign_split_sums(cells, n0, scale)
        blocked = dyadic._translate_sums(cells, n0, 1.0, scale)
        assert np.all(np.abs(split - blocked) <= 1e-13 * np.max(blocked))
        again = dyadic._sign_split_sums(cells.copy(), n0, scale)
        assert split.tobytes() == again.tobytes()
        # Every table of the sweep from n0 on is a split one: a served stride
        # holds at least _SPLIT_MIN_SHARE of its table's largest sum.
        f = SampledFunction(N, values)
        with mock.patch.object(dyadic, "_SPLIT_MIN_TRANSLATES", 1):
            fast = [modulus_of_continuity(f, n, 1) for n in range(n0, N + 1)]
        brute = [modulus_of_continuity(f, n, 1, brute_force=True) for n in range(n0, N + 1)]
        assert fast == pytest.approx(brute, rel=1e-13 / dyadic._SPLIT_MIN_SHARE, abs=0.0)
        assert [m > 0 for m in fast] == [m > 0 for m in brute]

    @pytest.mark.parametrize("kind", ["coarse_and_fine", "abs_power"])
    def test_moduli_at_n12_match_the_oracle(self, kind):
        # coarse_and_fine varies by about 1 on bits 0..5 and by 1e-15 on bits
        # 6..11, so from n = 6 on its sums are 1e-15 of the largest sum of
        # the table at n0 = 0; served from that table they were 26% off.
        N = 12
        if kind == "abs_power":
            f = SampledFunction(N, abs_values(N) ** 0.5)
        else:
            idx = np.arange(1 << N)
            coarse, fine = np.random.default_rng(0).uniform(0, 1, (2, 64))
            f = SampledFunction(N, coarse[idx & 63] + 1e-15 * fine[idx >> 6])
        fast = [modulus_of_continuity(f, n, 1) for n in range(N + 1)]
        brute = [modulus_of_continuity(f, n, 1, brute_force=True) for n in range(N + 1)]
        assert fast == pytest.approx(brute, rel=1e-12, abs=0.0)


class TestBatches:
    """dyadic._batches, the one batch driver of the lemma checks and the
    approx sweep."""

    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, 2, 4, 8, 16]))))
    @settings(max_examples=300, deadline=None)
    def test_runs_cover_the_items_in_order_and_fill_up(self, keys):
        drawn = []

        def items():
            for i, key in enumerate(keys):
                drawn.append(i)
                yield i, key

        def key(item):
            return item[1]

        runs, drawn_at = [], []
        with mock.patch.object(dyadic, "_BLOCK_CELLS", 8):  # 8, 4, 2, 1 and 1 rows
            for run in dyadic._batches(items(), key):
                runs.append(run)
                drawn_at.append(len(drawn))
            rows = [dyadic._rows_per_block(key(run[0])[1]) for run in runs]
        assert [item for run in runs for item in run] == list(enumerate(keys))
        for run, limit, seen in zip(runs, rows, drawn_at):
            assert {key(item) for item in run} == {key(run[0])}
            assert 1 <= len(run) <= limit
            # A full run is yielded before the next item is drawn, any other
            # run just after the item that ends it.
            last = run[-1][0]
            assert seen == last + 1 if len(run) == limit else seen == min(last + 2, len(keys))
        # A run ends short only where the key changes.
        for run, limit, after in zip(runs, rows, runs[1:]):
            assert len(run) == limit or key(after[0]) != key(run[0])


class TestIntervalIndicator:
    def test_rank_zero_is_constant_one(self):
        assert np.all(interval_indicator(0, 4).values == 1.0)

    def test_full_rank_single_cell(self):
        f = interval_indicator(4, 4)
        assert f.values[0] == 1.0 and np.sum(f.values) == 1.0

    def test_measure(self):
        for n in range(5):
            assert fwht_forward(interval_indicator(n, 4)).coeffs[0] == 2.0**-n


class TestRoundingAndIO:
    def test_text_roundtrip(self):
        f = rand_fn(7, 4)
        buf = io.StringIO()
        write_function(f, buf)
        buf.seek(0)
        g = read_function(buf)
        assert g.resolution == 4
        assert np.array_equal(g.values, f.values)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_function(io.StringIO("bogus\n"))


class TestValidation:
    def test_resolution_cap(self):
        assert dyadic.MAX_RESOLUTION == 24
        assert dyadic.check_resolution(24) == 24
        with pytest.raises(ValueError, match=r"resolution must be in \[1, 24\], got 25"):
            dyadic.check_resolution(25)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SampledFunction(2, [1.0, math.nan, 0.0, 0.0])

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            SampledFunction(3, [0.0] * 7)

    def test_immutability(self):
        f = SampledFunction(2, np.zeros(4))
        with pytest.raises(AttributeError):
            f.resolution = 5

    def test_values_are_a_read_only_view(self):
        source = np.zeros(4)
        f = SampledFunction(2, source)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        source[0] = 1.0  # the caller's array stays writable
