import functools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvp.kernels import _block_weights
from walshvp.weights import (
    BOTH,
    DEFAULT_CASE_A_CAP,
    NONDECREASING,
    NONE,
    NONINCREASING,
    ValidationReport,
    WeightScheme,
    _CesaroChain,
    _FamilySchemes,
    _over_common_denominator,
    build_scheme,
    load_weight_file,
    validate,
)


def _cesaro_oracle(alpha, n):
    """The Fraction recurrence of the Cesaro weights, put over the lcm of
    their denominators: the route the integer prefix and suffix products
    replaced."""
    beta = Fraction(alpha).limit_denominator(10**9) - 1
    coeffs = [Fraction(1)]
    for m in range(1, 1 << n):
        coeffs.append(coeffs[-1] * (beta + m) / m)
    raw = coeffs[::-1]
    if any(t < 0 for t in raw):
        raise ValueError("negative weights")
    denom = math.lcm(*(q.denominator for q in raw))
    numer = [q.numerator * (denom // q.denominator) for q in raw]
    return WeightScheme(n, numerators=numer, denominator=sum(numer))


def _assert_same_scheme(w, expected):
    assert w.numerators.dtype == expected.numerators.dtype
    assert [int(a) for a in w.numerators] == [int(a) for a in expected.numerators]
    assert w.denominator == expected.denominator
    assert w.weights.tobytes() == expected.weights.tobytes()


class TestCesaroIntegers:
    @pytest.mark.parametrize("alpha", [2, 0.5, 1 / 3])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_fraction_oracle(self, alpha, n):
        _assert_same_scheme(build_scheme("cesaro", n, alpha=alpha), _cesaro_oracle(alpha, n))

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(-2000, 2000), q=st.integers(1, 1000), n=st.integers(1, 10))
    def test_matches_fraction_oracle_property(self, p, q, n):
        alpha = Fraction(p, q)
        if alpha <= -1:
            with pytest.raises(ValueError):
                build_scheme("cesaro", n, alpha=alpha)
            return
        try:
            expected = _cesaro_oracle(alpha, n)
        except ValueError:
            with pytest.raises(ValueError, match="negative weights"):
                build_scheme("cesaro", n, alpha=alpha)
            return
        _assert_same_scheme(build_scheme("cesaro", n, alpha=alpha), expected)


@functools.lru_cache(maxsize=None)
def _separate_outcome(alpha, n):
    """What a fresh build_scheme call gives for block n, checked once
    against the Fraction oracle."""
    scheme = build_scheme("cesaro", n, alpha=alpha)
    _assert_same_scheme(scheme, _cesaro_oracle(alpha, n))
    return _outcome(lambda: scheme)


class TestBuilder:
    # One builder serves every block of a sweep and extends one chain; the
    # alphas cross from int64 to Python-int numerators as n grows (7 at
    # n = 11, 1e6 at n = 3, 0.5 at n = 6), or never do (2, 1, 0).
    ALPHAS = (2, 0.5, 1 / 3, 0.3, 3.5, 1, 0, 7, 1e6)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.sampled_from(ALPHAS), ns=st.sets(st.integers(1, 11), min_size=1, max_size=5))
    def test_increasing_blocks_are_the_separate_builds(self, alpha, ns):
        builder = _FamilySchemes("cesaro", alpha)
        for n in sorted(ns):
            assert _outcome(lambda: builder(n)) == _separate_outcome(alpha, n)

    @pytest.mark.parametrize("alpha", [0.5, 7, 1e6])
    def test_blocks_in_any_order_are_the_separate_builds(self, alpha):
        builder = _FamilySchemes("cesaro", alpha)
        for n in (9, 2, 11, 6, 1):
            assert _outcome(lambda: builder(n)) == _separate_outcome(alpha, n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_alpha_zero_puts_every_weight_last(self, n):
        # A_m = 0 from m = 1 on (a_1 = 0), so no walk may divide by a_m.
        builder = _FamilySchemes("cesaro", 0)
        builder(max(1, n - 1))
        w = builder(n)
        assert w.numerators.dtype == np.int64 and w.denominator == 1
        assert w.numerators.tolist() == [0] * ((1 << n) - 1) + [1]

    def test_alpha_is_refused_at_the_first_block_and_again_after(self):
        # Checks of n come first, as in build_scheme; nothing is kept.
        builder = _FamilySchemes("cesaro", math.inf)
        with pytest.raises(ValueError, match="block exponent must be >= 1"):
            builder(0)
        for n in (1, 2):
            with pytest.raises(ValueError, match="cesaro alpha must be finite"):
                builder(n)


class TestOwn:
    # The family builders hand their numerators, already reduced, to
    # WeightScheme._own, which skips the constructor's checks and gcd pass.
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(
            [("uniform", None), ("linear_up", None), ("linear_down", None)]
            + [("cesaro", a) for a in (2, 0.5, 0.3, 1 / 3, 3.5, 1, 0, 7, 1e6)]
        ),
        n=st.integers(1, 10),
        k=st.integers(1, 2**70),
    )
    def test_family_schemes_are_the_reducing_constructor(self, case, n, k):
        family, alpha = case
        own = build_scheme(family, n, alpha=alpha)
        # k times the integers, which the constructor reduces by their gcd
        reduced = WeightScheme(n, [k * int(a) for a in own.numerators], k * own.denominator)
        assert own.block_exponent == reduced.block_exponent == n
        _assert_same_scheme(own, reduced)
        assert own.numerators.flags.c_contiguous
        assert not (own.numerators.flags.writeable or own.weights.flags.writeable)


class TestBuildScheme:
    def test_uniform(self):
        w = build_scheme("uniform", 3)
        assert all(t == Fraction(1, 8) for t in w.exact)
        assert sum(w.exact) == 1

    def test_linear_up(self):
        w = build_scheme("linear_up", 2)
        assert w.exact == tuple(Fraction(i, 10) for i in (1, 2, 3, 4))
        assert validate(w).c2_constant == pytest.approx(2.8)

    def test_linear_down(self):
        w = build_scheme("linear_down", 2)
        assert w.exact == tuple(Fraction(i, 10) for i in (4, 3, 2, 1))

    def test_cesaro_alpha_one_is_uniform(self):
        w = build_scheme("cesaro", 2, alpha=1)
        assert all(t == Fraction(1, 4) for t in w.exact)

    def test_cesaro_alpha_two_decreasing_tail(self):
        # binomial tail weights (m+1) with m counting down across the block
        w = build_scheme("cesaro", 2, alpha=2)
        assert w.exact == tuple(Fraction(i, 10) for i in (4, 3, 2, 1))

    def test_cesaro_requires_alpha(self):
        with pytest.raises(ValueError):
            build_scheme("cesaro", 2)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            build_scheme("geometric", 2)

    def test_block_exponent_positive(self):
        with pytest.raises(ValueError):
            build_scheme("uniform", 0)


class TestIntegerForm:
    # Small and huge numerators, so that sums and kernel bounds fall on both
    # sides of the int64 range.
    _numerator = st.one_of(st.integers(0, 100), st.integers(2**62 - 5, 2**70))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        order=st.sampled_from([None, "up", "down"]),
        normalize=st.booleans(),
        data=st.data(),
    )
    def test_matches_fraction_oracle(self, n, order, normalize, data):
        numer = data.draw(st.lists(self._numerator, min_size=1 << n, max_size=1 << n))
        if order:
            numer.sort(reverse=order == "down")
        if not any(numer):
            numer[-1] = 1
        denom = sum(numer) if normalize else data.draw(st.integers(1, 2**70))
        w = WeightScheme(n, numerators=numer, denominator=denom)

        t = [Fraction(a, denom) for a in numer]
        assert w.exact == tuple(t)
        assert w.weights.tobytes() == np.array([float(q) for q in t]).tobytes()
        reduced = [int(a) for a in w.numerators]
        assert math.gcd(w.denominator, *reduced) == 1
        assert (w.numerators.dtype == object) == (sum(reduced) >= 2**63)

        steps = [b - a for a, b in zip(t, t[1:])]
        nondec, noninc = all(d >= 0 for d in steps), all(d <= 0 for d in steps)
        mono = {(1, 1): BOTH, (1, 0): NONDECREASING, (0, 1): NONINCREASING}.get(
            (nondec, noninc), NONE
        )
        c2 = float(t[-1] * w.block_end)
        assert validate(w) == ValidationReport(
            total=float(sum(t)),
            sum_ok=sum(t) == 1,
            monotonicity=mono,
            c2_constant=c2,
            case_a_ok=nondec and c2 <= DEFAULT_CASE_A_CAP,
            case_b_ok=noninc,
        )

        kernel_numer, kernel_denom = _block_weights(w)
        assert [Fraction(int(a), kernel_denom) for a in kernel_numer] == t
        bound = max(reduced) << (3 * n + 2)
        assert kernel_numer.dtype == (np.int64 if bound < 2**62 else object)

    def test_one_form_per_scheme(self):
        with pytest.raises(TypeError):
            WeightScheme(1)
        with pytest.raises(TypeError):
            WeightScheme(1, weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            WeightScheme(1, numerators=[1, 1], denominator=0)
        with pytest.raises(ValueError):
            WeightScheme(1, numerators=[3, -1], denominator=2)
        with pytest.raises(ValueError):
            WeightScheme(1, numerators=[1, 1, 1], denominator=3)
        # Float weights are not a form: they are rejected, positionally too.
        with pytest.raises(TypeError):
            WeightScheme(1, numerators=[0.5, 0.5], denominator=1)
        with pytest.raises(TypeError):
            WeightScheme(2, [0.3, 0.3, 0.2, 0.2])
        with pytest.raises(TypeError):
            WeightScheme(1, np.array([0.5, 0.5]))

    def test_weights_are_read_only(self):
        w = build_scheme("uniform", 2)
        for arr in (w.weights, w.numerators):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestValidate:
    def test_uniform_n4(self):
        report = validate(build_scheme("uniform", 4))
        assert report.sum_ok
        assert report.monotonicity == BOTH
        assert report.c2_constant == pytest.approx(31 / 16)
        assert report.case_a_ok and report.case_b_ok

    def test_linear_down_case_b_only(self):
        report = validate(build_scheme("linear_down", 3))
        assert report.case_b_ok and not report.case_a_ok
        assert report.monotonicity == NONINCREASING

    def test_linear_up_case_a(self):
        report = validate(build_scheme("linear_up", 3))
        assert report.monotonicity == NONDECREASING
        assert report.case_a_ok and not report.case_b_ok

    def test_case_a_cap(self):
        report = validate(build_scheme("linear_up", 3), case_a_cap=1.0)
        assert not report.case_a_ok

    def test_nonincreasing_with_ties(self):
        report = validate(WeightScheme(2, numerators=[7, 1, 1, 1], denominator=10))
        assert report.sum_ok and report.case_b_ok

    def test_sum_violation_detected(self):
        report = validate(WeightScheme(2, numerators=[5, 2, 1, 1], denominator=10))
        assert not report.sum_ok


class TestCaseIdentities:
    # The signed difference sums that drive the two monotone cases.

    @staticmethod
    def _difference_sum(w):
        t = w.exact
        return sum(abs(t[k] - t[k + 1]) * k for k in range(1, w.block_size - 1))

    def test_nondecreasing_identity(self):
        for family in ("linear_up", "uniform"):
            w = build_scheme(family, 3)
            last = w.exact[-1]
            interior = sum(w.exact[k] for k in range(1, w.block_size - 1))
            expected = (w.block_size - 2) * last - interior
            assert self._difference_sum(w) == expected

    def test_nonincreasing_identity(self):
        for family, alpha in (("linear_down", None), ("cesaro", 2)):
            w = build_scheme(family, 3, alpha=alpha)
            last = w.exact[-1]
            interior = sum(w.exact[k] for k in range(1, w.block_size - 1))
            expected = interior - (w.block_size - 2) * last
            assert self._difference_sum(w) == expected


class TestWeightFiles:
    def test_rational_tokens(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("k,t\n4,1/2\n5,1/4\n6,1/8\n7,1/8\n")
        w = load_weight_file(str(path))
        assert w.block_exponent == 2
        assert w.exact == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
        assert validate(w).sum_ok

    def test_decimal_tokens_with_normalize(self, tmp_path):
        # A file is taken as written: validate, not the loader, reports the sum.
        path = tmp_path / "w.csv"
        path.write_text("k,t\n2,3\n3,1\n")
        w = load_weight_file(str(path))
        assert w.exact == (Fraction(3), Fraction(1))
        assert not validate(w).sum_ok

    def test_missing_row_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("k,t\n4,0.5\n5,0.5\n")
        with pytest.raises(ValueError):
            load_weight_file(str(path))

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        # Positive, negative and zero sums: the sum must not mask the sign.
        for rows in ("2,-1\n3,2\n", "2,-2\n3,1\n", "2,-1\n3,1\n"):
            path.write_text("k,t\n" + rows)
            with pytest.raises(ValueError, match="non-negative"):
                load_weight_file(str(path))

    def test_index_below_one_names_its_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("k,t\n# block n=0\n0,1\n")
        with pytest.raises(ValueError, match="line 3: weight index must be >= 1, got '0'"):
            load_weight_file(str(path))

    def test_field_count_names_its_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("k,t\n2,1/2\n3,1/4,1/4\n")
        with pytest.raises(ValueError, match="line 3: expected 2 fields 'k,t', got 3: '3,1/4,1/4'"):
            load_weight_file(str(path))

    @pytest.mark.parametrize(
        "row, message",
        [("x,1", "invalid literal for int"),
         pytest.param("3,abc", "weight 'abc' is not a number or p/q", id="3,abc-not-a-number"),
         ("3,1/0", "zero denominator"), ("2,1", "duplicate weight index 2")],
    )
    def test_bad_token_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "w.csv"
        path.write_text(f"k,t\n2,1/2\n{row}\n")
        with pytest.raises(ValueError, match=f"^line 3: .*{message}"):
            load_weight_file(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("index,weight\n2,1\n3,1\n")
        with pytest.raises(ValueError):
            load_weight_file(str(path))


def _list_pass(n, numerators, denominator):
    """The scheme constructor before it ran on arrays, one Python pass per
    step: the oracle of the array constructor's numerators, denominator,
    float weights and error messages."""
    if n < 1:
        raise ValueError(f"block exponent must be >= 1, got {n}")
    ints = [operator.index(a) for a in numerators]
    denom = operator.index(denominator)
    if denom < 1:
        raise ValueError(f"denominator must be positive, got {denom}")
    if any(a < 0 for a in ints):
        raise ValueError("weights must be non-negative")
    g = math.gcd(denom, *ints)
    ints = [a // g for a in ints]
    denom //= g
    numer = np.array(ints, dtype=np.int64 if sum(ints) < 1 << 63 else object)
    if numer.shape != (1 << n,):
        raise ValueError(
            f"expected {1 << n} weights for block exponent {n}, "
            f"got shape {numer.shape}"
        )
    return numer, denom, np.array([a / denom for a in ints])


def _outcome(make):
    """dtype, numerators, denominator and weight bits of what make returns,
    or the type and message of what it raises."""
    try:
        made = make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(made, WeightScheme):
        made = made.numerators, made.denominator, made.weights
    numer, denom, weights = made
    return numer.dtype, [int(a) for a in numer], denom, weights.tobytes()


class TestArrayConstructor:
    # The family builders' numerators and sums before they passed arrays.
    _LISTS = {
        "uniform": lambda count, alpha: [1] * count,
        "linear_up": lambda count, alpha: list(range(1, count + 1)),
        "linear_down": lambda count, alpha: list(range(count, 0, -1)),
        "cesaro": lambda count, alpha: _CesaroChain(alpha).numerators(count.bit_length() - 1),
    }

    @pytest.mark.parametrize(
        "family, alpha",
        [("uniform", None), ("linear_up", None), ("linear_down", None),
         ("cesaro", 2), ("cesaro", 0.5), ("cesaro", 0.3), ("cesaro", 1 / 3), ("cesaro", 3.5)],
    )
    def test_families_match_the_list_pass(self, family, alpha):
        for n in range(1, 13):
            numer = self._LISTS[family](1 << n, alpha)
            expected = _outcome(lambda: _list_pass(n, numer, sum(numer)))
            assert _outcome(lambda: build_scheme(family, n, alpha=alpha)) == expected

    @staticmethod
    def _random_file(seed):
        """The block exponent and weight tokens of a random weight file, of
        one of three kinds: digits; p/q over one q past 2^53; p/q with p up
        to 2^70 and q up to 2^40, whose numerators over the common
        denominator sum past 2^63."""
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        kind = seed % 3
        if kind == 0:
            return n, [str(rng.randint(0, 9)) for _ in range(1 << n)]
        if kind == 1:
            q = rng.randint(1 << 54, 1 << 60)
            return n, [f"{rng.randint(0, 1000)}/{q}" for _ in range(1 << n)]
        return n, [f"{rng.randint(0, 1 << 70)}/{rng.randint(1, 1 << 40)}" for _ in range(1 << n)]

    @pytest.mark.parametrize("seed", range(12))
    def test_weight_files_match_the_list_pass(self, tmp_path, seed):
        n, tokens = self._random_file(seed)
        path = tmp_path / "w.csv"
        path.write_text("k,t\n" + "".join(f"{(1 << n) + i},{t}\n" for i, t in enumerate(tokens)))
        numer, denom = _over_common_denominator([Fraction(t) for t in tokens])
        expected = _outcome(lambda: _list_pass(n, numer, denom))
        assert _outcome(lambda: load_weight_file(str(path))) == expected

    def test_random_files_reach_both_dtypes_and_wide_denominators(self):
        reached = set()
        for seed in range(12):
            numer, denom = _over_common_denominator(
                [Fraction(t) for t in self._random_file(seed)[1]]
            )
            reached.add((sum(numer) >= 1 << 63, denom >= 1 << 53))
        assert reached == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize(
        "n, numerators, denominator",
        [
            (2, [1, -1, 2, 3], 5),
            (2, [0, 0, 0, 0], 0),
            (2, [0, 0, 0, 0], 2**70),
            (2, np.zeros(4, dtype=np.int64), 2**70),
            (1, [2**70, 0], 2**71),
            (2, [1, 2, 3], 6),
            (2, [], 1),
            (1, [3, -1, 2], 4),
            (1, [1, 1], -3),
            (0, [1], 1),
            (1, [0.5, 0.5], 1),
            (1, np.array([0.5, 0.5]), 1),
            (1, np.array([[1, 2], [3, 4]]), 1),
            (1, [1, 1], 1.0),
            (2, np.array([2**64 - 1, 1, 1, 1], dtype=np.uint64), 2**64 + 2),
            (2, np.array([4, 8, 12, 16], dtype=np.int8), 40),
            (3, np.arange(8, dtype=np.int64) * 2**59, 2**64),
        ],
    )
    def test_edge_inputs_match_the_list_pass(self, n, numerators, denominator):
        assert _outcome(lambda: WeightScheme(n, numerators, denominator)) == _outcome(
            lambda: _list_pass(n, numerators, denominator)
        )

    def test_caller_arrays_are_left_writable(self):
        numer = np.arange(1, 5, dtype=np.int64)
        w = WeightScheme(2, numer, 10)
        numer[0] = 7
        assert numer.flags.writeable and w.numerators[0] == 1
