"""Metamorphic relations that hold where brute force cannot go.

Resolution lift: a function of dyadic rank r, run at any N >= r, gives the
same rows.  Every function is held at its rank, so the rows agree bit for
bit, and the printed bytes with them.  Translation: f(. + s) gives the rows
of f, bit for bit at p = 2 and inf.  Negation: -f gives the rows of f, bit
for bit but on the sign split.  Modulation by w_j, j < 2^n: f w_j has the
moduli of f at n, bit for bit on the coset and blocked routes.  A
constant: g = f + c and g - c have the same moduli, bit for bit but at
p = 2, where c is a power of two that makes every difference of g exact.
The brute-force oracles stop at N = 12; these relations reach N = 16 and
18.
"""

import contextlib
import functools
import io
import math

import pytest

from walshvp.cli import main
from walshvp.dyadic import INF, _takes_sign_split, modulus_of_continuity, translate
from walshvp.experiments import make_function, ratio_sweep
from walshvp.walsh_system import walsh
from walshvp.weights import build_scheme

LIFTED = {
    # rank 3
    "approx": ["approx", "--function", "walsh_poly:1,-0.5,0.25,0,0.125", "--weights",
               "linear_down", "--nmin", "1", "--nmax", "4", "--p", "1,2,3,inf",
               "--format", "json"],
    # rank 4
    "modulus": ["modulus", "--function", "step_mix", "--seed", "4", "--nmin", "0", "--nmax",
                "5", "--p", "1,2,3,inf", "--format", "json"],
}


def _printed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", LIFTED)
def test_rows_do_not_depend_on_the_resolution_above_the_rank(name):
    lifted = [_printed(LIFTED[name] + ["--resolution", str(N)]) for N in (6, 10, 14, 18)]
    assert lifted[0][0] == 0 and lifted[0][1].count('"n":') >= 5
    assert all(printed == lifted[0] for printed in lifted[1:])


def test_kernel_norms_do_not_depend_on_the_resolution():
    # Every kernel of order n <= 200 has rank at most 8.
    lifted = [_printed(["kernel-norms", "--nmax", "200", "--resolution", str(N)]) for N in (9, 13)]
    assert lifted[0][0] == 0 and lifted[0] == lifted[1]


_TRANSLATED = [
    # full rank: p = 3 would take the blocked route, seconds at N = 16
    ("abs_power:0.5", (1, 2, INF), range(4, 8)),
    ("random", (1, 2, INF), range(4, 8)),
    # rank 4 and rank 3
    ("step_mix", (1, 2, 3, INF), range(1, 5)),
    ("walsh_poly:1,-0.5,0.25,0,0.125", (1, 2, 3, INF), range(1, 5)),
]


@pytest.mark.parametrize("N", [14, 16])
@pytest.mark.parametrize("spec, ps, blocks", _TRANSLATED, ids=[t[0] for t in _TRANSLATED])
def test_rows_do_not_depend_on_a_translation(N, spec, ps, blocks):
    # f(. + s) has the moduli of f, and the block mean commutes with the
    # translation, so its errors are f's too.  A translation permutes the
    # samples and flips the signs of the Walsh coefficients: every p = 2
    # and p = inf value keeps its bits, and a p = 1 or 3 norm sums the same
    # terms in another order.
    f = make_function(spec, N, seed=3)
    s = 0x9E37 & ((1 << N) - 1)
    scheme_for = functools.partial(build_scheme, "linear_down")
    rows = ratio_sweep(f, map(scheme_for, blocks), ps)
    moved = ratio_sweep(translate(f, s), map(scheme_for, blocks), ps)
    assert [(r.n, r.p) for r in moved] == [(r.n, r.p) for r in rows]
    for row, other in zip(rows, moved):
        for field in ("error", "modulus"):
            value, shifted = getattr(row, field), getattr(other, field)
            if row.p in (2.0, INF):
                assert shifted.hex() == value.hex(), (row.n, row.p, field)
            else:
                assert shifted == pytest.approx(value, rel=1e-12, abs=0.0), (row.p, field)


def _assert_same(value, other, exact, where):
    if exact:
        assert other.hex() == value.hex(), where
    else:
        assert other == pytest.approx(value, rel=1e-12, abs=0.0), where


@pytest.mark.parametrize("N", [14, 16])
@pytest.mark.parametrize("spec, ps, blocks", _TRANSLATED, ids=[t[0] for t in _TRANSLATED])
def test_rows_do_not_depend_on_the_sign(N, spec, ps, blocks):
    # -f negates every sample, coefficient and mean exactly, so each sum
    # adds the same magnitudes in the same order.  Only the sign split,
    # which sorts each coset, meets them in another order; it builds the
    # p = 1 table when the first block has 2^11 translates or more.
    f = make_function(spec, N, seed=3)
    scheme_for = functools.partial(build_scheme, "linear_down")
    rows = ratio_sweep(f, map(scheme_for, blocks), ps)
    negated = ratio_sweep(-f, map(scheme_for, blocks), ps)
    split = _takes_sign_split(1.0, f._head.size >> blocks[0])
    assert [(r.n, r.p) for r in negated] == [(r.n, r.p) for r in rows]
    for row, other in zip(rows, negated):
        where = (row.n, row.p)
        _assert_same(row.error, other.error, True, where)
        _assert_same(row.modulus, other.modulus, not (split and row.p == 1.0), where)


@pytest.mark.parametrize("N", [14, 16])
@pytest.mark.parametrize("spec, ps, blocks", _TRANSLATED, ids=[t[0] for t in _TRANSLATED])
def test_moduli_do_not_depend_on_a_modulation(N, spec, ps, blocks):
    # w_j with j < 2^n is constant on each coset of I_n, so f w_j has the
    # |differences| of f at every point and translate of I_n.  f keeps the
    # p = 1 table of the first block, and each g builds its own.  p = 2 is
    # left out: its spectral table loses digits to a large coefficient
    # (ROADMAP item 2).
    f = make_function(spec, N, seed=3)
    f_split = _takes_sign_split(1.0, f._head.size >> blocks[0])
    for n in blocks:
        j = 0x2B5 & ((1 << n) - 1)
        g = f * walsh(j, N)
        split = f_split or _takes_sign_split(1.0, g._head.size >> n)
        for p in ps:
            if p != 2:
                value, other = modulus_of_continuity(f, n, p), modulus_of_continuity(g, n, p)
                _assert_same(value, other, not (split and p == 1), (n, p, j))


@pytest.mark.parametrize("N", [14, 16])
@pytest.mark.parametrize("spec, ps, blocks", _TRANSLATED, ids=[t[0] for t in _TRANSLATED])
def test_moduli_do_not_depend_on_a_constant(N, spec, ps, blocks):
    # With c the smallest power of two at or above 4 max|f|, g = fl(f + c)
    # lies in [3c/4, 5c/4], so each difference of g is exact (Sterbenz's
    # lemma) and so is h = g - c: g and h have the same differences.  p = 1
    # takes the blocked route at N = 14 and the sign split at N = 16 on
    # the full-rank functions, whose p = 3 runs at N = 14 only.  p = 2 reads
    # the spectrum, where the constant sits in fhat(0) and the other
    # coefficients round differently.
    f = make_function(spec, N, seed=3)
    c = 2.0 ** math.ceil(math.log2(4.0 * max(abs(f._head))))
    g = f + c
    h = g - c
    if N == 14 and 3 not in ps:
        ps += (3,)
    for n in blocks:
        for p in ps:
            value, other = modulus_of_continuity(g, n, p), modulus_of_continuity(h, n, p)
            _assert_same(value, other, p != 2, (n, p, c))
