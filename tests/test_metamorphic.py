"""Metamorphic relations that hold where brute force cannot go.

Resolution lift: a function of dyadic rank r, run at any N >= r, gives the
same rows.  Every function is held at its rank, so the rows agree bit for
bit, and the printed bytes with them.  Translation: f(. + s) gives the rows
of f, bit for bit at p = 2 and inf.  The brute-force oracles stop at
N = 12; these relations reach N = 16 and 18.
"""

import contextlib
import functools
import io

import pytest

from walshvp.cli import main
from walshvp.dyadic import INF, translate
from walshvp.experiments import make_function, ratio_sweep
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
    rows = ratio_sweep(f, scheme_for, blocks, ps)
    moved = ratio_sweep(translate(f, s), scheme_for, blocks, ps)
    assert [(r.block_exponent, r.p) for r in moved] == [(r.block_exponent, r.p) for r in rows]
    for row, other in zip(rows, moved):
        for field in ("error", "modulus"):
            value, shifted = getattr(row, field), getattr(other, field)
            if row.p in (2.0, INF):
                assert shifted.hex() == value.hex(), (row.block_exponent, row.p, field)
            else:
                assert shifted == pytest.approx(value, rel=1e-12, abs=0.0), (row.p, field)
