"""Metamorphic relations that hold where brute force cannot go.

Resolution lift: a function of dyadic rank r, run at any N >= r, gives the
same rows.  Every function is held at its rank, so the rows agree bit for
bit, and the printed bytes with them.  The brute-force oracles stop at
N = 12; these relations reach N = 18.
"""

import contextlib
import io

import pytest

from walshvp.cli import main

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
