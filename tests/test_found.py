"""Every standing FOUND of ROADMAP.md as a test of the right answer.

Each test asserts what the command or call should give, against an exact
oracle at the FOUND's own small N: brute force over the translates on the
same samples, or a Fraction computation.  Each is marked strict xfail with
the ROADMAP item that mends it, so a fix turns it into an XPASS, which
fails the suite: the fixing change then removes the marker.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from walshvp import cli
from walshvp.dyadic import INF, modulus_of_continuity
from walshvp.experiments import make_function, ratio_sweep
from walshvp.walsh_system import walsh
from walshvp.weights import build_scheme


def _printed(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _rows(text):
    """The CSV rows of an approx or modulus output, past its seed line."""
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def _relative(value, exact):
    return abs(value - exact) / abs(exact)


def _item(number, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {number}: {why}")


@_item(2, "the p = 2 table cancels the 1e-10 term and reads 0")
def test_the_p2_row_of_a_small_term_is_its_brute_force_modulus():
    code, out = _printed(
        "approx", "--function", "walsh_poly:0,1,0,0,1e-10", "--resolution", "4",
        "--weights", "uniform", "--nmin", "1", "--nmax", "1", "--p", "1,2,inf",
    )
    f = make_function("walsh_poly:0,1,0,0,1e-10", 4)
    row = next(row for row in _rows(out) if row["p"] == "2")
    assert format(modulus_of_continuity(f, 1, 2, brute_force=True), ".12g") == "2.00000016548e-10"
    assert (row["modulus"], row["ratio"], row["flag"], code) == ("2.00000016548e-10", "0.5", "", 0)


@_item(2, "the p = 2 table rounds relative to max |f|, not to the coset spread")
def test_the_p2_modulus_of_abs_power_at_n_11_is_its_brute_force_value():
    f = make_function("abs_power:0.5", 12)
    exact = modulus_of_continuity(f, 11, 2, brute_force=True)
    assert _relative(modulus_of_continuity(f, 11, 2), exact) <= 1e-15


@_item(2, "a large coefficient below 2^n rounds the p = 2 table")
def test_the_p2_modulus_does_not_depend_on_a_modulation():
    g = make_function("abs_power:0.5", 12) * walsh(85, 12)
    exact = modulus_of_continuity(g, 11, 2, brute_force=True)
    assert _relative(modulus_of_continuity(g, 11, 2), exact) <= 1e-15


@_item(2, "a constant offset sits in fhat(0) and rounds every p = 2 entry")
def test_the_p2_modulus_does_not_drift_with_an_offset():
    f = make_function("random", 10) * 1e-3 + 1e8
    worst = max(
        _relative(modulus_of_continuity(f, n, 2), modulus_of_continuity(f, n, 2, brute_force=True))
        for n in range(10)
    )
    assert worst <= 1e-15


def _sweep_verdicts(spec):
    rows = ratio_sweep(
        make_function(spec, 8), [build_scheme("uniform", n) for n in range(1, 5)], [1.0, 2.0, INF]
    )
    return [(row.n, row.p, row.flag, row.bound_ok) for row in rows], [row.ratio for row in rows]


@_item(3, "MODULUS_FLOOR and ERROR_FLOOR are absolute, so a small f reads ratio 0")
def test_a_small_polynomial_has_the_ratios_of_its_unit_scale():
    small, small_ratios = _sweep_verdicts("walsh_poly:0,0,1e-14,0,0,1e-14,0,0,0,0,0,0,3e-14")
    unit, unit_ratios = _sweep_verdicts("walsh_poly:0,0,1,0,0,1,0,0,0,0,0,0,3")
    assert small == unit
    assert small_ratios == pytest.approx(unit_ratios, rel=1e-12)


@_item(3, "ERROR_FLOOR is absolute, so the rounding of a large f reads inconsistent")
def test_a_large_block_polynomial_passes():
    code, out = _printed(
        "approx", "--function", "walsh_poly:262144,262144,262144,262144", "--resolution", "10",
        "--weights", "linear_down", "--nmin", "2", "--nmax", "2", "--p", "inf",
    )
    assert code == 0 and [row["flag"] for row in _rows(out)] == [""]


def _exact_errors(f, scheme):
    """||mean - f||_p at p = 1, 2 and inf of the float samples of f and the
    scheme's exact weights, in Fractions: fhat from the samples, the mean
    from the weighted partial sums, each cell's difference exact; only the
    last step rounds (and a square root at p = 2)."""
    size = f.size
    samples = [Fraction(v) for v in f.values]
    sign = [[(-1) ** bin(m & x).count("1") for x in range(size)] for m in range(size)]
    fhat = [sum(s * v for s, v in zip(sign[m], samples)) / size for m in range(size)]
    low = 1 << scheme.block_exponent
    mean = [
        sum(t * sum(fhat[m] * sign[m][x] for m in range(low + i)) for i, t in enumerate(scheme.exact))
        for x in range(size)
    ]
    diffs = [abs(a - b) for a, b in zip(mean, samples)]
    return {
        1.0: float(sum(diffs) / size),
        2.0: math.sqrt(sum(d * d for d in diffs) / size),
        INF: float(max(diffs)),
    }


@_item(19, "the residual mean - f carries S_(2^n) f, 1e8 here, and cancels it")
def test_the_errors_under_a_large_offset_are_the_exact_errors():
    f = make_function("walsh_poly:100000000,0.001,-0.002,0.0015,0.0007,-0.0011,0.0003", 6)
    scheme = build_scheme("uniform", 2)
    exact = _exact_errors(f, scheme)
    rows = ratio_sweep(f, [scheme], exact)
    assert [_relative(row.error, exact[row.p]) <= 1e-15 for row in rows] == [True] * 3, rows


_BASELINE_CHILD = """
import contextlib, hashlib, io, json, sys
import numpy as np
if sys.argv[1] == "probe":
    print(hashlib.sha256(np.power(np.linspace(0.5, 2.0, 200001), 3.0).tobytes()).hexdigest())
else:
    from walshvp import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(json.loads(sys.argv[2]))
    print(json.dumps([code, out.getvalue()]))
"""

_DISPATCH_CALL = [
    "modulus", "--function", "random", "--resolution", "10", "--p", "3,1.5",
    "--nmin", "0", "--nmax", "9", "--format", "json",
]


def _at_baseline(*args):
    """The stdout of a child process that limits numpy's dispatch to the
    baseline targets."""
    from numpy._core import _multiarray_umath as umath

    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=" ".join(umath.__cpu_baseline__),
               PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _BASELINE_CHILD, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@_item(21, "np.power is dispatched by CPU, and a faster target rounds p = 3 otherwise")
def test_a_p3_modulus_prints_the_same_bytes_at_the_baseline_dispatch():
    from numpy._core import _multiarray_umath as umath

    if not umath.__cpu_baseline__:
        pytest.skip("numpy has no baseline to limit its dispatch to")
    probe = np.power(np.linspace(0.5, 2.0, 200001), 3.0).tobytes()
    if _at_baseline("probe") == hashlib.sha256(probe).hexdigest():
        pytest.skip("np.power(x, 3.0) has the same bits at the baseline dispatch here")
    assert json.loads(_at_baseline("call", json.dumps(_DISPATCH_CALL))) == list(_printed(*_DISPATCH_CALL))
