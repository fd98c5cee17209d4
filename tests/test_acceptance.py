"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured margin.  Run with `pytest -s tests/test_acceptance.py`
to see the report lines."""

import functools
import math
import statistics
import time
from fractions import Fraction

import numpy as np

from walshvp import experiments as exp
from walshvp.dyadic import INF
from walshvp.kernels import kernel_norm_sweep
from walshvp.means import (
    PATH_CONVOLUTION,
    PATH_PARTIAL_SUMS,
    dyadic_convolve,
    dyadic_convolve_naive,
    vp_mean,
)
from walshvp.walsh_system import fourier_coefficients_naive, fwht_forward, walsh
from walshvp.weights import build_scheme, validate


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_01_exact_kernel_identities():
    start = time.perf_counter()
    closed, recursion = exp._check_dirichlet_recursion(8, 0)
    elapsed = time.perf_counter() - start
    ok = closed.passed and recursion.passed and elapsed < 5.0
    report(
        1,
        "Dirichlet closed form and recursion exact for all n <= 256 at N=8",
        ok,
        f"worst deviation {max(closed.worst_margin, recursion.worst_margin)}, {elapsed:.1f}s",
    )


def test_02_fejer_norm_bounds():
    start = time.perf_counter()
    _, ell = kernel_norm_sweep(1 << 12, 13)
    elapsed = time.perf_counter() - start
    k_norms = [Fraction(int(v), n << 13) for n, v in enumerate(ell[1:], start=1)]
    best = max(range(len(k_norms)), key=lambda i: k_norms[i])
    peak = k_norms[best]
    ok = (
        peak <= 2
        and peak <= Fraction(17, 15) + Fraction(1, 10**9)
        and elapsed < 60.0
    )
    report(
        2,
        "Fejer L1 norms <= 2 and <= 17/15 for n <= 4096 at N=13",
        ok,
        f"max {float(peak):.10f} at n={best + 1}, {elapsed:.1f}s",
    )


def test_03_kernel_decomposition_exact():
    rng = exp.SplitMix64(303)
    worst = Fraction(0)
    instances = 0
    for n in range(1, 7):
        for family, alpha in (
            ("uniform", None),
            ("linear_up", None),
            ("linear_down", None),
            ("cesaro", 2),
        ):
            scheme = build_scheme(family, n, alpha=alpha)
            worst = max(worst, exp._decomposition_deviation(scheme))
            instances += 1
    for _ in range(100):
        n = 1 + rng.randint(6)
        worst = max(worst, exp._decomposition_deviation(exp.random_rational_scheme(n, rng)))
        instances += 1
    report(
        3,
        "three-part kernel decomposition exact in rationals (families + 100 random)",
        worst == 0,
        f"{instances} schemes, worst deviation {worst}",
    )


def test_04_translate_difference_inequality():
    result = exp._check_translate_difference(8, 404, 1000)
    report(
        4,
        "translate-difference bound holds on 1000 randomized instances at N=8",
        result.passed,
        f"worst margin {result.worst_margin:.3e}",
    )


def test_05_case_b_explicit_constant():
    start = time.perf_counter()
    suite = exp.standard_suite(12, seed=505)
    bad = []
    for family, alpha in (("uniform", None), ("linear_down", None), ("cesaro", 2)):
        for name, f in suite:
            scheme_for = functools.partial(build_scheme, family, alpha=alpha)
            records = exp.ratio_sweep(f, map(scheme_for, range(1, 11)), (1.0, 2.0, INF))
            bad.extend(
                (family, name, r) for r in records if not r.bound_ok or r.flag
            )
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120.0
    report(
        5,
        "case b: error <= (47/30) omega + 1e-9 over 3 schemes x 5 functions x 3 p x n=1..10 at N=12",
        ok,
        f"{len(bad)} violations, {elapsed:.1f}s",
    )


def test_06_case_a_uniform_boundedness():
    suite = exp.standard_suite(12, seed=505)
    sup_ratio = 0.0
    blow_up = []
    linear_up = functools.partial(build_scheme, "linear_up")
    for name, f in suite:
        for p in (1.0, 2.0, INF):
            records = exp.ratio_sweep(f, map(linear_up, range(1, 11)), (p,))
            ratios = [r.ratio for r in records if r.modulus >= exp.MODULUS_FLOOR]
            if ratios:
                sup_ratio = max(sup_ratio, max(ratios))
            if len(ratios) >= 3:
                peak, median = max(ratios), statistics.median(ratios)
                if peak > 10 * median:
                    blow_up.append((name, p, peak, median))
    ok = np.isfinite(sup_ratio) and not blow_up
    report(
        6,
        "case a: error/omega uniformly bounded for linear_up schemes (no 10x median blow-up)",
        ok,
        f"sup ratio {sup_ratio:.4f}",
    )


def test_07_lipschitz_rate_recovery():
    details = []
    ok = True
    uniform = functools.partial(build_scheme, "uniform")
    for alpha in (0.5, 1.0):
        # log2(error) against n: the error decays like 2^(-n alpha).
        records = exp.ratio_sweep(exp.abs_power(alpha, 12), map(uniform, range(2, 10)), (INF,))
        slope, _ = np.polyfit(
            [r.n for r in records], [math.log2(r.error) for r in records], 1
        )
        details.append(f"alpha={alpha}: slope {-slope:.3f}")
        ok = ok and abs(-slope - alpha) <= 0.15
    report(7, "regression slope recovers the Lipschitz exponent within 0.15", ok, "; ".join(details))


def test_08_oracle_equivalences():
    f6 = exp.random_bounded(808, 6)
    g6 = exp.random_bounded(809, 6)
    fwht_dev = float(
        np.max(np.abs(fwht_forward(f6).coeffs - fourier_coefficients_naive(f6)))
    )
    conv_dev = float(
        np.max(
            np.abs(
                dyadic_convolve(f6, g6).values - dyadic_convolve_naive(f6, g6).values
            )
        )
    )
    f12 = exp.random_bounded(810, 12)
    path_dev = 0.0
    srng = exp.SplitMix64(811)
    for n in (1, 4, 8):
        scheme = exp.random_rational_scheme(n, srng)
        a = vp_mean(f12, scheme, PATH_CONVOLUTION).function
        b = vp_mean(f12, scheme, PATH_PARTIAL_SUMS).function
        path_dev = max(path_dev, float(np.max(np.abs(a.values - b.values))))
    ok = fwht_dev < 1e-12 and conv_dev < 1e-11 and path_dev < 1e-10
    report(
        8,
        "fast paths match naive oracles (transform, convolution, mean paths)",
        ok,
        f"fwht {fwht_dev:.1e}, conv {conv_dev:.1e}, paths {path_dev:.1e}",
    )


def test_09_polynomial_reproduction():
    worst = 0.0
    for n in range(1, 7):
        schemes = [
            build_scheme("uniform", n),
            build_scheme("linear_up", n),
            build_scheme("linear_down", n),
            build_scheme("cesaro", n, alpha=2),
        ]
        assert all(validate(s).sum_ok for s in schemes)
        for m in range(1 << n):
            f = walsh(m, 8)
            for scheme in schemes:
                out = vp_mean(f, scheme).function
                worst = max(worst, float(np.max(np.abs(out.values - f.values))))
    report(
        9,
        "block means reproduce every basis polynomial of the block order (n <= 6)",
        worst < 1e-11,
        f"worst deviation {worst:.1e}",
    )


def test_10_performance_full_sweep():
    start = time.perf_counter()
    f = exp.abs_power(1.0, 16)
    uniform = functools.partial(build_scheme, "uniform")
    records = exp.ratio_sweep(f, map(uniform, range(1, 15)), (2.0,))
    elapsed = time.perf_counter() - start
    ok = exp.sweep_ok(records) and elapsed < 10.0
    report(
        10,
        "full approximation sweep at N=16 (uniform weights, p=2) under 10s",
        ok,
        f"{elapsed:.2f}s for {len(records)} rows",
    )
