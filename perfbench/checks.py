"""Untimed output checks: exit code, reported flags, and numeric values
compared with independent routes of the library.

Up to N = 12 the oracles are the brute-force modulus, the partial-sums route
of the VP mean (for blocks up to n = 7; larger blocks use the mean's
spectral multiplier, synthesized by the inverse transform, or Parseval's
identity at p = 2), exact Fraction kernel norms, and (up to N = 10, where its
4^N matrix stays at 8 MiB) the naive transform.  At larger N the checks are
Parseval's identity, the transform round trip, and direct distances at
sampled translates.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Dict, List

import numpy as np

from walshvp import experiments
from walshvp.dyadic import INF, SampledFunction, lp_norm, modulus_of_continuity, translate
from walshvp.kernels import dirichlet_via_recursion, kernel_l1_norm
from walshvp.means import PATH_PARTIAL_SUMS, vp_mean
from walshvp.walsh_system import (
    Spectrum,
    fourier_coefficients_naive,
    fwht_forward,
    fwht_inverse,
    hadamard_transform,
)
from walshvp.weights import DEFAULT_CASE_A_CAP, build_scheme

ORACLE_MAX_N = 12
NAIVE_MAX_N = 10
# The partial-sums mean runs 2^n transforms; above this block it is too slow
# to check every row, and the spectral multiplier is used instead.
PARTIAL_SUMS_MAX_BLOCK = 7
SAMPLED_TRANSLATES = 4
KERNEL_NORM_SAMPLES = 16
REL_TOL = 1e-9
ABS_TOL = 1e-10

LEMMAS = (
    "dirichlet-closed-form",
    "dirichlet-recursion",
    "fejer-l1-uniform-bound",
    "fejer-l1-sharp-bound",
    "translate-difference-bound",
    "vp-kernel-decomposition",
)
EXACT_LEMMAS = ("dirichlet-closed-form", "dirichlet-recursion", "vp-kernel-decomposition")

EXPECTED_MONOTONICITY = {
    "uniform": "both",
    "linear_up": "nondecreasing",
    "linear_down": "nonincreasing",
    "cesaro:2": "nonincreasing",
    "cesaro:0.5": "nondecreasing",
}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _not_above(a: float, b: float) -> bool:
    return a <= b * (1 + REL_TOL) + ABS_TOL


def _p_value(text: str) -> float:
    return INF if text == "inf" else float(text)


def _fejer_norm(k: int, resolution: int, naive: bool = False) -> Fraction:
    """||K_k||_1 exactly, synthesized from the integer spectrum of k K_k,
    whose coefficient at m < k is k - m."""
    coeffs = np.zeros(1 << resolution)
    coeffs[:k] = np.arange(k, 0, -1)
    if naive:
        values = fourier_coefficients_naive(SampledFunction(resolution, coeffs)) * 2.0**resolution
    else:
        values = hadamard_transform(coeffs)
    numer = np.rint(values)
    if np.max(np.abs(values - numer)) > 1e-6:
        raise ValueError(f"K_{k} numerators are not integers")
    return Fraction(int(np.sum(np.abs(numer.astype(np.int64)))), k << resolution)


class Checker:
    """Checks op outputs; caches the functions and oracle values it builds."""

    def __init__(self) -> None:
        self._functions: Dict[tuple, SampledFunction] = {}
        self._function_problems: Dict[tuple, List[str]] = {}
        self._spectra: Dict[tuple, np.ndarray] = {}
        self._moduli: Dict[tuple, float] = {}
        self._means: Dict[tuple, SampledFunction] = {}
        self._schemes: Dict[tuple, object] = {}
        self._fejer_peaks: Dict[int, tuple] = {}

    def check(self, op, rc, out: str) -> List[str]:
        """Problems found in one op's result; empty when it is correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            data = json.loads(out)
            return getattr(self, "_" + op.command.replace("-", "_"))(op, data)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"malformed output: {exc!r}"]

    # -- shared inputs ------------------------------------------------------

    def _function(self, op) -> SampledFunction:
        key = (op.function, op.resolution, op.seed)
        if key not in self._functions:
            f = experiments.make_function(op.function, op.resolution, op.seed)
            self._functions[key] = f
            coeffs = fwht_forward(f).coeffs
            self._spectra[key] = coeffs
            problems = []
            energy = lp_norm(f, 2) ** 2
            if not _close(energy, float(np.sum(coeffs**2))):
                problems.append(f"{op.function}: Parseval identity fails")
            back = fwht_inverse(Spectrum(op.resolution, coeffs)).values
            if np.max(np.abs(back - f.values)) > 1e-9 * max(1.0, float(np.max(np.abs(f.values)))):
                problems.append(f"{op.function}: transform round trip fails")
            self._function_problems[key] = problems
        return self._functions[key]

    def _scheme(self, spec: str, n: int):
        key = (spec, n)
        if key not in self._schemes:
            name, _, arg = spec.partition(":")
            self._schemes[key] = build_scheme(name, n, alpha=float(arg) if arg else None)
        return self._schemes[key]

    def _modulus_problems(self, op, f, n: int, p: float, omega: float) -> List[str]:
        where = f"n={n} p={p}"
        if op.resolution <= ORACLE_MAX_N:
            key = (op.function, op.resolution, op.seed, n, p)
            if key not in self._moduli:
                self._moduli[key] = modulus_of_continuity(f, n, p, brute_force=True)
            expected = self._moduli[key]
            if not _close(omega, expected):
                return [f"{where}: modulus {omega!r}, brute force gives {expected!r}"]
            return []
        # Every translate by t in I_n is within the modulus, and the modulus
        # is at most 2 ||f||_p.
        problems = []
        rng = random.Random(f"{op.label()} {n} {p}")
        for _ in range(SAMPLED_TRANSLATES):
            t = rng.randrange(f.size >> n) << n
            distance = lp_norm(translate(f, t) - f, p)
            if not _not_above(distance, omega):
                problems.append(
                    f"{where}: translate by {t} moves f by {distance!r} > modulus {omega!r}"
                )
        if not _not_above(omega, 2 * lp_norm(f, p)):
            problems.append(f"{where}: modulus {omega!r} exceeds 2 ||f||_p")
        return problems

    def _error_problems(self, op, f, n: int, p: float, error: float) -> List[str]:
        scheme = self._scheme(op.weights, n)
        if op.resolution <= ORACLE_MAX_N and n <= PARTIAL_SUMS_MAX_BLOCK:
            key = (op.function, op.weights, op.resolution, op.seed, n)
            if key not in self._means:
                self._means[key] = vp_mean(f, scheme, PATH_PARTIAL_SUMS).function
            expected = lp_norm(self._means[key] - f, p)
            route = "partial sums give"
        else:
            # The mean multiplies fhat(m) by 1 below the block, by the weight
            # mass above m inside it, and by 0 above it.
            coeffs = self._spectra[(op.function, op.resolution, op.seed)]
            keep = np.zeros(f.size)
            keep[: scheme.block_start] = float(np.sum(scheme.weights))
            tails = np.cumsum(scheme.weights[::-1])[::-1]
            keep[scheme.block_start : scheme.block_end] = tails[1:]
            if p == 2.0:
                expected = math.sqrt(float(np.sum(((1.0 - keep) * coeffs) ** 2)))
                route = "Parseval gives"
            else:
                key = (op.function, op.weights, op.resolution, op.seed, n)
                if key not in self._means:
                    self._means[key] = fwht_inverse(Spectrum(op.resolution, keep * coeffs))
                expected = lp_norm(self._means[key] - f, p)
                route = "the spectral multiplier gives"
        if not _close(error, expected):
            return [f"n={n} p={p}: error {error!r}, {route} {expected!r}"]
        return []

    @staticmethod
    def _order_problems(rows: Dict[int, Dict[float, float]], what: str) -> List[str]:
        # L^p norms, and so moduli, grow with p on a probability space.
        problems = []
        for n, by_p in rows.items():
            ps = sorted(by_p)
            for lo, hi in zip(ps, ps[1:]):
                if not _not_above(by_p[lo], by_p[hi]):
                    problems.append(f"n={n}: {what} at p={lo} exceeds p={hi}")
        return problems

    # -- one method per CLI command ------------------------------------------

    def _approx(self, op, data) -> List[str]:
        f = self._function(op)
        problems = list(self._function_problems[(op.function, op.resolution, op.seed)])
        ps = [_p_value(t) for t in op.p.split(",")]
        expected_rows = [(n, p) for n in range(op.nmin, op.nmax + 1) for p in ps]
        records = data["records"]
        if data["seed"] != op.seed:
            problems.append(f"seed {data['seed']} echoed for {op.seed}")
        if [(r["n"], _p_value(r["p"])) for r in records] != expected_rows:
            return problems + ["rows do not cover the requested (n, p) grid"]
        errors: Dict[int, Dict[float, float]] = {}
        moduli: Dict[int, Dict[float, float]] = {}
        for r in records:
            n, p = r["n"], _p_value(r["p"])
            if r["bound_ok"] is not True or r["flag"]:
                problems.append(f"n={n} p={p}: bound_ok={r['bound_ok']} flag={r['flag']!r}")
            problems += self._modulus_problems(op, f, n, p, r["modulus"])
            problems += self._error_problems(op, f, n, p, r["error"])
            if r["modulus"] >= experiments.MODULUS_FLOOR and not _close(
                r["ratio"], r["error"] / r["modulus"]
            ):
                problems.append(f"n={n} p={p}: ratio is not error / modulus")
            errors.setdefault(n, {})[p] = r["error"]
            moduli.setdefault(n, {})[p] = r["modulus"]
        problems += self._order_problems(errors, "error")
        return problems + self._order_problems(moduli, "modulus")

    def _modulus(self, op, data) -> List[str]:
        f = self._function(op)
        problems = list(self._function_problems[(op.function, op.resolution, op.seed)])
        ps = [_p_value(t) for t in op.p.split(",")]
        expected_rows = [(n, p) for n in range(op.nmin, op.nmax + 1) for p in ps]
        if [(r["n"], _p_value(r["p"])) for r in data] != expected_rows:
            return problems + ["rows do not cover the requested (n, p) grid"]
        moduli: Dict[int, Dict[float, float]] = {}
        for r in data:
            n, p = r["n"], _p_value(r["p"])
            if r["delta"] != 2.0**-n:
                problems.append(f"n={n}: delta {r['delta']!r} is not 2^-n")
            problems += self._modulus_problems(op, f, n, p, r["omega"])
            moduli.setdefault(n, {})[p] = r["omega"]
        return problems + self._order_problems(moduli, "modulus")

    def _weights_validate(self, op, data) -> List[str]:
        scheme = self._scheme(op.weights, op.block)
        total = sum(scheme.exact, Fraction(0))
        c2 = scheme.exact[-1] * scheme.block_end
        mono = EXPECTED_MONOTONICITY[op.weights]
        expected = {
            "n": op.block,
            "sum_ok": total == 1,
            "monotonicity": mono,
            "case_a_ok": mono in ("nondecreasing", "both") and c2 <= DEFAULT_CASE_A_CAP,
            "case_b_ok": mono in ("nonincreasing", "both"),
        }
        problems = [
            f"{key}={data[key]!r}, expected {value!r}"
            for key, value in expected.items()
            if data[key] != value
        ]
        if not expected["sum_ok"]:
            problems.append("family weights do not sum to one")
        if not _close(data["sum"], float(total)) or not _close(data["c2_constant"], float(c2)):
            problems.append("sum or c2_constant differs from the exact values")
        return problems

    def _fejer_peak(self, resolution: int):
        if resolution not in self._fejer_peaks:
            norms = [_fejer_norm(k, resolution) for k in range(1, (1 << (resolution - 1)) + 1)]
            best = max(range(len(norms)), key=lambda i: norms[i])
            self._fejer_peaks[resolution] = (norms[best], best + 1)
        return self._fejer_peaks[resolution]

    def _verify_lemmas(self, op, data) -> List[str]:
        rows = {r["lemma"]: r for r in data}
        if tuple(r["lemma"] for r in data) != LEMMAS:
            return [f"lemmas reported: {[r['lemma'] for r in data]}"]
        N = op.resolution
        problems = [
            f"{name}: pass={r['pass']}"
            for name, r in rows.items() if r["pass"] is not True
        ]
        instances = {
            "dirichlet-closed-form": N + 1,
            "dirichlet-recursion": (1 << N) + 1,
            "fejer-l1-uniform-bound": 1 << (N - 1),
            "fejer-l1-sharp-bound": 1 << (N - 1),
            "translate-difference-bound": op.lemma5_count,
            "vp-kernel-decomposition": 4 * min(6, N - 1) + op.random_schemes,
        }
        problems += [
            f"{name}: {rows[name]['instances']} instances, expected {count}"
            for name, count in instances.items()
            if rows[name]["instances"] != count
        ]
        problems += [
            f"{name}: deviation {rows[name]['worst_margin']!r}, expected exactly 0"
            for name in EXACT_LEMMAS
            if rows[name]["worst_margin"] != 0
        ]
        if rows["translate-difference-bound"]["worst_margin"] < 0:
            problems.append("translate-difference-bound: negative margin")
        peak, argmax = self._fejer_peak(N)
        if N <= NAIVE_MAX_N and _fejer_norm(argmax, N, naive=True) != peak:
            problems.append(f"||K_{argmax}||_1 differs between the fast and the naive transform")
        if rows["fejer-l1-sharp-bound"]["detail"] != f"max={float(peak):.12g}@n={argmax}":
            problems.append(
                f"Fejer peak {rows['fejer-l1-sharp-bound']['detail']}, "
                f"exact max={float(peak)!r}@n={argmax}"
            )
        bounds = (("fejer-l1-uniform-bound", 2), ("fejer-l1-sharp-bound", Fraction(17, 15)))
        for name, bound in bounds:
            if not _close(rows[name]["worst_margin"], float(bound - peak)):
                problems.append(
                    f"{name}: margin {rows[name]['worst_margin']!r}, exact {float(bound - peak)!r}"
                )
        return problems

    def _kernel_norms(self, op, data) -> List[str]:
        N = op.resolution
        n_max = 1 << (N - 1)
        if [r["n"] for r in data] != list(range(1, n_max + 1)):
            return [f"rows do not cover n = 1..{n_max}"]
        problems = []
        sharp = float(Fraction(17, 15))
        for r in data:
            if not (_not_above(1.0, r["l1_dirichlet"]) and _not_above(1.0, r["l1_fejer"])):
                problems.append(f"n={r['n']}: an L1 norm is below 1")
            if not _not_above(r["l1_fejer"], sharp):
                problems.append(f"n={r['n']}: ||K_n||_1 = {r['l1_fejer']!r} exceeds 17/15")
        samples = {1, 2, 3, n_max} | {1 << m for m in range(N)}
        samples |= set(random.Random(N).sample(range(1, n_max + 1), KERNEL_NORM_SAMPLES))
        for n in sorted(samples):
            row = data[n - 1]
            d_exact = kernel_l1_norm(dirichlet_via_recursion(n, N))
            if not _close(row["l1_dirichlet"], float(d_exact)):
                problems.append(
                    f"n={n}: ||D_n||_1 {row['l1_dirichlet']!r}, exact {float(d_exact)!r}"
                )
            if n & (n - 1) == 0 and row["l1_dirichlet"] != 1.0:
                problems.append(f"n={n}: ||D_n||_1 at a power of two is not 1")
            k_exact = _fejer_norm(n, N)
            if not _close(row["l1_fejer"], float(k_exact)):
                problems.append(f"n={n}: ||K_n||_1 {row['l1_fejer']!r}, exact {float(k_exact)!r}")
        return problems
