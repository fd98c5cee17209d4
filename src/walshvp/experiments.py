"""Numerical verification suite: kernel lemma checks and approximation
error vs modulus-of-continuity tables.

All randomness flows through a splitmix-style 64-bit generator so every
table is reproducible from its recorded seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .dyadic import (
    INF,
    SampledFunction,
    _batches,
    _check_exponent,
    _lp_of_values,
    _rank_of,
    abs_values,
    check_resolution,
    interval_indicator,
    lp_norm,
    modulus_of_continuity,
)
from .walsh_system import Spectrum, _butterfly, _keep_spectra, fwht_forward, fwht_inverse
from .kernels import (
    _block_weights,
    _check_block,
    _dirichlet_rec_int,
    _fejer_numerators,
    _vp_numerators,
    _walsh_sum_rows,
    _walsh_tables,
    kernel_norm_sweep,
)
from .weights import WeightScheme, _FamilySchemes, validate
from .means import _mean_period

# Explicit constant for non-increasing block weights summing to one.
CASE_B_BOUND = Fraction(47, 30)

# Sharp uniform bound on the Fejer kernel L1 norms.
FEJER_SHARP_BOUND = Fraction(17, 15)

MODULUS_FLOOR = 1e-13
ERROR_FLOOR = 1e-10
DEFAULT_SLACK = 1e-9
_TRANSLATE_SLACK = 1e-10  # DEFAULT_SLACK would loosen the translate-difference lemma

FLAG_INCONSISTENT = "inconsistent"

# Above this resolution the Dirichlet recursion check samples its orders.
RECURSION_EXHAUSTIVE_MAX_N = 10
RECURSION_SAMPLES = (1 << RECURSION_EXHAUSTIVE_MAX_N) + 1

# verify_all_lemmas refuses (translate_count + random_schemes) * 2^N cells
# past this: the default 225 instances pass up to the resolution cap,
# N = MAX_RESOLUTION = 24, and 10^7 translate-difference instances at
# N = 12 (hours of syntheses and moduli) do not.
LEMMA_CELL_BUDGET = 1 << 32

STANDARD_SUITE_SPECS = (
    "abs_power:0.5",
    "abs_power:1.0",
    "indicator:2",
    "walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625",
    "step_mix",
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny deterministic 64-bit generator (splitmix64 increments)."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint(self, bound: int) -> int:
        return self.next_u64() % bound

    def uniform(self) -> float:
        """Uniform in [-1, 1)."""
        return (self.next_u64() >> 11) * 2.0**-52 - 1.0

    def skip(self, count: int) -> None:
        """Advance past count draws without making them."""
        self.state = (self.state + count * _GAMMA) & _MASK64

    @staticmethod
    def uniform_rows(states: Sequence[int], count: int) -> np.ndarray:
        """Row i holds the count uniform() draws of a generator at states[i],
        all rows at once.  The k-th state of a row is its start + k * gamma
        mod 2^64, mixed in place in uint64 arithmetic, which wraps like the
        mask, so at most two arrays of the draws' size are live at once."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        steps *= np.uint64(_GAMMA)
        z = np.asarray(states, dtype=np.uint64).reshape(-1, 1) + steps
        del steps
        z ^= z >> 30
        z *= np.uint64(_MIX1)
        z ^= z >> 27
        z *= np.uint64(_MIX2)
        z ^= z >> 31
        z >>= 11
        draws = z.astype(np.float64)
        draws *= 2.0**-52
        draws -= 1.0
        return draws

    def uniforms(self, count: int) -> np.ndarray:
        """count uniform() draws at once: uniform_rows of this state."""
        draws = self.uniform_rows([self.state], count)[0]
        self.skip(count)
        return draws


def random_bounded(seed: int, resolution: int) -> SampledFunction:
    rng = SplitMix64(seed)
    return SampledFunction._own(resolution, rng.uniforms(1 << resolution))


def step_mix(seed: int, resolution: int) -> SampledFunction:
    """Random function constant on the cells of rank 4 (all cells below N = 4):
    its 16 cells are its period."""
    rng = SplitMix64(seed)
    return SampledFunction._own(resolution, rng.uniforms(1 << min(4, resolution)))


def abs_power(alpha: float, resolution: int) -> SampledFunction:
    """f(x) = |x|^alpha with the dyadic absolute value."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"abs_power needs a finite alpha > 0, got {alpha}")
    values = abs_values(resolution)
    values **= alpha  # in place: no second 2^N array
    return SampledFunction._own(resolution, values)


def walsh_poly(coefficients: Sequence[float], resolution: int) -> SampledFunction:
    """sum_m c_m w_m, synthesized from the coefficients up to the next
    power of two."""
    vals = np.asarray(coefficients, dtype=np.float64)
    if vals.size > 1 << resolution:
        raise ValueError("polynomial order exceeds resolution")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"walsh_poly coefficient {bad[0]} is {vals[bad[0]]}, not finite")
    coeffs = np.zeros(1 << max(vals.size - 1, 0).bit_length())
    coeffs[: vals.size] = vals
    return fwht_inverse(Spectrum._own(resolution, coeffs))


def _spec_number(kind: str, spec: str, token: str, convert=float):
    """convert(token), or a ValueError that names the spec it came from."""
    try:
        return convert(token)
    except ValueError:
        noun = "an integer" if convert is int else "a number"
        raise ValueError(f"{kind} spec {spec!r}: {token!r} is not {noun}") from None


def make_function(spec: str, resolution: int, seed: int = 0) -> SampledFunction:
    """Build a library function from a spec string.

    Forms: abs_power:<alpha>, indicator:<rank>, walsh_poly:<c0,c1,...>,
    random, step_mix.
    """
    check_resolution(resolution)
    name, colon, arg = spec.partition(":")
    if name in ("abs_power", "indicator", "walsh_poly") and not arg:
        raise ValueError(f"function spec {spec!r} needs an argument after ':'")
    if name in ("random", "step_mix") and colon:
        raise ValueError(f"function spec {spec!r} takes no argument")
    if name == "abs_power":
        return abs_power(_spec_number("function", spec, arg), resolution)
    if name == "indicator":
        return interval_indicator(_spec_number("function", spec, arg, int), resolution)
    if name == "walsh_poly":
        coeffs = [_spec_number("function", spec, c) for c in arg.split(",")]
        return walsh_poly(coeffs, resolution)
    if name == "random":
        return random_bounded(seed, resolution)
    if name == "step_mix":
        return step_mix(seed, resolution)
    raise ValueError(f"unknown function spec {spec!r}")


def standard_suite(resolution: int, seed: int = 0) -> List[Tuple[str, SampledFunction]]:
    return [(spec, make_function(spec, resolution, seed)) for spec in STANDARD_SUITE_SPECS]


def random_rational_scheme(n: int, rng: SplitMix64) -> WeightScheme:
    """Random non-negative rational weights on the block, summing to one."""
    raw = [rng.randint(100) for _ in range(1 << n)]
    if not any(raw):
        raw[0] = 1
    return WeightScheme(n, numerators=raw, denominator=sum(raw))


@dataclass(frozen=True)
class ApproxRecord:
    """One table row: approximation error of the block mean against the
    modulus of continuity at the matching dyadic scale.  The fields are
    the keys of an approx row, in its order."""

    n: int
    p: float
    error: float
    modulus: float
    ratio: float
    bound: float  # nan when no explicit constant is asserted
    bound_ok: bool
    flag: str = ""


def _finite_modulus(modulus: float, n: int, p: float) -> float:
    """A modulus omega_p(f, 2^-n), or a ValueError when it passes the float
    range: an infinite modulus bounds nothing."""
    if not modulus < INF:
        raise ValueError(f"the p = {p:.12g} modulus at n = {n} passes the float range")
    return modulus


def approximation_error(f: SampledFunction, scheme: WeightScheme, p) -> ApproxRecord:
    """Compute ||mean(f) - f||_p, omega_p(f, 2^-n), and their ratio: the
    sweep of one block and one p (ratio_sweep).

    The error at every p is the L^p norm of f - mean at the 2^r cells of
    one period of a rank-r f, the mean synthesized by _mean_period as in
    vp_mean, so it is lp_norm(vp_mean(f, scheme).function - f, p) bit for
    bit.  The 47/30 constant is asserted, with slack DEFAULT_SLACK,
    exactly when the scheme sums to one and is non-increasing (case b);
    otherwise bound is nan and nothing is asserted.
    """
    return ratio_sweep(f, [scheme], [p])[0]


def ratio_sweep(
    f: SampledFunction, schemes: Iterable[WeightScheme], p_values: Iterable
) -> List[ApproxRecord]:
    """One ApproxRecord per (block, p), as approximation_error gives it,
    block after block.  Each scheme is drawn from schemes when its block
    comes, and n is its block exponent; it is checked, validated and
    turned into the period of the block's mean (_mean_period) once for all
    p.  Then each row is computed, checked and recorded in p_values order:
    the error, the modulus, the ratio.  Every error is one _lp_of_values
    call on the 2^r samples of f, r its rank, less the mean's period tiled
    over them, read in blocks, so no residual of 2^r cells is built.  A
    failure raises before the next row is computed, and so before the next
    scheme is drawn."""
    p_values = tuple(map(_check_exponent, p_values))
    records = []
    for scheme in schemes:
        n = scheme.block_exponent
        _check_block(scheme, f.resolution)
        report = validate(scheme)
        # The 47/30 bound is asserted exactly when the scheme sums to one and
        # is non-increasing (case b): its proof needs both.
        bound = float(CASE_B_BOUND) if report.sum_ok and report.case_b_ok else math.nan
        mean = _mean_period(f, scheme.weights, n)
        for p in p_values:
            error = _lp_of_values(f._head, p, f.resolution, period=mean)
            if not error < INF:
                raise ValueError(f"the p = {p:.12g} error of block n = {n} passes the float range")
            modulus = _finite_modulus(modulus_of_continuity(f, n, p), n, p)
            flag = ""
            if modulus < MODULUS_FLOOR:
                # Zero modulus forces a block polynomial, where the mean must
                # reproduce f; anything else is an inconsistency, not a ratio.
                if error < ERROR_FLOOR:
                    ratio = 0.0
                    bound_ok = True
                else:
                    ratio = math.inf
                    bound_ok = False
                    flag = FLAG_INCONSISTENT
            else:
                ratio = error / modulus
                if not ratio < INF:
                    raise ValueError(
                        f"the p = {p:.12g} ratio of block n = {n} passes the float range"
                    )
                bound_ok = math.isnan(bound) or error <= bound * modulus + DEFAULT_SLACK
            records.append(ApproxRecord(n, p, error, modulus, ratio, bound, bound_ok, flag))
    return records


def sweep_ok(records: Iterable[ApproxRecord]) -> bool:
    return all(r.bound_ok and not r.flag for r in records)


def _translate_differences(
    fs: Sequence[SampledFunction], gs: Sequence[SampledFunction], n: int, ps: Sequence
) -> List[Tuple[float, float, bool]]:
    """(lhs, rhs, ok) of verify_translate_difference_bound for each
    (f, g, p) of a batch at one n, which the caller has checked against
    the common resolution.  The rank of every g, at which it is held, is
    checked; the spectra of the fs and gs come from _keep_spectra, and
    the coefficients fhat(2^n+m) ghat(m) of all left sides are
    synthesized in one batched butterfly.  A left side's 2^(n+1) cells
    have the norms of its full-size synthesis, whose copies only tile
    them up to the sign of a zero.  Each f's modulus is
    modulus_of_continuity's, by the route it picks for that f, and is a
    ValueError past the float range (_finite_modulus)."""
    for g in gs:
        rank = _rank_of(g)
        if rank > n:
            raise ValueError(f"g has dyadic rank {rank}, above n = {n}")
    _keep_spectra([*fs, *gs])
    resolution = fs[0].resolution
    low = 1 << n
    coeffs = np.zeros((len(fs), 2 * low))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, f, g in zip(coeffs, fs, gs):
            np.multiply(
                fwht_forward(f)._prefix(2 * low)[low:], fwht_forward(g)._prefix(low), out=row[low:]
            )
        _butterfly(coeffs)
    if not np.isfinite(coeffs).all():  # an inf left side would pass any bound
        raise ValueError(f"a left side at n = {n} passes the float range")
    results = []
    for row, f, g, p in zip(coeffs, fs, gs, ps):
        lhs = _lp_of_values(row, _check_exponent(p), resolution)
        rhs = 0.5 * lp_norm(g, 1) * _finite_modulus(modulus_of_continuity(f, n, p), n, p)
        results.append((lhs, rhs, lhs <= rhs + _TRANSLATE_SLACK))
    return results


def verify_translate_difference_bound(
    f: SampledFunction, g: SampledFunction, n: int, p
) -> Tuple[float, float, bool]:
    """Check || int r_n(t) g(t) (f(.+t) - f(.)) dmu(t) ||_p against
    (1/2) ||g||_1 omega_p(f, 2^-n).

    g must have dyadic rank at most n (depend only on x_0..x_{n-1}),
    which holds exactly when its spectrum lies below 2^n; else
    ValueError.  Then the integral is f * (r_n g), whose coefficient at
    2^n + m is fhat(2^n+m) ghat(m) by r_n w_m = w_{2^n+m}, and zero below
    2^n.  A left side or a modulus past the float range is a
    ValueError.  This is the batch of one of _translate_differences, the
    core that verify-lemmas runs in batches.
    """
    f._check_same(g)
    if not 0 < n < f.resolution:
        raise ValueError(f"need 0 < n < {f.resolution}, got {n}")
    return _translate_differences([f], [g], n, [p])[0]


@dataclass(frozen=True)
class LemmaResult:
    name: str
    instances: int
    worst_margin: float
    passed: bool
    detail: str = ""


def _check_dirichlet_recursion(resolution: int, seed: int) -> Tuple[LemmaResult, LemmaResult]:
    """The closed-form and recursion rows: D_n by the doubling recursion
    (_dirichlet_rec_int) against the definition D_n = sum_{k<n} w_k for
    every n in [0, 2^N] up to RECURSION_EXHAUSTIVE_MAX_N; above it, where
    the 2^N + 1 orders would cost O(4^N), n = 0, every power of two and
    orders drawn from the seed, RECURSION_SAMPLES in all, with detail
    sampled.  The choice of orders is the only branch on N.  The
    definition rows are _walsh_sum_rows, O(2^N) an order, from one pair of
    _walsh_tables built here for every batch; that builder uses neither
    the recursion, nor the top-bit splitting, nor the closed form of
    D_{2^m}.  Each of the _batches of B orders is held as two int32
    (B, 2^N) blocks, one row per order; the definition's is subtracted from
    the recursion's in place.  The recursion builds D_{2^m} as its closed
    form, 2^m on I_m, so the error at the N + 1 powers of two is the
    closed-form row's."""
    size = 1 << resolution
    if resolution <= RECURSION_EXHAUSTIVE_MAX_N:
        orders, detail = range(size + 1), ""
    else:
        sampled = {0} | {1 << m for m in range(resolution + 1)}
        rng = SplitMix64(seed)
        while len(sampled) < RECURSION_SAMPLES:
            sampled.add(rng.randint(size + 1))
        orders, detail = sorted(sampled), "sampled"
    tables = _walsh_tables(resolution)
    worst = closed = powers = 0
    for batch in _batches(orders, lambda n: (None, size)):
        block = np.asarray(batch, dtype=np.int32)
        diffs = _dirichlet_rec_int(block, resolution)
        diffs -= _walsh_sum_rows(block, resolution, tables)
        worst = max(worst, int(diffs.max()), -int(diffs.min()))
        power = np.flatnonzero((block > 0) & ((block & (block - 1)) == 0))
        closed = max(closed, int(np.abs(diffs[power]).max(initial=0)))
        powers += power.size
    return (
        LemmaResult("dirichlet-closed-form", powers, float(closed), closed == 0),
        LemmaResult("dirichlet-recursion", len(orders), float(worst), worst == 0, detail),
    )


def _check_fejer_bounds(resolution: int) -> Tuple[LemmaResult, LemmaResult]:
    n_max = 1 << (resolution - 1)
    _, ell = kernel_norm_sweep(n_max, resolution)
    # ||K_n||_1 = l(n) / (n 2^N).  Rounding keeps order, so the exact peak
    # is among the n whose float l(n) / n ties the largest; only those are
    # compared as Fractions, the first of equal ones winning.
    ratios = ell[1:] / np.arange(1, n_max + 1)
    tied = np.flatnonzero(ratios == ratios.max()) + 1
    best = max(tied.tolist(), key=lambda n: Fraction(int(ell[n]), n))
    peak = Fraction(int(ell[best]), best << resolution)
    detail = f"max={float(peak):.12g}@n={best}"
    uniform = LemmaResult(
        "fejer-l1-uniform-bound", n_max, float(2 - peak), peak <= 2, detail
    )
    sharp = LemmaResult(
        "fejer-l1-sharp-bound",
        n_max,
        float(FEJER_SHARP_BOUND - peak),
        peak <= FEJER_SHARP_BOUND,
        detail,
    )
    return uniform, sharp


def _translate_instances(resolution: int, seed: int, count: int) -> list:
    """The draws of the translate-difference check as one generator makes
    them in turn, without the uniforms: for each instance (n, p, f_state,
    g_state, k), where f's 2^N samples are the draws of a generator at
    f_state, and g is either the synthesis of the 2^n draws at g_state
    (even instances, k None) or the Fejer kernel K_k (odd instances,
    g_state None)."""
    rng = SplitMix64(seed)
    p_cycle = (1.0, 2.0, INF)
    instances = []
    for i in range(count):
        n = 1 + rng.randint(resolution - 1)
        f_state = rng.state
        rng.skip(1 << resolution)
        if i % 2 == 0:
            instances.append((n, p_cycle[i % 3], f_state, rng.state, None))
            rng.skip(1 << n)
        else:
            instances.append((n, p_cycle[i % 3], f_state, None, 1 + rng.randint(1 << n)))
    return instances


def _check_translate_difference(resolution: int, seed: int, count: int) -> LemmaResult:
    """verify_translate_difference_bound on count seeded instances, in the
    _batches of one n: a batch draws its f and spectral g rows from their
    generator states at once, synthesizes those g in one butterfly and its
    Fejer g in one _fejer_numerators call (rows / k), and passes all rows,
    held as functions, to _translate_differences."""
    instances = sorted(_translate_instances(resolution, seed, count), key=lambda i: i[0])
    worst = math.inf
    passed = True
    for batch in _batches(instances, lambda instance: (instance[0], 1 << resolution)):
        (n, *_), ps, f_states, g_states, orders = zip(*batch)
        f_rows = SplitMix64.uniform_rows(f_states, 1 << resolution)
        fs = [SampledFunction._own(resolution, row) for row in f_rows]
        spectral = [j for j, k in enumerate(orders) if k is None]
        kernels = [j for j, k in enumerate(orders) if k is not None]
        g_rows = {}
        if spectral:
            draws = SplitMix64.uniform_rows([g_states[j] for j in spectral], 1 << n)
            g_rows.update(zip(spectral, _butterfly(draws)))
        if kernels:
            ks = np.array([orders[j] for j in kernels])[:, None]
            g_rows.update(zip(kernels, _fejer_numerators(ks, 1 << n) / ks))
        gs = [SampledFunction._own(resolution, g_rows[j]) for j in range(len(batch))]
        for lhs, rhs, ok in _translate_differences(fs, gs, n, ps):
            worst = min(worst, rhs - lhs)
            passed = passed and ok
    return LemmaResult("translate-difference-bound", count, float(worst), passed)


def _decomposition_deviation(*schemes: WeightScheme) -> Fraction:
    """The largest deviation of the sum of the three parts of
    decompose_vp_kernel from vp_kernel, over the weights' common
    denominator, for a batch of schemes of one block exponent and numerator
    dtype: the rows of one _vp_numerators call at the 2^(n+1) cells of the
    support, where part 1's period of 2^n cells repeats twice."""
    weights = [_block_weights(scheme) for scheme in schemes]
    t = np.stack([numerators for numerators, _ in weights])
    kernel, first, second, third = _vp_numerators(t)
    total = second + third
    total.reshape(t.shape[:-1] + (2, -1))[...] += first[..., None, :]
    deviations = np.max(np.abs(total - kernel), axis=-1)
    return max(Fraction(int(d), denom) for d, (_, denom) in zip(deviations, weights))


def _check_decomposition(resolution: int, seed: int, random_schemes: int) -> LemmaResult:
    """_decomposition_deviation of the family schemes at n = 1..min(6, N-1),
    one builder a family, and of seeded random ones, in the _batches of one
    (n, numerator dtype) at the 2^(n+1) cells of their support."""
    rng = SplitMix64(seed)
    n_cap = min(6, resolution - 1)
    families = (("uniform", None), ("linear_up", None), ("linear_down", None), ("cesaro", 2))
    builders = [_FamilySchemes(family, alpha) for family, alpha in families]
    schemes = [build(n) for n in range(1, n_cap + 1) for build in builders]
    for _ in range(random_schemes):
        n = 1 + rng.randint(n_cap)
        schemes.append(random_rational_scheme(n, rng))

    def key(scheme):
        n = scheme.block_exponent
        return (n, _block_weights(scheme)[0].dtype == object), 2 << n

    worst = Fraction(0)
    for batch in _batches(sorted(schemes, key=key), key):
        worst = max(worst, _decomposition_deviation(*batch))
    return LemmaResult("vp-kernel-decomposition", len(schemes), float(worst), worst == 0)


def verify_all_lemmas(
    resolution: int,
    seed: int = 2024,
    translate_count: int = 200,
    random_schemes: int = 25,
) -> List[LemmaResult]:
    """Run every kernel-identity and kernel-bound check at one resolution.

    A check with no instances fails with detail "no instances".  A run
    whose counted instances, translate_count + random_schemes, times the
    2^N cells passes LEMMA_CELL_BUDGET is refused before any is built."""
    check_resolution(resolution)
    if resolution < 4:
        raise ValueError("lemma verification needs resolution >= 4")
    if translate_count < 0 or random_schemes < 0:
        raise ValueError(
            f"instance counts must be >= 0, got translate_count={translate_count}, "
            f"random_schemes={random_schemes}"
        )
    cells = (translate_count + random_schemes) << resolution
    if cells > LEMMA_CELL_BUDGET:
        raise ValueError(
            f"{translate_count} translate-difference and {random_schemes} decomposition "
            f"instances at 2^{resolution} cells each pass the budget of "
            f"{LEMMA_CELL_BUDGET} cells; lower --lemma5-count or --random-schemes"
        )
    results = [
        *_check_dirichlet_recursion(resolution, seed + 2),
        *_check_fejer_bounds(resolution),
        _check_translate_difference(resolution, seed, translate_count),
        _check_decomposition(resolution, seed + 1, random_schemes),
    ]
    return [r if r.instances else replace(r, passed=False, detail="no instances") for r in results]

