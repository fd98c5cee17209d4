"""Block weight sequences {t_k : 2^n <= k <= 2^(n+1)-1} and their
validation against the hypotheses of the error bounds: weights sum
to one (condition 1), and either non-decreasing with a last weight of
size O(1/(2^(n+1)-1)) (case a) or non-increasing (case b)."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dyadic import MAX_RESOLUTION

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"
BOTH = "both"
NONE = "none"

DEFAULT_CASE_A_CAP = 4.0

FAMILIES = ("uniform", "linear_up", "linear_down", "cesaro")

# Most bits of exact numerators a cesaro scheme may hold.  For alpha = p/q
# in lowest terms each of the 2^n numerators grows by about log2 q bits per
# index, so the scheme holds about 4^n log2 q bits (1 to 2 times that,
# measured): 2^26 bits keeps a build near a second (alpha = 0.5 at n = 13,
# 0.3 at n = 12, 0.123456789 at n = 10).  For alpha > 1 each numerator also
# holds about log2 binom(2^n + alpha - 1, 2^n) bits, which an integer alpha
# (q = 1) still has: alpha = 1e6 is refused from n = 12.
_CESARO_MAX_BITS = 1 << 26


@dataclass(frozen=True)
class WeightScheme:
    """Rational weights over the dyadic block [2^n, 2^(n+1)-1].

    Index k = 2^n + i has weight t_k = numerators[i] / denominator, with
    a positive denominator.  The integers are reduced by their gcd and
    held as int64 while their sum fits, as Python ints past it.  weights
    is derived: weights[i] is the correctly rounded float quotient.
    """

    block_exponent: int
    numerators: np.ndarray
    denominator: int = 1
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.block_exponent
        if n < 1:
            raise ValueError(f"block exponent must be >= 1, got {n}")
        numer = _integers(self.numerators)
        denom = operator.index(self.denominator)
        if denom < 1:
            raise ValueError(f"denominator must be positive, got {denom}")
        if np.any(numer < 0):
            raise ValueError("weights must be non-negative")
        # g divides the numerators' gcd, so it fits their dtype, unless
        # that gcd is 0: every numerator is 0, g is the denominator, which
        # may pass int64, and no numerator needs dividing.  Nor does any
        # when g is 1, and skipping that copy saves 10-15% of a uniform or
        # cesaro build.
        common = int(np.gcd.reduce(numer))
        g = math.gcd(common, denom)
        if common and g > 1:
            numer = numer // g
        denom //= g
        # A fixed-width sum cannot wrap while top * count stays below 2^63.
        top = int(numer.max(initial=0))
        total = int(numer.sum(dtype=object if top * numer.size >= 1 << 63 else None))
        if numer.shape != (1 << n,):
            raise ValueError(
                f"expected {1 << n} weights for block exponent {n}, "
                f"got shape {numer.shape}"
            )
        self._hold(numer, denom, total, copy=True)

    @classmethod
    def _own(cls, n: int, numer: np.ndarray, denom: int) -> "WeightScheme":
        # A scheme on the 2^n non-negative integers of `numer`, with gcd 1,
        # that sum to denom: a family's numerators, which nothing else
        # refers to, held without the constructor's checks and gcd pass.
        self = object.__new__(cls)
        object.__setattr__(self, "block_exponent", n)
        self._hold(numer, denom, denom, copy=False)
        return self

    def _hold(self, numer: np.ndarray, denom: int, total: int, copy: bool) -> None:
        # int64 while the sum fits, else Python ints; read-only.
        numer = numer.astype(np.int64 if total < 1 << 63 else object, copy=copy)
        weights = _quotients(numer, denom)
        numer.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "numerators", numer)
        object.__setattr__(self, "denominator", denom)
        object.__setattr__(self, "weights", weights)

    @property
    def exact(self) -> tuple:
        """The weights as Fractions."""
        return tuple(Fraction(int(a), self.denominator) for a in self.numerators)

    @property
    def block_start(self) -> int:
        return 1 << self.block_exponent

    @property
    def block_end(self) -> int:
        return (1 << (self.block_exponent + 1)) - 1

    @property
    def block_size(self) -> int:
        return 1 << self.block_exponent


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a scheme against the error-bound hypotheses."""

    total: float
    sum_ok: bool
    monotonicity: str
    c2_constant: float
    case_a_ok: bool
    case_b_ok: bool


def _quotients(numer: np.ndarray, denom: int) -> np.ndarray:
    """The float64 quotients of integers (int64 or Python ints) by denom,
    each correctly rounded: in float64 while every operand is exact in it,
    else by Python's int / int, which divides exactly, then rounds."""
    top = int(np.max(np.abs(numer), initial=0))
    exact = numer if max(top, denom) <= 1 << 53 else numer.astype(object)
    return np.asarray(exact / denom, dtype=np.float64)


_INDEX = np.frompyfunc(operator.index, 1, 1)


def _integers(values) -> np.ndarray:
    """values as one array of integers: a 1-d integer array as it is,
    anything else through operator.index into an object array of Python
    ints, which raises its TypeError on a value that is not an integer."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.ndim == 1:
        return values
    return _INDEX(np.fromiter(values, dtype=object))


def _over_common_denominator(raw: Sequence[Fraction]) -> tuple:
    denom = math.lcm(*(q.denominator for q in raw))
    return [q.numerator * (denom // q.denominator) for q in raw], denom


def _binomial_ratio_numerators(alpha: Fraction, count: int) -> np.ndarray:
    # A^(alpha-1)_m = binom(m + alpha - 1, m) as integers with gcd 1,
    # assigned to the block index with m counting down from count-1 to 0.
    # A_m = A_{m-1} a_m / b_m, where a_m / b_m = (p + m q) / (m q) in lowest
    # terms for alpha - 1 = p/q, reduced for every m in one array pass
    # (int64 while p + m q fits).  If e_0..e_{m-1} have gcd 1, scaling them
    # by c_m = b_m / g_m, g_m = gcd(b_m, e_{m-1}), and appending
    # e_m = e_{m-1} / g_m * a_m keeps the gcd at 1.  So numerator m is the
    # prefix chain e_m times the suffix product of c_j over j > m, and
    # every gcd taken has a small operand.  The chain is one loop; the
    # suffix products and the final products are object-array passes.
    beta = alpha - 1
    p, q = beta.numerator, beta.denominator
    m = np.arange(1, count, dtype=np.int64 if abs(p) + count * q < 1 << 63 else object)
    a, b = p + m * q, m * q
    g = np.gcd(a, b)
    chain, scales, e = [1], [], 1
    for a_m, b_m in zip((a // g).tolist(), (b // g).tolist()):
        g_m = math.gcd(b_m, e)
        e = e // g_m * a_m
        chain.append(e)
        scales.append(b_m // g_m)
    suffix = np.multiply.accumulate(np.array([1] + scales[::-1], dtype=object))
    return np.array(chain[::-1], dtype=object) * suffix


def build_scheme(family: str, n: int, alpha=None) -> WeightScheme:
    """The weights of a family on block exponent n, normalized to sum to one.

    Families: uniform, linear_up, linear_down, cesaro (requires a finite
    alpha > -1; alpha = 1 reproduces uniform, alpha = 2 gives the
    decreasing tail weights).  An alpha is read as the nearest fraction
    with a denominator up to 10^9, and refused if that fraction is more
    than 1e-9 relative away from it.  A weight file is read by
    load_weight_file.
    A block no resolution up to MAX_RESOLUTION holds, or a cesaro
    scheme whose exact numerators would pass _CESARO_MAX_BITS, is refused
    before its 2^n weights are built.
    """
    if n < 1:
        raise ValueError(f"block exponent must be >= 1, got {n}")
    if n + 1 > MAX_RESOLUTION:
        raise ValueError(
            f"block exponent {n} needs resolution {n + 1}, above the cap {MAX_RESOLUTION}"
        )
    count = 1 << n
    if family == "uniform":
        return WeightScheme._own(n, np.ones(count, dtype=np.int64), count)
    if family in ("linear_up", "linear_down"):
        ramp = np.arange(1, count + 1, dtype=np.int64)
        if family == "linear_down":
            ramp = ramp[::-1].copy()
        return WeightScheme._own(n, ramp, count * (count + 1) // 2)
    if family == "cesaro":
        if alpha is None:
            raise ValueError("cesaro family requires alpha")
        if not math.isfinite(alpha):
            raise ValueError(f"cesaro alpha must be finite, got {alpha}")
        alpha_q = Fraction(alpha).limit_denominator(10**9)
        if abs(alpha_q - Fraction(alpha)) > abs(Fraction(alpha)) / 10**9:
            raise ValueError(
                f"cesaro alpha {alpha} has no fraction with a denominator up to 1e9 "
                f"within 1e-9 relative of it; the nearest is {alpha_q}"
            )
        if alpha_q <= -1:
            raise ValueError(f"cesaro alpha must exceed -1, got {alpha}")
        bits = 4**n * math.log2(alpha_q.denominator)
        if alpha_q > 1:
            # ln binom(count + b, count) by its entropy bound, finite for
            # every finite alpha (lgamma overflows from alpha = 3e305).
            b = float(alpha_q) - 1
            nats = count * math.log1p(b / count) + b * math.log1p(count / b)
            bits += count * nats / math.log(2)
        if bits > _CESARO_MAX_BITS:
            raise ValueError(
                f"cesaro alpha {alpha} at n={n} needs about {bits:.1e} bits of exact "
                f"weights, above {_CESARO_MAX_BITS:.1e}; lower n, alpha or alpha's denominator"
            )
        numerators = _binomial_ratio_numerators(alpha_q, count)
        if numerators.min() < 0:
            raise ValueError(f"cesaro alpha {alpha} produces negative weights")
        return WeightScheme._own(n, numerators, int(numerators.sum()))
    raise ValueError(f"unknown weight family {family!r}; choose from {FAMILIES}")


def _parse_weight_token(token: str) -> Fraction:
    token = token.strip()
    if "/" in token:
        num, den = (int(part) for part in token.split("/"))
        if den == 0:
            raise ValueError(f"weight {token!r} has a zero denominator")
        return Fraction(num, den)
    return Fraction(token)


def load_weight_file(path: str) -> WeightScheme:
    """Read a `k,t` CSV; t tokens are decimals or p/q rationals.

    The indices must cover one dyadic block, which sets the block
    exponent.  The weights are taken as written, not normalized, so
    validate reports whether they sum to one.  A malformed row (not two
    fields, a token that is not a number, an index below 1 or repeated)
    is an error naming its line.
    """
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "k,t":
            raise ValueError(f"weight file must start with 'k,t' header, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(
                    f"line {lineno}: expected 2 fields 'k,t', got {len(fields)}: {line!r}"
                )
            k_tok, t_tok = fields
            try:
                k = int(k_tok)
                t = _parse_weight_token(t_tok)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if k < 1:
                raise ValueError(f"line {lineno}: weight index must be >= 1, got {k_tok.strip()!r}")
            if k in rows:
                raise ValueError(f"line {lineno}: duplicate weight index {k}")
            rows[k] = t
    if not rows:
        raise ValueError("weight file contains no rows")
    start = min(rows)
    inferred = start.bit_length() - 1
    if start != 1 << inferred:
        raise ValueError(f"weight indices must cover a dyadic block; file starts at {start}")
    count = 1 << inferred
    missing = [start + i for i in range(count) if start + i not in rows]
    if missing or len(rows) != count:
        raise ValueError(f"weight file must cover [{start}, {start + count - 1}]")
    numer, denom = _over_common_denominator([rows[start + i] for i in range(count)])
    return WeightScheme(inferred, numerators=numer, denominator=denom)


def _monotonicity(t: np.ndarray) -> str:
    """Monotonicity class of t; ties qualify for both classes."""
    diffs = np.diff(t)
    nondec = bool(np.all(diffs >= 0))
    noninc = bool(np.all(diffs <= 0))
    if nondec and noninc:
        return BOTH
    if nondec:
        return NONDECREASING
    if noninc:
        return NONINCREASING
    return NONE


def validate(w: WeightScheme, case_a_cap: float = DEFAULT_CASE_A_CAP) -> ValidationReport:
    """Check condition (1), detect monotonicity, and report the exact
    constant t_last * (2^(n+1) - 1) behind condition (2).

    Case a needs a non-decreasing sequence and c2 <= case_a_cap; case b
    needs non-increasing only.  Ties qualify for both classes.
    """
    # The int64 sum cannot wrap: such numerators sum below 2^63.
    total_numer = int(np.sum(w.numerators))
    c2 = int(w.numerators[-1]) * w.block_end / w.denominator
    mono = _monotonicity(w.numerators)
    return ValidationReport(
        total=total_numer / w.denominator,
        sum_ok=total_numer == w.denominator,
        monotonicity=mono,
        c2_constant=c2,
        case_a_ok=mono in (NONDECREASING, BOTH) and c2 <= case_a_cap,
        case_b_ok=mono in (NONINCREASING, BOTH),
    )
