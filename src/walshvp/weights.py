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
# measured).  At 2^26 bits the largest schemes it admits (alpha = 0.5 at
# n = 13, 0.3 at n = 12, 0.123456789 at n = 10) take 0.23-0.38 s and
# 34-48 MiB as a whole weights-validate process on a 2-vCPU Xeon.  For
# alpha > 1 each numerator also holds about log2 binom(2^n + alpha - 1, 2^n)
# bits, which an integer alpha (q = 1) still has: alpha = 1e6 is refused
# from n = 12.
_CESARO_MAX_BITS = 1 << 26

# A cesaro chain that still fits int64 grows to this length at once, so the
# small blocks of a sweep share one growth.  Otherwise a growth at most
# doubles the chain, so a chain that passes int64 takes its exact Python-int
# steps on no more entries than it had.
_FIRST_GROWTH = 64
# Steps of the cesaro chain a run takes on a residue of e, once e passes
# int64; 32 was the fastest of 8 to 64 at n = 10 and n = 13.
_RUN = 32


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
        weights = _quotients(numer, denom, top=total)
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


def _quotients(numer: np.ndarray, denom: int, top=None) -> np.ndarray:
    """The float64 quotients of integers (int64 or Python ints) by denom,
    each correctly rounded: in float64 while every operand is exact in it,
    else by Python's int / int, which divides exactly, then rounds.  top,
    if given, bounds every |numerator|."""
    if top is None:
        top = int(np.max(np.abs(numer), initial=0))
    exact = numer if max(top, denom) <= 1 << 53 else numer.astype(object, copy=False)
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


class _CesaroChain:
    """The cesaro numerators of one alpha, for block after block.

    A_m = binom(m + alpha - 1, m), and block n holds A_m for m < 2^n, m
    counting down along the block, as integers with gcd 1.  A_m = A_(m-1)
    a_m / b_m, where a_m / b_m = (p + m q) / (m q) in lowest terms for
    alpha - 1 = p/q, reduced in array passes (int64 while p + m q fits).
    If e_0..e_(m-1) have gcd 1, scaling them by s_m = b_m / g_m, with
    g_m = gcd(b_m, e_(m-1)), and appending e_m = e_(m-1) / g_m a_m keeps
    the gcd at 1.  So block n's numerator of A_m is e_m times the suffix
    product of s_j over m < j < 2^n, and the first is N_0 = prod(s_j).

    The chain is one loop over m that a sweep extends block by block,
    keeping every s_m, and every e_m while they fit int64.  A block that
    a bound keeps in int64 takes its suffix products and numerators in
    int64 array passes; past the bound it walks up from N_0 by N_m =
    N_(m-1) / b_m a_m, exact, with small operands.  alpha is parsed and
    checked once.
    """

    def __init__(self, alpha):
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
        self.alpha = alpha
        self._log2_q = math.log2(alpha_q.denominator)
        self._growth = float(alpha_q) - 1 if alpha_q > 1 else None
        self._negative = alpha_q < 0
        beta = alpha_q - 1
        self._p, self._q = beta.numerator, beta.denominator
        # s_m (s_0 = 1) for every m of the chain, e_m up to the first that
        # passes int64, and the last e_m.
        self._scales = self._e64 = np.ones(1, dtype=np.int64)
        self._e = 1

    def _check(self, n: int) -> None:
        count = 1 << n
        bits = 4**n * self._log2_q
        if self._growth is not None:
            # ln binom(count + b, count) by its entropy bound, finite for
            # every finite alpha (lgamma overflows from alpha = 3e305).
            b = self._growth
            nats = count * math.log1p(b / count) + b * math.log1p(count / b)
            bits += count * nats / math.log(2)
        if bits > _CESARO_MAX_BITS:
            raise ValueError(
                f"cesaro alpha {self.alpha} at n={n} needs about {bits:.1e} bits of exact "
                f"weights, above {_CESARO_MAX_BITS:.1e}; lower n, alpha or alpha's denominator"
            )
        # A_1 = alpha, and every later A_m has its sign.
        if self._negative:
            raise ValueError(f"cesaro alpha {self.alpha} produces negative weights")

    def _ratios(self, start: int, stop: int) -> tuple:
        """a_m and b_m in lowest terms for start <= m < stop; b_m <= m q
        fits int64 even where p + m q does not."""
        p, q = self._p, self._q
        m = np.arange(start, stop, dtype=np.int64 if abs(p) + stop * q < 1 << 63 else object)
        b = m * q
        a = b + p
        if abs(p) != 1:
            # gcd(p + m q, m q) = gcd(p, m), since gcd(p, q) = 1
            g = np.gcd(m, p)
            a //= g
            b //= g
        return a, b.astype(np.int64, copy=False)

    def _grow(self, stop: int) -> None:
        # Extends the chain from m = len(scales) to stop.
        start = len(self._scales)
        a, b = self._ratios(start, stop)
        gcd, e = math.gcd, self._e
        if len(self._e64) == start:
            chain = [e := e // gcd(b_m, e) * a_m for a_m, b_m in zip(a.tolist(), b.tolist())]
            wide = max(chain) >> 63
            values = np.array([self._e] + chain, dtype=object if wide else np.int64)
            if not wide:
                self._e64 = np.concatenate((self._e64, values[1:]))
            scales = b // np.gcd(b, values[:-1])
        else:
            # gcd(b_m, e) reads e only modulo b_m, so a run of steps goes
            # through on e modulo the product of its b_m, which is small,
            # and e itself moves once a run.
            scales, a, b_list = [], a.tolist(), b.tolist()
            for i in range(0, stop - start, _RUN):
                a_run, b_run = a[i : i + _RUN], b_list[i : i + _RUN]
                y, run = e % math.prod(b_run), []
                for a_m, b_m in zip(a_run, b_run):
                    run.append(g := gcd(b_m, y))
                    y = y // g * a_m
                e = e * math.prod(a_run) // math.prod(run)
                scales += run
            scales = b // np.array(scales, dtype=np.int64)
        self._scales = np.concatenate((self._scales, scales.astype(np.int64, copy=False)))
        self._e = e

    def numerators(self, n: int) -> np.ndarray:
        """Block n's numerators, gcd 1, in block order; n is checked
        against the bit budget and alpha's sign first."""
        self._check(n)
        count = 1 << n
        while len(self._scales) < count:
            self._grow(min(count, 2 * len(self._scales)))
            if len(self._e64) == len(self._scales) < _FIRST_GROWTH:
                self._grow(_FIRST_GROWTH)
        if count <= len(self._e64):
            e, scales = self._e64[:count], self._scales[:count]
            # N_m = e_m times scales up to N_0 = prod(scales): the block
            # sums below count max(e) N_0, which fits with a bit to spare.
            if math.log2(count * int(e.max())) + float(np.log2(scales).sum()) < 62:
                numer = e[::-1].copy()
                numer[1:] *= np.multiply.accumulate(scales[:0:-1])
                return numer
        # b_m divides N_(m-1), as a_m / b_m is in lowest terms, and no a_m
        # is a divisor: alpha = 0 (a_1 = 0) walks too.
        a, b = self._ratios(1, count)
        top = math.prod(self._scales[1:count].tolist())
        walk = [top] + [top := top // b_m * a_m for a_m, b_m in zip(a.tolist(), b.tolist())]
        walk.reverse()
        return np.array(walk, dtype=object)


class _FamilySchemes:
    """The schemes of one family, and alpha for cesaro, by block
    exponent: the builder a command or check keeps for its blocks, which
    it asks for in increasing order (any order gives the same
    schemes).  Only a cesaro builder keeps state, its chain, which each
    block extends; the chain is made at the first block, after that
    block's checks, so an alpha is refused as build_scheme refuses it."""

    def __init__(self, family: str, alpha=None):
        self.family, self.alpha = family, alpha
        self._cesaro = None

    def __call__(self, n: int) -> WeightScheme:
        if n < 1:
            raise ValueError(f"block exponent must be >= 1, got {n}")
        if n + 1 > MAX_RESOLUTION:
            raise ValueError(
                f"block exponent {n} needs resolution {n + 1}, above the cap {MAX_RESOLUTION}"
            )
        count = 1 << n
        family = self.family
        if family == "uniform":
            return WeightScheme._own(n, np.ones(count, dtype=np.int64), count)
        if family in ("linear_up", "linear_down"):
            ramp = np.arange(1, count + 1, dtype=np.int64)
            if family == "linear_down":
                ramp = ramp[::-1].copy()
            return WeightScheme._own(n, ramp, count * (count + 1) // 2)
        if family == "cesaro":
            if self._cesaro is None:
                self._cesaro = _CesaroChain(self.alpha)
            numerators = self._cesaro.numerators(n)
            return WeightScheme._own(n, numerators, int(numerators.sum()))
        raise ValueError(f"unknown weight family {family!r}; choose from {FAMILIES}")


def build_scheme(family: str, n: int, alpha=None) -> WeightScheme:
    """The weights of a family on block exponent n, normalized to sum to one.

    Families: uniform, linear_up, linear_down, cesaro (requires a finite
    alpha >= 0, since alpha in (-1, 0) gives a negative weight; alpha = 1
    reproduces uniform, alpha = 2 gives the decreasing tail weights).  An
    alpha is read as the nearest fraction with a denominator up to 10^9,
    and refused if that fraction is more than 1e-9 relative away from it.
    A weight file is read by load_weight_file.
    A block no resolution up to MAX_RESOLUTION holds, or a cesaro
    scheme whose exact numerators would pass _CESARO_MAX_BITS, is refused
    before its 2^n weights are built.  The batch of one of the builder
    a sweep keeps.
    """
    return _FamilySchemes(family, alpha)(n)


def _finite_quotient(numer: int, denom: int, quantity: str) -> float:
    """numer / denom, correctly rounded; past the float range a ValueError
    that names the quantity."""
    try:
        return numer / denom
    except OverflowError:
        raise ValueError(f"{quantity} passes the float range") from None


def _parse_weight_token(token: str) -> Fraction:
    token = token.strip()
    if "/" in token:
        num, den = (int(part) for part in token.split("/"))
        if den == 0:
            raise ValueError(f"weight {token!r} has a zero denominator")
        value = Fraction(num, den)
    else:
        value = Fraction(token)
    _finite_quotient(value.numerator, value.denominator, f"weight {token!r}")
    return value


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
    nondec = bool((t[1:] >= t[:-1]).all())
    noninc = bool((t[1:] <= t[:-1]).all())
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
    block = f"block n = {w.block_exponent}"
    total = _finite_quotient(total_numer, w.denominator, f"the sum of the weights of {block}")
    c2 = _finite_quotient(
        int(w.numerators[-1]) * w.block_end, w.denominator, f"the c2 constant of {block}"
    )
    mono = _monotonicity(w.numerators)
    return ValidationReport(
        total=total,
        sum_ok=total_numer == w.denominator,
        monotonicity=mono,
        c2_constant=c2,
        case_a_ok=mono in (NONDECREASING, BOTH) and c2 <= case_a_cap,
        case_b_ok=mono in (NONINCREASING, BOTH),
    )
