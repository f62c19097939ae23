"""Certified real arithmetic on directed-rounded rational intervals.

Every value is an enclosure ``[lo, hi]`` with exact rational endpoints,
kept on a decimal grid (scaled integers) by all internal routines.  The
transcendental evaluations (pi, sin, ln, exp, integer roots) run in
integer fixed point with explicit truncation bounds, so the returned
interval is guaranteed to contain the mathematical value.  No hardware
floats appear anywhere on the certified path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt, log
from typing import Callable, TypeVar

from .errors import PrecisionError

DEFAULT_PRECISION_CAP = 1_000_000

_ZERO = Fraction(0)
_DECIMAL_RE = re.compile(r"^[+-]?\d+(\.\d+)?$")
T = TypeVar("T")


# ---------------------------------------------------------------------------
# precision budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionBudget:
    """Requested certified decimal digits plus guard digits for headroom.

    ``cap`` bounds the working precision :func:`escalate` may reach;
    exceeding it raises :class:`PrecisionError` rather than exhausting
    memory.
    """

    digits: int
    guard: int = 10
    cap: int = DEFAULT_PRECISION_CAP

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        if self.guard < 0:
            raise ValueError("guard must be >= 0")
        if self.cap < self.digits + self.guard:
            raise ValueError("cap smaller than digits + guard")

    @property
    def working(self) -> int:
        return self.digits + self.guard

    def escalated(self) -> "PrecisionBudget":
        """Budget with the working precision doubled, guard and cap kept.

        Raises PrecisionError past ``cap``.  Only :func:`escalate` calls this.
        """
        working = 2 * self.working
        if working > self.cap:
            raise PrecisionError(
                f"working precision {working} exceeds cap {self.cap}"
            )
        return PrecisionBudget(working - self.guard, self.guard, self.cap)


def escalate(attempt: Callable[[PrecisionBudget], T], budget: PrecisionBudget) -> T:
    """``attempt(budget)``, rerun at ``budget.escalated()`` after each PrecisionError.

    The package's one precision policy.  Once the next doubling would pass
    ``cap``, raises one PrecisionError with the last attempt's message and
    ``certified_count`` plus the working precision reached.
    """
    while True:
        try:
            return attempt(budget)
        except PrecisionError as exc:
            try:
                budget = budget.escalated()
            except PrecisionError:
                raise PrecisionError(
                    f"{exc} (working precision {budget.working}, cap {budget.cap})",
                    certified_count=exc.certified_count,
                ) from exc


# ---------------------------------------------------------------------------
# certified interval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedReal:
    """Closed interval [lo, hi] guaranteed to contain the exact value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def point(cls, value) -> "CertifiedReal":
        v = Fraction(value)
        return cls(v, v)

    @classmethod
    def from_fixed(cls, lo: int, hi: int, scale: int) -> "CertifiedReal":
        d = 10 ** scale
        return cls(Fraction(lo, d), Fraction(hi, d))

    # -- basic queries ------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        v = Fraction(value)
        return self.lo <= v <= self.hi

    def contains_interval(self, other: "CertifiedReal") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "CertifiedReal") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo < 0 < self.hi

    def is_zero(self) -> bool:
        return self.lo == 0 == self.hi

    def certainly_positive(self) -> bool:
        return self.lo > 0

    def certainly_negative(self) -> bool:
        return self.hi < 0

    def certainly_less_than(self, value) -> bool:
        return self.hi < Fraction(value)

    def certainly_greater_than(self, value) -> bool:
        return self.lo > Fraction(value)

    # -- exact interval arithmetic -----------------------------------------

    def __add__(self, other) -> "CertifiedReal":
        o = _as_interval(other)
        return CertifiedReal(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "CertifiedReal":
        o = _as_interval(other)
        return CertifiedReal(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "CertifiedReal":
        return _as_interval(other) - self

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(-self.hi, -self.lo)

    def __mul__(self, other) -> "CertifiedReal":
        o = _as_interval(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return CertifiedReal(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self) -> "CertifiedReal":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return CertifiedReal(_ZERO, max(-self.lo, self.hi))

    def reciprocal(self) -> "CertifiedReal":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return CertifiedReal(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "CertifiedReal":
        return self * _as_interval(other).reciprocal()

    def outward(self, scale: int) -> "CertifiedReal":
        """Round endpoints onto the 10^-scale grid, away from the interior.

        Keeps denominators bounded so long pipelines stay cheap; always a
        superset of self.
        """
        d = 10 ** scale
        lo = (self.lo.numerator * d) // self.lo.denominator
        hi = -((-self.hi.numerator * d) // self.hi.denominator)
        return CertifiedReal(Fraction(lo, d), Fraction(hi, d))

    def __repr__(self) -> str:
        return f"CertifiedReal({self.lo}, {self.hi})"


def _as_interval(x) -> CertifiedReal:
    if isinstance(x, CertifiedReal):
        return x
    return CertifiedReal.point(x)


# ---------------------------------------------------------------------------
# constant specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiPower:
    """pi**(t/s) with t/s kept in lowest terms, s >= 1."""

    t: int
    s: int = 1

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("root index s must be >= 1")
        g = gcd(abs(self.t), self.s)
        if g > 1:
            object.__setattr__(self, "t", self.t // g)
            object.__setattr__(self, "s", self.s // g)

    def describe(self) -> str:
        return f"pi^{self.t}/{self.s}" if self.s != 1 else f"pi^{self.t}"


@dataclass(frozen=True)
class Surd:
    """Quadratic irrational (a + b*sqrt(d)) / c with d a non-square."""

    a: int
    b: int
    d: int
    c: int

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("surd denominator c must be nonzero")
        if self.b == 0:
            raise ValueError("surd coefficient b must be nonzero (value is rational)")
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"surd discriminant {self.d} is a perfect square")

    def describe(self) -> str:
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


@dataclass(frozen=True)
class DecimalLiteral:
    """Exact finite-decimal constant, e.g. "0.5"."""

    text: str

    def __post_init__(self):
        if not _DECIMAL_RE.match(self.text):
            raise ValueError(f"not a finite decimal literal: {self.text!r}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.text)

    def describe(self) -> str:
        return self.text


ConstantSpec = PiPower | Surd | DecimalLiteral


def exact_value(spec: ConstantSpec) -> Fraction | None:
    """The exact rational value of a spec, or None if it is irrational."""
    if isinstance(spec, DecimalLiteral):
        return spec.value
    if isinstance(spec, PiPower) and spec.t == 0:
        return Fraction(1)
    return None


# ---------------------------------------------------------------------------
# integer fixed-point helpers
#
# A "pair" (lo, hi) at scale S encloses x: lo <= x*10^S <= hi.
# ---------------------------------------------------------------------------

def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def _floor_log10(x: int | Fraction) -> int:
    """floor(log10(x)) for a positive rational, exact at any size.

    A bit-length estimate corrected by integer comparisons; unlike
    ``len(str(n))`` it is not subject to the int-to-str digit limit.
    """
    if x <= 0:
        raise ValueError("log10 of non-positive value")
    num, den = x.numerator, x.denominator
    k = (num.bit_length() - den.bit_length()) * 30103 // 100000
    num, den = (num, den * 10 ** k) if k >= 0 else (num * 10 ** -k, den)
    # num/den = x / 10^k lies within a step or two of [1, 10)
    while num < den:
        num, k = num * 10, k - 1
    while num >= 10 * den:
        den, k = den * 10, k + 1
    return k


def _fx_bounds(x: Fraction, scale: int) -> tuple[int, int]:
    t = x * 10 ** scale
    lo = t.numerator // t.denominator
    hi = lo if t.denominator == 1 else lo + 1
    return lo, hi


def _pair_mul(a: tuple[int, int], b: tuple[int, int], scale: int) -> tuple[int, int]:
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    d = 10 ** scale
    return min(p) // d, _ceil_div(max(p), d)


def _pair_div_int(a: tuple[int, int], n: int) -> tuple[int, int]:
    # n > 0
    return a[0] // n, _ceil_div(a[1], n)


def _pair_rescale(a: tuple[int, int], from_scale: int, to_scale: int) -> tuple[int, int]:
    if to_scale >= from_scale:
        f = 10 ** (to_scale - from_scale)
        return a[0] * f, a[1] * f
    d = 10 ** (from_scale - to_scale)
    return a[0] // d, _ceil_div(a[1], d)


def _iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0 (Newton iteration)."""
    if n < 0:
        raise ValueError("iroot of negative value")
    if n == 0 or k == 1:
        return n if k == 1 else 0
    if k == 2:
        return isqrt(n)
    x = 1 << (-(-n.bit_length() // k) + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# -- kept constants: one enclosure each of pi, ln 2 and every spec ---------

def _arc_inv_fx(m: int, sign: int, scale: int) -> tuple[int, int]:
    """atan(1/m) for sign -1, atanh(1/m) for sign +1, integer m >= 2.

    Binary splitting (Haible & Papanikolaou) sums the first n terms of
    sign^k / ((2k+1) m^(2k+1)) exactly.  n makes the tail about one ulp: it
    is below twice the first omitted term, as the terms alternate or shrink
    by m^2 >= 4.
    """
    def split(a: int, b: int) -> tuple[int, int, int]:
        # (q, d, t) with q = m^(2(b-a)) and
        # sum_{a <= k < b} sign^(k-a) / ((2k+1) m^(2(k-a))) = t / (d q)
        if b - a == 1:
            return m * m, 2 * a + 1, m * m
        c = (a + b) // 2
        q1, d1, t1 = split(a, c)
        q2, d2, t2 = split(c, b)
        return q1 * q2, d1 * d2, t1 * d2 * q2 + sign ** (c - a) * d1 * t2

    n = 1 + int(scale * log(10) / (2 * log(m)))
    q, d, t = split(0, n)
    num, den = t * 10 ** scale, m * d * q
    tail = _ceil_div(2 * 10 ** scale, (2 * n + 1) * m * q)
    return num // den - tail, _ceil_div(num, den) + tail


def _pi_fx(scale: int) -> tuple[int, int]:
    """Machin: pi = 16*arctan(1/5) - 4*arctan(1/239), directed rounding."""
    a5 = _arc_inv_fx(5, -1, scale)
    a239 = _arc_inv_fx(239, -1, scale)
    return 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]


def _ln2_fx(scale: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3)."""
    at = _arc_inv_fx(3, 1, scale)
    return 2 * at[0], 2 * at[1]


_KEPT: dict[tuple, tuple[int, tuple[int, int]]] = {}


def _cell(scale: int, enclose: Callable[..., tuple[int, int]], *args) -> tuple[int, int]:
    """(f, f + 1), f = floor(x 10^scale), for the irrational x that
    ``enclose(*args, s)`` encloses at any scale s: x's one-ulp cell.

    Cut from the one enclosure of x kept per process, recomputed at scale
    max(2 * kept, scale + 8) when it cannot decide the cell.  x lies on no
    grid point, so some scale decides, and no result depends on history.
    """
    kept, (lo, hi) = _KEPT.get((enclose, *args), (-1, (0, 0)))
    while True:
        if scale <= kept:
            d = 10 ** (kept - scale)
            if lo // d == hi // d:
                return lo // d, lo // d + 1
        kept = max(2 * kept, scale + 8)
        lo, hi = enclose(*args, kept)
        _KEPT[(enclose, *args)] = kept, (lo, hi)


# -- Taylor series on fixed-point pairs --------------------------------------
#
# Each loop keeps the running term as a directed pair and stops once the
# term magnitude falls to a few ulps; the final widening covers both the
# truncation tail (ratio bounds documented per series) and the stalled
# rounding ulps of the stop threshold.

_STOP = 8
_SLACK = 64


def _sin_point_fx(x: Fraction, scale: int) -> tuple[int, int]:
    """sin of an exact rational, |x| <= 1.6 (term ratio <= 0.43)."""
    t = _fx_bounds(x, scale)
    neg_t2 = _pair_mul(t, t, scale)
    neg_t2 = (-neg_t2[1], -neg_t2[0])
    term = t
    lo, hi = t
    k = 0
    while max(abs(term[0]), abs(term[1])) > _STOP:
        k += 1
        term = _pair_mul(term, neg_t2, scale)
        term = _pair_div_int(term, (2 * k) * (2 * k + 1))
        lo += term[0]
        hi += term[1]
    return lo - _SLACK, hi + _SLACK


def _exp_series_fx(t: tuple[int, int], scale: int) -> tuple[int, int]:
    """exp on a pair enclosing t, |t| <= 0.8 (term ratio <= 0.8)."""
    one = 10 ** scale
    term = (one, one)
    lo = hi = one
    k = 0
    while max(abs(term[0]), abs(term[1])) > _STOP:
        k += 1
        term = _pair_mul(term, t, scale)
        term = _pair_div_int(term, k)
        lo += term[0]
        hi += term[1]
    return lo - _SLACK, hi + _SLACK


def _atanh_series_fx(z: tuple[int, int], scale: int) -> tuple[int, int]:
    """atanh on a pair enclosing z, |z| <= 1/3 (term ratio <= 1/9)."""
    z2 = _pair_mul(z, z, scale)
    power = z
    lo, hi = z
    k = 0
    while max(abs(power[0]), abs(power[1])) > _STOP:
        k += 1
        power = _pair_mul(power, z2, scale)
        term = _pair_div_int(power, 2 * k + 1)
        lo += term[0]
        hi += term[1]
    return lo - _SLACK, hi + _SLACK


# ---------------------------------------------------------------------------
# point evaluations built on the series
# ---------------------------------------------------------------------------

def _ln_point_fx(x: Fraction, scale: int) -> tuple[int, int]:
    """Natural log of an exact positive rational, as a directed pair.

    x = 2^k * m with m in [2/3, 4/3), so ln x = k ln 2 + 2 atanh(z) with
    z = (m - 1)/(m + 1) and |z| <= 1/5.
    """
    if x <= 0:
        raise ValueError("ln of non-positive value")
    s = scale + 8
    # bit lengths put 3x/2 within a factor 2 of 2^k, so m lies in (1/3, 4/3)
    k = (3 * x.numerator).bit_length() - (2 * x.denominator).bit_length()
    m = x / Fraction(2) ** k
    if m < Fraction(2, 3):
        k, m = k - 1, 2 * m
    z = (m - 1) / (m + 1)
    at = _atanh_series_fx(_fx_bounds(z, s), s)
    l2 = _cell(s, _ln2_fx)
    kl = (k * l2[0], k * l2[1]) if k >= 0 else (k * l2[1], k * l2[0])
    return _pair_rescale((2 * at[0] + kl[0], 2 * at[1] + kl[1]), s, scale)


def _exp_point_fx(y: Fraction, scale: int) -> tuple[int, int]:
    """exp of an exact rational with |y| <= scale ln 10, as a directed pair."""
    if abs(y) > scale * log(10):
        raise PrecisionError(f"exp argument out of range at scale {scale}")
    s = scale + 12
    # y = j*ln2 + r with |r| <= 0.36 after round-to-nearest j
    j = int((y * 1_442_695 + Fraction(1, 2) * 1_000_000) // 1_000_000)
    l2 = _cell(s, _ln2_fx)
    r_lo = y - Fraction(j * l2[1] if j >= 0 else j * l2[0], 10 ** s)
    r_hi = y - Fraction(j * l2[0] if j >= 0 else j * l2[1], 10 ** s)
    pr = (_fx_bounds(r_lo, s)[0], _fx_bounds(r_hi, s)[1])
    e = _exp_series_fx(pr, s)
    if j >= 0:
        e = (e[0] * 2 ** j, e[1] * 2 ** j)
    else:
        d = 2 ** (-j)
        e = (e[0] // d, _ceil_div(e[1], d))
    return _pair_rescale(e, s, scale)


def _increasing_fx(kernel: Callable, x: CertifiedReal, scale: int) -> CertifiedReal:
    """Increasing f over x from its directed point kernel, run once for a point."""
    lo = kernel(x.lo, scale)
    hi = lo if x.hi == x.lo else kernel(x.hi, scale)
    return CertifiedReal.from_fixed(lo[0], hi[1], scale)


def _root_point_fx(x: Fraction, scale: int, k: int) -> tuple[int, int]:
    """Floor/ceil pair for the k-th root of an exact positive rational."""
    if x <= 0:
        raise ValueError("root of non-positive value")
    n = (x.numerator * 10 ** (k * scale)) // x.denominator
    r = _iroot(n, k)
    return r, r + 2  # +2 absorbs the floor in n on top of the root rounding


# ---------------------------------------------------------------------------
# public constant evaluation
# ---------------------------------------------------------------------------

def pi_interval(scale: int) -> CertifiedReal:
    """The one-ulp cell [f, f + 1] 10^-scale holding pi, f = floor(pi 10^scale)."""
    return CertifiedReal.from_fixed(*_cell(scale, _pi_fx), scale)


def eval_constant(spec: ConstantSpec, budget: PrecisionBudget) -> CertifiedReal:
    """Enclosure of the constant with width <= 10^-digits.

    An exact spec gives its point; any other is irrational and gives its
    one-ulp cell at scale ``budget.working + 8`` (plus |t| for pi^t/s),
    fixed by (spec, budget) alone.  Raises PrecisionError if that scale
    exceeds the budget cap.
    """
    exact = exact_value(spec)
    if exact is not None:
        return CertifiedReal.point(exact)

    scale = budget.working + 8 + (abs(spec.t) if isinstance(spec, PiPower) else 0)
    if scale > budget.cap:
        raise PrecisionError(
            f"cannot evaluate {spec.describe()} to {budget.digits} digits "
            f"within precision cap {budget.cap}"
        )
    return CertifiedReal.from_fixed(*_cell(scale, _spec_fx, spec), scale)


def _spec_fx(spec: ConstantSpec, scale: int) -> tuple[int, int]:
    """Directed pair of an irrational spec at ``scale``, a few ulps wide."""
    if isinstance(spec, PiPower):
        t = abs(spec.t)
        # pi^t widens pi's one-ulp cell to t pi^(t-1) < 10^t ulps
        pi = pi_interval(scale + t)
        # positive base: endpoint powers and roots are directed automatically
        x = _increasing_fx(partial(_root_point_fx, k=spec.s),
                           CertifiedReal(pi.lo ** t, pi.hi ** t), scale)
        if spec.t < 0:
            x = x.reciprocal()
    elif isinstance(spec, Surd):
        rt = CertifiedReal.from_fixed(*_root_point_fx(spec.d, scale, 2), scale)
        x = (Fraction(spec.a) + rt * spec.b) / Fraction(spec.c)
    else:
        raise TypeError(f"unsupported constant spec: {spec!r}")
    return _fx_bounds(x.lo, scale)[0], _fx_bounds(x.hi, scale)[1]


# ---------------------------------------------------------------------------
# certified sine with argument reduction
# ---------------------------------------------------------------------------

_SIN_DOMAIN = Fraction(8, 5)  # series validity bound, slightly above pi/2


def _sin_monotone(iv: CertifiedReal, scale: int) -> CertifiedReal:
    """Sine over an interval inside the increasing branch around 0.

    Endpoints may poke past +-pi/2 by a few ulps; the sine deficit there
    is quadratic in the overshoot and stays far below the series slack,
    so the endpoint rule remains an enclosure.
    """
    if not (-_SIN_DOMAIN <= iv.lo and iv.hi <= _SIN_DOMAIN):
        raise PrecisionError("sine argument outside reduced range")
    return _increasing_fx(_sin_point_fx, iv, scale)


def sin_certified(x: CertifiedReal, budget: PrecisionBudget) -> CertifiedReal:
    """Enclosure of sin over x, reduced modulo 2*pi at full precision.

    The pi enclosure used for reduction carries enough digits that the
    reduction error is absorbed into the output interval.
    """
    if x.is_zero():
        return CertifiedReal.point(0)

    magnitude = max(abs(x.lo), abs(x.hi))
    mag_digits = _floor_log10(magnitude) + 1 if magnitude >= 1 else 1
    scale = budget.working + mag_digits + 8
    if scale > budget.cap:
        raise PrecisionError(
            f"sine argument magnitude needs working precision {scale} > cap"
        )
    if x.width > Fraction(20, 10 ** budget.digits):
        raise PrecisionError("input interval too wide to certify sine")

    pi = pi_interval(scale)
    two_pi = pi * 2
    k = round(x.midpoint / two_pi.midpoint)
    r = x - two_pi * k if k else x

    # sin(-r) = -sin(r) puts the midpoint of r in [0, pi]; r is at most 2
    # wide, so then r.lo > -pi/2
    flip = r.midpoint < 0
    r = -r if flip else r

    def lower(e: Fraction) -> Fraction:
        # past pi/2, sin(e) = sin(pi - e) >= sin(pi.lo - e) on the increasing branch
        x = pi.lo - e if e > pi.lo / 2 else e
        return _sin_monotone(CertifiedReal.point(x), scale).lo

    if r.hi <= pi.lo / 2:
        out = _sin_monotone(r, scale)
    elif r.lo >= pi.hi / 2:
        out = _sin_monotone(pi - r, scale)
    else:
        # straddles the maximum: exact 1 above, the least endpoint sine
        # below, one kernel run per endpoint
        out = CertifiedReal(min(lower(r.lo), lower(r.hi)), Fraction(1))
    return -out if flip else out


# ---------------------------------------------------------------------------
# certified log/exp on intervals (used by the measure column)
# ---------------------------------------------------------------------------

def ln_certified(x: CertifiedReal, scale: int) -> CertifiedReal:
    """Enclosure of ln over a certainly-positive interval."""
    if not x.certainly_positive():
        raise PrecisionError("ln needs an interval certified positive")
    return _increasing_fx(_ln_point_fx, x, scale)


def exp_certified(y: CertifiedReal, scale: int) -> CertifiedReal:
    """Enclosure of exp over an interval."""
    return _increasing_fx(_exp_point_fx, y, scale)
