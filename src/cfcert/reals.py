"""Certified real arithmetic on directed-rounded rational intervals.

Every value is an enclosure [lo_num, hi_num] / den: integer numerators
over one unnormalised positive denominator, 10^scale (a decimal grid) for
every kernel result.  The transcendental evaluations (pi, sin, ln, exp,
integer roots) run on such integers with explicit truncation bounds, so
the returned interval is guaranteed to contain the mathematical value.
No hardware float appears on the certified path or is accepted as input.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import count
from math import gcd, isqrt, log

from .convergents import Convergent

DEFAULT_PRECISION_CAP = 1_000_000


# ---------------------------------------------------------------------------
# precision budget
# ---------------------------------------------------------------------------

class PrecisionError(ArithmeticError):
    """Raised when a result cannot be certified at the requested precision.

    Carries ``certified_count`` when a continued-fraction expansion managed
    to certify a prefix before hitting the working-precision cap.
    """

    def __init__(self, message: str, certified_count: int | None = None):
        super().__init__(message)
        self.certified_count = certified_count


def _require_int(name: str, value) -> None:
    """TypeError naming the argument unless ``value`` is an int (not a bool)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {value!r}")


class PrecisionBudget(namedtuple("PrecisionBudget", "digits guard cap")):
    """Requested certified decimal digits plus guard digits for headroom.

    ``cap`` bounds the working precision :func:`escalate` may reach;
    exceeding it raises :class:`PrecisionError` rather than exhausting
    memory.  A named tuple whose ``_make``, and so ``_replace``, builds
    through the constructor: every budget is validated.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the tuple's field count, then the constructor's checks
        return cls(*super()._make(iterable))

    def __new__(cls, digits: int, guard: int = 10, cap: int = DEFAULT_PRECISION_CAP):
        if not type(digits) is type(guard) is type(cap) is int:
            for name, value in zip(cls._fields, (digits, guard, cap)):
                _require_int(name, value)
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if guard < 0:
            raise ValueError("guard must be >= 0")
        if cap < digits + guard:
            raise ValueError(f"digits {digits} + guard {guard} exceed the "
                             f"precision cap {cap}")
        return super().__new__(cls, digits, guard, cap)

    @property
    def working(self) -> int:
        return self.digits + self.guard


DEFAULT_BUDGET = PrecisionBudget(60)  # default start of escalation and of --digits


def _require_budget(budget) -> None:
    """TypeError unless ``budget`` is a PrecisionBudget."""
    if not isinstance(budget, PrecisionBudget):
        raise TypeError(f"budget must be a PrecisionBudget, not {budget!r}")


def _require_real(name: str, value) -> None:
    """TypeError naming the argument unless ``value`` is a CertifiedReal."""
    if not isinstance(value, CertifiedReal):
        raise TypeError(f"{name} must be a CertifiedReal, not {value!r}")


def escalate(attempt: Callable[[PrecisionBudget], object], budget: PrecisionBudget):
    """``attempt(budget)``, rerun with the working precision doubled (guard
    and cap kept) after each PrecisionError.

    The package's one precision policy.  Once the next doubling would pass
    ``cap``, raises one PrecisionError with the last attempt's message and
    ``certified_count`` plus the working precision reached.
    """
    _require_budget(budget)
    while True:
        try:
            return attempt(budget)
        except PrecisionError as exc:
            digits, guard, cap = budget
            if 2 * budget.working > cap:
                raise PrecisionError(
                    f"{exc} (working precision {budget.working}, cap {cap})",
                    certified_count=exc.certified_count,
                ) from exc
            budget = PrecisionBudget(2 * digits + guard, guard, cap)


# ---------------------------------------------------------------------------
# certified interval
# ---------------------------------------------------------------------------

class CertifiedReal:
    """Closed interval [lo, hi] guaranteed to contain the exact value.

    Integer numerators ``lo_num <= hi_num`` over one unnormalised ``den > 0``
    (10^scale for kernel results, q for a point p/q) carry all arithmetic,
    comparisons and the integer queries of table rows and expand; ``lo``,
    ``hi``, ``width`` and ``midpoint`` are lowest-terms Fraction views.
    Immutable; equal by value.
    """

    __slots__ = ("lo_num", "hi_num", "den")

    def __new__(cls, lo, hi):
        lo_num, _, _, hi_num, den = _aligned(cls.point(lo), cls.point(hi))
        return _iv(lo_num, hi_num, den)

    @classmethod
    def point(cls, value) -> "CertifiedReal":
        if isinstance(value, float):  # its binary value is rarely the number meant
            raise TypeError(f"inexact float {value!r}; pass an int, Fraction, "
                            "Decimal or decimal string")
        if type(value) is int:
            return _iv(value, value, 1)
        if isinstance(value, bool):  # a flag, not a number, as for quotients
            raise TypeError(f"bool {value!r} is not a number; pass an int, "
                            "Fraction, Decimal or decimal string")
        # a Decimal, such as a table row's mu, gives its ratio with no Fraction
        # built; none exists before its module is loaded, so none is loaded here
        decimal = sys.modules.get("decimal")
        if decimal is not None and isinstance(value, decimal.Decimal):
            num, den = value.as_integer_ratio()
        else:
            from fractions import Fraction
            num, den = Fraction(value).as_integer_ratio()
        return _iv(num, num, den)

    def __setattr__(self, name, value=None):  # value=None: refuses del too
        from dataclasses import FrozenInstanceError  # loaded on this path alone
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _iv, (self.lo_num, self.hi_num, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CertifiedReal) and self.contains_interval(other)
                and other.contains_interval(self))

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- basic queries ------------------------------------------------------
    # Each Fraction view imports ``fractions`` when read, so a process that
    # reads none, as no command on an irrational constant does, never loads it.

    @property
    def lo(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.hi_num, self.den)

    @property
    def width(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.hi_num - self.lo_num, self.den)

    @property
    def midpoint(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.lo_num + self.hi_num, 2 * self.den)

    def contains(self, value) -> bool:
        return self.contains_interval(CertifiedReal.point(value))

    def contains_interval(self, other: "CertifiedReal") -> bool:
        al, ah, bl, bh, _ = _aligned(self, other)
        return al <= bl and bh <= ah

    def overlaps(self, other: "CertifiedReal") -> bool:
        al, ah, bl, bh, _ = _aligned(self, other)
        return al <= bh and bl <= ah

    def straddles_zero(self) -> bool:
        return self.lo_num < 0 < self.hi_num

    def is_zero(self) -> bool:
        return self.lo_num == 0 == self.hi_num

    def certainly_positive(self) -> bool:
        return self.lo_num > 0

    def certainly_negative(self) -> bool:
        return self.hi_num < 0

    def certainly_less_than(self, value) -> bool:
        return (self - CertifiedReal.point(value)).certainly_negative()

    def certainly_greater_than(self, value) -> bool:
        return (self - CertifiedReal.point(value)).certainly_positive()

    # -- integer queries on the endpoints ---------------------------------
    # Table rows decide every flag and printed cell with these, and expand
    # its quotients: each works on the integers, and none builds a Fraction.

    def compare(self, a: int, b: int = 1) -> tuple[int, int]:
        """Signs (-1, 0 or 1) of lo - a/b and of hi - a/b, for integers a and b > 0."""
        t = a * self.den
        return _sign(self.lo_num * b - t), _sign(self.hi_num * b - t)

    def compare_width(self, a: int, b: int = 1) -> int:
        """Sign of width - a/b, for integers a and b > 0."""
        return _sign((self.hi_num - self.lo_num) * b - a * self.den)

    def relative_width_at_most(self, n: int) -> bool:
        """Whether width <= 10^-n min |x| over the interval, n >= 0."""
        least = self.lo_num if self.lo_num >= 0 else max(-self.hi_num, 0)
        return (self.hi_num - self.lo_num) * 10 ** n <= least

    def scaled(self, k: int, rounding: str) -> tuple[int, int]:
        """lo 10^k and hi 10^k, each rounded to an integer by ``rounding``:
        "floor", "ceil" or "half_even"."""
        lo, hi, den = self.lo_num, self.hi_num, self.den
        if k >= 0:
            lo, hi = lo * 10 ** k, hi * 10 ** k
        else:
            den *= 10 ** -k
        rounded = _ROUNDINGS[rounding]
        return rounded(lo, den), rounded(hi, den)

    def floor_log10(self) -> tuple[int | None, int | None]:
        """floor(log10 |lo|) and floor(log10 |hi|), None for an endpoint at 0."""
        lo, hi = abs(self.lo_num), abs(self.hi_num)
        return (_floor_log10(lo, self.den) if lo else None,
                _floor_log10(hi, self.den) if hi else None)

    def partial_quotients(self, max_terms: int | None = None) -> list[int]:
        """Euclid's quotients on lo_num/den and hi_num/den in lockstep, up to
        the first pair that differ, either expansion's end or ``max_terms``
        (an int >= 0, or None); on a point, its whole canonical expansion.

        Every real in [lo, hi] starts with this prefix a_0, ..., a_k, as
        Euclid on a ratio in any terms yields its floor/reciprocal quotients:
        the reals with this prefix form {[a_0; ..., a_k-1, t] : a_k <= t <
        a_k + 1, t > 1 if k > 0}, an interval as the image of one under a
        monotone map, and it holds both endpoints.  No term needs dropping:
        an endpoint whose expansion ends at a_k has t = a_k, in the set as
        a canonical last quotient is >= 2 when k > 0.

        After a_0, while both remainders are long, quotients come in
        batches (Lehmer).  Each pair n/d, both now positive, lies in
        [n'/(d' + 1), (n' + 1)/d'] for n' = n >> j and d' = d >> j, with j
        leaving the shorter d' 256 bits.  Euclid in lockstep on the hull of
        the two enclosures, in short integers, gives a prefix that by the
        argument above starts every real in the hull, so both pairs share
        it; its 2x2 step matrix then takes both pairs past it at once.
        The quotients and remainders are those of the plain loop.
        """
        if max_terms is not None:
            _require_int("max_terms", max_terms)
            if max_terms < 0:
                raise ValueError("max_terms must be >= 0")
        prefix: list[int] = []
        lo, lo_den, hi, hi_den = _euclid(self.lo_num, self.den, self.hi_num, self.den,
                                         prefix, 0 if max_terms == 0 else 1)
        while prefix and len(prefix) != max_terms:
            j = min(lo_den, hi_den).bit_length() - 256
            if j < 1024:  # below 1,280 bits the batch costs more than it saves
                break
            ln, ld, hn, hd = lo >> j, lo_den >> j, hi >> j, hi_den >> j
            # the hull's ends, each the lesser or greater of the two bounds
            low = (ln, ld + 1) if ln * (hd + 1) <= hn * (ld + 1) else (hn, hd + 1)
            high = (ln + 1, ld) if (ln + 1) * hd >= (hn + 1) * ld else (hn + 1, hd)
            batch: list[int] = []
            most = None if max_terms is None else max_terms - len(prefix)
            _euclid(*low, *high, batch, most)
            if not batch:
                break
            # (n, d) -> (d, n - a d) per quotient a, as one matrix
            m00, m01, m10, m11 = 1, 0, 0, 1
            for a in batch:
                m00, m01, m10, m11 = m10, m11, m00 - a * m10, m01 - a * m11
            lo, lo_den = m00 * lo + m01 * lo_den, m10 * lo + m11 * lo_den
            hi, hi_den = m00 * hi + m01 * hi_den, m10 * hi + m11 * hi_den
            prefix += batch
        _euclid(lo, lo_den, hi, hi_den, prefix, max_terms)
        return prefix

    # -- exact interval arithmetic -----------------------------------------

    def __add__(self, other) -> "CertifiedReal":
        al, ah, bl, bh, den = _aligned(self, _as_interval(other))
        return _iv(al + bl, ah + bh, den)

    __radd__ = __add__

    def __sub__(self, other) -> "CertifiedReal":
        return self + -_as_interval(other)

    def __rsub__(self, other) -> "CertifiedReal":
        return -self + other

    def __neg__(self) -> "CertifiedReal":
        return _iv(-self.hi_num, -self.lo_num, self.den)

    def __mul__(self, other) -> "CertifiedReal":
        o = _as_interval(other)
        return _iv(*_hull(self.lo_num, self.hi_num, o.lo_num, o.hi_num), self.den * o.den)

    __rmul__ = __mul__

    def __abs__(self) -> "CertifiedReal":
        if self.lo_num >= 0:
            return self
        if self.hi_num <= 0:
            return -self
        return _iv(0, max(-self.lo_num, self.hi_num), self.den)

    def reciprocal(self) -> "CertifiedReal":
        if self.lo_num <= 0 <= self.hi_num:
            raise ZeroDivisionError("interval contains zero")
        # [den/hi, den/lo] over lo*hi, which is positive
        return _iv(self.den * self.lo_num, self.den * self.hi_num,
                   self.lo_num * self.hi_num)

    def __truediv__(self, other) -> "CertifiedReal":
        return self * _as_interval(other).reciprocal()

    def __rtruediv__(self, other) -> "CertifiedReal":
        return _as_interval(other) * self.reciprocal()

    def __repr__(self) -> str:
        return f"CertifiedReal({self.lo}, {self.hi})"


def _iv(lo_num: int, hi_num: int, den: int) -> CertifiedReal:
    """The interval [lo_num, hi_num] / den, den > 0, taken as given."""
    if lo_num > hi_num:
        raise ValueError(f"empty interval: [{lo_num}, {hi_num}] / {den}")
    x = object.__new__(CertifiedReal)
    object.__setattr__(x, "lo_num", lo_num)
    object.__setattr__(x, "hi_num", hi_num)
    object.__setattr__(x, "den", den)
    return x


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _euclid(lo: int, lo_den: int, hi: int, hi_den: int, terms: list[int],
            most: int | None) -> tuple[int, int, int, int]:
    """Appends to ``terms`` Euclid's quotients on lo/lo_den and hi/hi_den in
    lockstep, up to the first pair that differ, either expansion's end or
    ``most`` terms in all; returns both pairs as left."""
    while lo_den and hi_den and len(terms) != most:
        (a, lo_rem), (b, hi_rem) = divmod(lo, lo_den), divmod(hi, hi_den)
        if a != b:
            break
        terms.append(a)
        lo, lo_den, hi, hi_den = lo_den, lo_rem, hi_den, hi_rem
    return lo, lo_den, hi, hi_den


def _half_even(n: int, den: int) -> int:
    """n / den rounded to the nearest integer, ties to the even one."""
    q, r = divmod(n, den)
    return q + (2 * r > den or (2 * r == den and q % 2))


_ROUNDINGS = {"floor": int.__floordiv__, "ceil": lambda n, den: -(-n // den),
              "half_even": _half_even}


def _aligned(a: CertifiedReal, b: CertifiedReal) -> tuple[int, int, int, int, int]:
    """(a.lo, a.hi, b.lo, b.hi) as numerators over one denominator, and it."""
    if a.den == b.den:
        return a.lo_num, a.hi_num, b.lo_num, b.hi_num, a.den
    return (a.lo_num * b.den, a.hi_num * b.den, b.lo_num * a.den,
            b.hi_num * a.den, a.den * b.den)


def _as_interval(x) -> CertifiedReal:
    return x if isinstance(x, CertifiedReal) else CertifiedReal.point(x)


# ---------------------------------------------------------------------------
# constant specifications
# ---------------------------------------------------------------------------

class PiPower(namedtuple("PiPower", "t s")):
    """pi**(t/s) with t/s kept in lowest terms, s >= 1; a named tuple.

    ``_make`` and ``_replace`` build through the constructor, so a replaced
    field is validated and reduced too: ``PiPower(1, 2)._replace(t=2)`` is
    ``PiPower(1, 1)``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the tuple's field count, then the constructor's checks
        return cls(*super()._make(iterable))

    def __new__(cls, t: int, s: int = 1):
        for name, value in zip(cls._fields, (t, s)):
            _require_int(name, value)
        if s < 1:
            raise ValueError("root index s must be >= 1")
        g = gcd(abs(t), s)
        return super().__new__(cls, t // g, s // g)

    def describe(self) -> str:
        return f"pi^{self.t}/{self.s}" if self.s != 1 else f"pi^{self.t}"


class Surd(namedtuple("Surd", "a b d c")):
    """Quadratic irrational (a + b*sqrt(d)) / c with d a non-square; a named
    tuple, validated by ``_make`` and ``_replace`` as by the constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the tuple's field count, then the constructor's checks
        return cls(*super()._make(iterable))

    def __new__(cls, a: int, b: int, d: int, c: int):
        for name, value in zip(cls._fields, (a, b, d, c)):
            _require_int(name, value)
        if c == 0:
            raise ValueError("surd denominator c must be nonzero")
        if b == 0:
            raise ValueError("surd coefficient b must be nonzero (value is rational)")
        if d < 0:
            raise ValueError(f"surd discriminant {d} is negative (value is not real)")
        if isqrt(d) ** 2 == d:
            raise ValueError(f"surd discriminant {d} is a perfect square")
        return super().__new__(cls, a, b, d, c)

    def describe(self) -> str:
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


def _is_decimal(text: str) -> bool:
    """Whether ``text`` is an optional sign, then ASCII digits, then at most
    one '.' followed by ASCII digits: the regex [+-]?[0-9]+(\\.[0-9]+)?."""
    unsigned = text[1:] if text[:1] in ("+", "-") else text
    return all(f.isascii() and f.isdigit() for f in unsigned.split(".", 1))


class DecimalLiteral(namedtuple("DecimalLiteral", "text")):
    """Exact finite-decimal constant, e.g. "0.5"; a named tuple of its text,
    validated by ``_make`` and ``_replace`` as by the constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the tuple's field count, then the constructor's checks
        return cls(*super()._make(iterable))

    def __new__(cls, text: str):
        if not isinstance(text, str):
            raise TypeError(f"text must be a str, not {text!r}")
        if not _is_decimal(text):
            raise ValueError(f"not a finite decimal literal: {text!r}")
        return super().__new__(cls, text)

    @property
    def value(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.text)

    def describe(self) -> str:
        return self.text


ConstantSpec = PiPower | Surd | DecimalLiteral


def exact_value(spec: ConstantSpec) -> Fraction | None:
    """The exact rational value of a spec, or None if it is irrational."""
    if isinstance(spec, DecimalLiteral):
        return spec.value
    if isinstance(spec, PiPower) and spec.t == 0:
        from fractions import Fraction
        return Fraction(1)
    return None


# ---------------------------------------------------------------------------
# integer fixed-point helpers
#
# A "pair" (lo, hi) at scale S encloses x: lo <= x*10^S <= hi, the
# numerators of a CertifiedReal over den = 10^S.  A point kernel takes its
# exact rational argument as (num, den), den > 0, in any terms.
# ---------------------------------------------------------------------------

def _directed(lo: int, hi: int, den: int) -> tuple[int, int]:
    """[lo, hi] / den rounded outward to integers, den > 0."""
    return lo // den, -(-hi // den)


def _floor_log10(num: int, den: int = 1) -> int:
    """floor(log10(num / den)) for a positive rational in any terms, den > 0,
    exact at any size.

    A bit-length estimate corrected by integer comparisons; unlike
    ``len(str(n))`` it is not subject to the int-to-str digit limit.
    """
    if num <= 0:
        raise ValueError("log10 of non-positive value")
    k = (num.bit_length() - den.bit_length()) * 30103 // 100000
    num, den = (num, den * 10 ** k) if k >= 0 else (num * 10 ** -k, den)
    # num/den = x / 10^k lies within a step or two of [1, 10)
    while num < den:
        num, k = num * 10, k - 1
    while num >= 10 * den:
        den, k = den * 10, k + 1
    return k


def _hull(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    """Least and greatest of the four endpoint products."""
    p = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(p), max(p)


def _iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0 (Newton iteration).

    Newton starts above the root, from the root r' of n's top bits: with s
    about half the root's bit length, n < ((n >> ks) + 1) 2^ks <=
    ((r' + 1) 2^s)^k, so x = (r' + 1) 2^s exceeds the root and already
    holds its top half.  From above, each step decreases strictly until it
    reaches the floor, here after about two full-size steps; from a power
    of two it takes about log2 of the root's bit length, 17 or 18 on a
    95,000-bit n (Brent & Zimmermann, *Modern Computer Arithmetic*,
    1.5.2).  A root below 2^(k+2) starts at the power of two above it.
    """
    if n < 0:
        raise ValueError("iroot of negative value")
    if n == 0 or k == 1:
        return n if k == 1 else 0
    if k == 2:
        return isqrt(n)
    # k/2 bits short of half: the first step's error, about (k - 1) 2^(2s) / x, is < 1
    s = (n.bit_length() // k - k) // 2
    if s > 0:
        x = (_iroot(n >> k * s, k) + 1) << s
    else:
        x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# -- kept constants: one enclosure each of pi, ln 2 and every spec ---------

def _arc_inv_fx(m: int, scale: int) -> tuple[int, int]:
    """atanh(1/m), integer m >= 2.

    Binary splitting (Haible & Papanikolaou) sums the first n terms of
    1 / ((2k+1) m^(2k+1)) exactly.  n makes the tail about one ulp: it is
    below twice the first omitted term, as the terms shrink by m^2 >= 4.
    """
    def split(a: int, b: int) -> tuple[int, int, int]:
        # (q, d, t) with q = m^(2(b-a)) and
        # sum_{a <= k < b} 1 / ((2k+1) m^(2(k-a))) = t / (d q)
        if b - a == 1:
            return m * m, 2 * a + 1, m * m
        c = (a + b) // 2
        q1, d1, t1 = split(a, c)
        q2, d2, t2 = split(c, b)
        return q1 * q2, d1 * d2, t1 * d2 * q2 + d1 * t2

    n = 1 + int(scale * log(10) / (2 * log(m)))
    q, d, t = split(0, n)
    num, den = t * 10 ** scale, m * d * q
    lo, hi = _directed(num, num, den)
    tail = -(-2 * 10 ** scale // ((2 * n + 1) * m * q))  # rounded up
    return lo - tail, hi + tail


def _pi_fx(scale: int) -> tuple[int, int]:
    """Chudnovsky: pi = 426880 sqrt(10005) / S, directed rounding, 3 ulps
    wide, where S = sum_k (-1)^k (6k)! (A + B k) / ((3k)! k!^3 640320^(3k)),
    A = 13591409 and B = 545140134.

    Binary splitting sums S's first n terms exactly as T / Q.  Term k + 1
    over term k is 8 (6k+1)(6k+3)(6k+5) (A + B (k+1)) / ((k+1)^3 640320^3
    (A + B k)), at most 120 * 42 / 640320^3 at k = 0 and 1728 * 2 /
    640320^3 after: below 2 10^-14 < 10^-13.5.  So the terms alternate and
    shrink, the tail lies below the first omitted term, and 27 n >=
    2 (scale + 1) puts it below 10^-(scale+1) of term 0 = A < 1.0001 S.
    Then pi 10^scale = 426880 sqrt(10005) 10^scale Q / T (1 - e) with
    |e| < 1.0001 10^-(scale+1): the tail moves it by under 1/3 ulp.  The
    root r = isqrt(10005 10^(2 scale)) puts sqrt(10005) 10^scale in
    [r, r + 1], and 426880 Q / T < 1/30 ulp.  So with f = floor(426880 r
    Q / T), pi 10^scale lies in (f - 1/3, f + 1 + 1/30 + 1/3), inside
    (f - 1, f + 2).
    """
    def split(a: int, b: int) -> tuple[int, int, int]:
        # (p, q, t) with p / q = prod_{a <= k < b} p_k / q_k and
        # t / q = sum_{a <= k < b} (-1)^k (A + B k) prod_{a <= j <= k} p_j / q_j,
        # where p_k / q_k = 24 (6k-5)(2k-1)(6k-1) / (k^3 640320^3), term k
        # over term k - 1 up to (A + B k) / (A + B (k-1)), and p_0 = q_0 = 1
        if b - a == 1:  # 640320^3 / 24 = 10939058860032000
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1) if a else 1
            q = a ** 3 * 10939058860032000 if a else 1
            t = p * (13591409 + 545140134 * a)
            return p, q, -t if a & 1 else t
        c = (a + b) // 2
        p1, q1, t1 = split(a, c)
        p2, q2, t2 = split(c, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(0, -(-2 * (scale + 1) // 27))
    f = 426880 * q * isqrt(10005 * 10 ** (2 * scale)) // t
    return f - 1, f + 2


def _ln2_fx(scale: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3)."""
    at = _arc_inv_fx(3, scale)
    return 2 * at[0], 2 * at[1]


# keyed by value, and specs compare as tuples: PiPower (2 fields) and Surd
# (4 fields) never equal each other, so no two specs share an entry
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


# -- the one Taylor series, in midpoint-radius form --------------------------

def _series_fx(power: tuple[int, int], ratio: tuple[int, int], scale: int,
               steps: Iterator[tuple[int, int]]) -> tuple[int, int]:
    """Pair of sum_k P_k / n_k: P_0 in the pair ``power``, n_0 = 1, and for
    k >= 1 P_k = P_(k-1) * R / (10^scale m_k), R in the pair ``ratio`` and
    (m_k, n_k) from endless ``steps``.

    Midpoint-radius form (Johansson, "Arb", IEEE TC 2017): P_k lies within
    r_k ulps of one integer c_k, and R within rho of its midpoint R', so a
    term costs one big product, c_k = floor(c R' / (10^scale m)).  As
    |P R - c R'| <= r (|R'| + rho) + |c| rho and the floor adds under an
    ulp, r_k = ceil((r (|R'| + rho) + |c| rho) / (10^scale m)) + 1, with
    products by small integers only.  r_k shrinks with the term ratio
    |R| / 10^scale, not through m_k alone, so it settles at a few ulps even
    where every m_k = 1 (atanh).  Stops once |c| + r <= 8 ulps bound the
    last power summed.  Each caller keeps the term ratio |R| / (10^scale m_k)
    at most 4/5, so the omitted terms sum to at most 8 (4/5) / (1 - 4/5) = 32
    ulps, and the final widening by 64 covers them.
    """
    d = 10 ** scale
    lo, hi = power
    c, r = _ball(*power)
    mid, rho = _ball(*ratio)
    reach = abs(mid) + rho
    for m, n in steps:
        if abs(c) + r <= 8:
            return lo - 64, hi + 64
        dm = d * m
        c, r = c * mid // dm, -(-(r * reach + abs(c) * rho) // dm) + 1
        lo, hi = lo + (c - r) // n, hi - (-(c + r) // n)


def _ball(lo: int, hi: int) -> tuple[int, int]:
    """Integer midpoint c and radius r of [lo, hi]: c - r <= lo, hi = c + r."""
    c = (lo + hi) // 2
    return c, hi - c


# ---------------------------------------------------------------------------
# point evaluations built on the series
# ---------------------------------------------------------------------------

def _sin_point_fx(x: tuple[int, int], scale: int) -> tuple[int, int]:
    """sin of an exact rational, |x| <= 1.6 (term ratio <= 0.43)."""
    d = 10 ** scale
    t = _directed(x[0] * d, x[0] * d, x[1])
    t2 = _directed(*_hull(*t, *t), d)
    return _series_fx(t, (-t2[1], -t2[0]), scale,
                      ((2 * i * (2 * i + 1), 1) for i in count(1)))


def _ln_point_fx(x: tuple[int, int], scale: int) -> tuple[int, int]:
    """Natural log of an exact positive rational, as a directed pair.

    x = 2^k * m with m in [2/3, 4/3), so ln x = k ln 2 + 2 atanh(z) with
    z = (m - 1)/(m + 1) and |z| <= 1/5.
    """
    num, den = x
    if num <= 0:
        raise ValueError("ln of non-positive value")
    s = scale + 8
    # bit lengths put 3x/2 within a factor 2 of 2^k, so m = a/b lies in (1/3, 4/3)
    k = (3 * num).bit_length() - (2 * den).bit_length()
    a, b = (num, den << k) if k >= 0 else (num << -k, den)
    if 3 * a < 2 * b:
        k, a = k - 1, 2 * a
    d = 10 ** s
    z = _directed((a - b) * d, (a - b) * d, a + b)
    # atanh, term ratio <= 1/9; it stops on the power z^(2i+1), not on the term
    at = _series_fx(z, _directed(*_hull(*z, *z), d), s,
                    ((1, 2 * i + 1) for i in count(1)))
    kl = sorted(k * l2 for l2 in _cell(s, _ln2_fx))
    return _directed(2 * at[0] + kl[0], 2 * at[1] + kl[1], 10 ** (s - scale))


def _exp_point_fx(y: tuple[int, int], scale: int) -> tuple[int, int]:
    """exp of an exact rational with |y| <= scale ln 10, as a directed pair."""
    num, den = y
    s = scale + 12
    # y = j*ln2 + r with |r| <= 0.36 after round-to-nearest j
    j = (num * 1_442_695 + 500_000 * den) // (1_000_000 * den)
    jl = sorted(j * l2 for l2 in _cell(s, _ln2_fx))
    d = 10 ** s
    y_lo, y_hi = _directed(num * d, num * d, den)
    # term ratio <= |r| < 0.8
    e = _series_fx((d, d), (y_lo - jl[1], y_hi - jl[0]), s, ((i, 1) for i in count(1)))
    # times 2^j, back to scale
    return _directed(e[0] << max(j, 0), e[1] << max(j, 0), 10 ** 12 << max(-j, 0))


# ---------------------------------------------------------------------------
# public constant evaluation
# ---------------------------------------------------------------------------

def pi_interval(scale: int) -> CertifiedReal:
    """The one-ulp cell [f, f + 1] 10^-scale holding pi, f = floor(pi 10^scale)."""
    _require_int("scale", scale)
    return _iv(*_cell(scale, _pi_fx), 10 ** scale)


def eval_constant(spec: ConstantSpec, budget: PrecisionBudget) -> CertifiedReal:
    """Enclosure of the constant with width <= 10^-digits.

    An exact spec gives its point; any other is irrational and gives its
    one-ulp cell at scale ``budget.working + 8`` (plus |t| for pi^t/s),
    fixed by (spec, budget) alone.  Raises PrecisionError if that scale
    exceeds the budget cap.
    """
    _require_budget(budget)
    exact = exact_value(spec)
    if exact is not None:
        return CertifiedReal.point(exact)

    scale = _cell_scale(spec, budget)
    if scale > budget.cap:
        raise PrecisionError(
            f"cannot evaluate {spec.describe()} to {budget.digits} digits "
            f"within precision cap {budget.cap}"
        )
    return _iv(*_cell(scale, _spec_fx, spec), 10 ** scale)


def _cell_scale(spec: ConstantSpec, budget: PrecisionBudget) -> int:
    """The scale s of the one-ulp cell, 10^-s wide, that ``eval_constant``
    returns for an irrational spec at ``budget``."""
    return budget.working + 8 + (abs(spec.t) if isinstance(spec, PiPower) else 0)


def residual(alpha: ConstantSpec, conv: Convergent,
             budget: PrecisionBudget) -> CertifiedReal:
    """The residual eps = q alpha - p of a convergent ``conv`` p/q to
    ``budget.working`` significant digits, escalating from ``budget``:
    width <= |eps| 10^-(working+1), below 10^-working of its leading
    digit, which no enclosure straddling zero meets.

    Starts at the first escalation level that can hold them: for a
    convergent |eps| < 1/q, and at a level whose cell of alpha is 10^-s
    wide eps is q 10^-s wide, so a level with q^2 10^(working+1) >= 10^s
    fails without forming eps.
    """
    if not isinstance(conv, Convergent):
        raise TypeError(f"conv must be a Convergent, not {conv!r}")
    irrational = exact_value(alpha) is None

    def attempt(b: PrecisionBudget) -> CertifiedReal:
        coarse = conv.q ** 2 >= 10 ** (_cell_scale(alpha, b) - budget.working - 1)
        if irrational and coarse:
            raise PrecisionError(f"residual for {conv.p}/{conv.q} cannot hold "
                                 f"{budget.working} significant digits")
        eps = eval_constant(alpha, b) * conv.q - conv.p
        if not eps.relative_width_at_most(budget.working + 1):
            raise PrecisionError(f"residual for {conv.p}/{conv.q} holds fewer "
                                 f"than {budget.working} significant digits")
        return eps

    return escalate(attempt, budget)


def _spec_fx(spec: ConstantSpec, scale: int) -> tuple[int, int]:
    """Directed pair of an irrational spec at ``scale``, a few ulps wide,
    formed on integers alone."""
    d = 10 ** scale
    if isinstance(spec, PiPower):
        t, s = abs(spec.t), spec.s
        # pi^t widens pi's one-ulp cell to t pi^(t-1) < 10^t ulps.  At its
        # positive ends f, n = floor(f^t 10^e) = floor(y 10^(s scale)) for
        # y = f^t / 10^(t (scale+t)), and r^s <= n < (r + 1)^s puts y^(1/s)
        # in [r, r + 1) ulps
        e = s * scale - t * (scale + t)
        lo, hi = (_iroot(f ** t * 10 ** e if e >= 0 else f ** t // 10 ** -e, s)
                  for f in _cell(scale + t, _pi_fx))
        # pi^-(t/s) in [d/(hi + 1), d/lo]: d^2/(hi + 1), d^2/lo ulps outward
        return (d * d // (hi + 1), -(-d * d // lo)) if spec.t < 0 else (lo, hi + 1)
    if isinstance(spec, Surd):
        # sqrt(spec.d) in [r, r + 1] ulps, and (a + b x)/c is monotone in x
        r, sign = isqrt(spec.d * d * d), 1 if spec.c > 0 else -1
        return _directed(*sorted(sign * (spec.b * x + spec.a * d) for x in (r, r + 1)),
                         abs(spec.c))
    raise TypeError(f"unsupported constant spec: {spec!r}")


# ---------------------------------------------------------------------------
# certified sine with argument reduction
# ---------------------------------------------------------------------------

def sin_certified(x: CertifiedReal, budget: PrecisionBudget) -> CertifiedReal:
    """Enclosure of sin over x, reduced modulo pi at full precision where
    max |x| > 3/2; below that x is its own reduction, and no pi is formed.

    Midpoint-radius form: one kernel run at the midpoint c of the reduced
    interval, widened by the mean value theorem,
    |sin(c + h) - sin c| <= |h| (|cos c| + |h|), with |h| at most the
    reduced interval's half-width (that of x plus the reduction error).
    """
    _require_real("x", x)
    _require_budget(budget)
    if x.is_zero():
        return CertifiedReal.point(0)

    reach = max(-x.lo_num, x.hi_num)  # max |x| = reach / den
    # floor of max |x|: its digits are those of max |x| once that is >= 1
    magnitude = reach // x.den
    mag_digits = _floor_log10(magnitude) + 1 if magnitude >= 1 else 1
    scale = budget.working + mag_digits + 8
    if scale > budget.cap:
        raise PrecisionError(
            f"sine argument magnitude needs working precision {scale} > cap"
        )
    if (x.hi_num - x.lo_num) * 10 ** budget.digits > 20 * x.den:
        raise PrecisionError("input interval too wide to certify sine")

    # r = x - k pi as twice its midpoint and its width, over den.  Where
    # max |x| <= 3/2, x's midpoint over pi's is at most 0.48 from 0, so
    # k = 0 and r = x, the same rationals as the reduction gives, with no pi
    mid, width, den, k = x.lo_num + x.hi_num, x.hi_num - x.lo_num, x.den, 0
    if 2 * reach > 3 * x.den:
        pi = pi_interval(scale)
        x_lo, x_hi, pi_lo, pi_hi, den = _aligned(x, pi)
        # tau is twice pi's midpoint
        mid, width, tau = x_lo + x_hi, x_hi - x_lo, pi_lo + pi_hi
        # k nearest to x's midpoint over pi's: r's midpoint in [-pi/2, pi/2]
        k = (2 * mid + tau) // (2 * tau)
        mid, width = mid - k * tau, width + abs(k) * (pi_hi - pi_lo)

    d = 10 ** scale
    lo, hi = _sin_point_fx((mid, 2 * den), scale)
    # |cos c| <= sqrt(1 - sin^2 c) <= cos_ulps / d from the kernel's own
    # bounds, and |h| <= h_ulps / d, both rounded up
    least = 0 if lo < 0 < hi else min(abs(lo), abs(hi))
    cos_ulps = isqrt(d * d - least * least) + 1
    h_ulps = -(-width * d // (2 * den))
    slack = -(-h_ulps * (cos_ulps + h_ulps) // d)
    sin_r = _iv(max(lo - slack, -d), min(hi + slack, d), d)
    return -sin_r if k % 2 else sin_r  # sin x = (-1)^k sin r


# ---------------------------------------------------------------------------
# certified log/exp on intervals (used by the measure column)
# ---------------------------------------------------------------------------

# Both in midpoint-radius form, as the sine: one kernel run at the exact
# midpoint c of the interval, widened by the mean value theorem over the
# half-width h.  A point has h = 0 and gets the kernel's pair itself.

def ln_certified(x: CertifiedReal, scale: int) -> CertifiedReal:
    """Enclosure of ln over a certainly-positive interval, however wide:
    |ln(c + t) - ln c| <= h / lo for |t| <= h."""
    _require_real("x", x)
    _require_int("scale", scale)
    if not x.certainly_positive():
        raise PrecisionError("ln needs an interval certified positive")
    lo, hi = _ln_point_fx((x.lo_num + x.hi_num, 2 * x.den), scale)
    # h / lo = (hi_num - lo_num) / (2 lo_num), in ulps rounded up
    slack = -(-(x.hi_num - x.lo_num) * 10 ** scale // (2 * x.lo_num))
    return _iv(lo - slack, hi + slack, 10 ** scale)


def exp_certified(y: CertifiedReal, scale: int) -> CertifiedReal:
    """Enclosure of exp over an interval with both ends in [-scale ln 10,
    scale ln 10] (else PrecisionError): |exp(c + t) - exp c| <= h exp(c) e^h
    for |t| <= h, where e^h <= 2^ceil(2h) as ln 2 > 1/2."""
    _require_real("y", y)
    _require_int("scale", scale)
    bound, unit = (scale * log(10)).as_integer_ratio()
    if max(-y.lo_num, y.hi_num) * unit > bound * y.den:
        raise PrecisionError(f"exp argument out of range at scale {scale}")
    lo, hi = _exp_point_fx((y.lo_num + y.hi_num, 2 * y.den), scale)
    # exp c <= hi ulps and 2h = w / den: h exp(c) e^h <= hi w 2^e / (2 den)
    w = y.hi_num - y.lo_num
    e = -(-w // y.den)
    slack = -(-(hi * w << e) // (2 * y.den))
    return _iv(max(lo - slack, 0), hi + slack, 10 ** scale)
