"""Reference values computed without any cfcert code, stdlib only.

The checks compare cfcert's outputs against these.  pi comes from the
Chudnovsky series by binary splitting (cfcert uses Machin), roots from
an integer Newton iteration, quotients from Euclid on the two rational
endpoints of an enclosure, and logs, exps and sines from ``decimal``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import isqrt


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """Binary-splitting (P, Q, T) of Chudnovsky terms a..b-1."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * 10939058860032000  # 640320^3 / 24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


@lru_cache(maxsize=None)
def pi_fixed(scale: int) -> tuple[int, int]:
    """(lo, hi) with lo <= pi * 10^scale <= hi."""
    guard = 20
    work = scale + guard
    # the series alternates with term ratios below 1e-13, so the first
    # omitted term bounds the tail
    _, q, t = _chudnovsky(0, work // 13 + 2)
    root = isqrt(10005 * 10 ** (2 * work))  # root <= sqrt(10005)*10^work < root+1
    num = 426880 * q
    lo = num * root // t - 10  # 10 ulps absorb the truncated tail
    hi = -(-num * (root + 1) // t) + 10
    unit = 10 ** guard
    return lo // unit, -(-hi // unit)


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 by Newton's iteration from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class Const:
    """A benchmark constant: pi^(t/s) or the surd (a + b*sqrt(d))/c.

    ``token`` is the cfcert command-line spelling.  Surds keep b, c > 0.
    """

    token: str
    t: int = 0
    s: int = 1
    a: int = 0
    b: int = 0
    d: int = 0
    c: int = 1

    @property
    def is_surd(self) -> bool:
        return self.d > 0


def pi_power(t: int, s: int) -> Const:
    token = "pi2" if (t, s) == (2, 1) else f"pi^{t}/{s}"
    return Const(token, t=t, s=s)


def surd(a: int, b: int, d: int, c: int) -> Const:
    token = f"sqrt:{d}" if (a, b, c) == (0, 1, 1) else f"surd:{a},{b},{d},{c}"
    return Const(token, a=a, b=b, d=d, c=c)


@lru_cache(maxsize=None)
def enclosure(const: Const, scale: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= value <= hi with hi - lo of a few units of 10^-scale."""
    unit = 10 ** scale
    if const.is_surd:
        r = isqrt(const.d * unit * unit)
        den = const.c * unit
        return (Fraction(const.a * unit + const.b * r, den),
                Fraction(const.a * unit + const.b * (r + 1), den))
    t, s = const.t, const.s
    if t <= 0:
        raise ValueError("benchmark constants use t > 0")
    work = scale + 10 * t
    plo, phi = pi_fixed(work)
    shift = 10 ** (t * work)
    # (pi^t * 10^(s*scale))^(1/s), floored below and ceiled above
    nlo = plo ** t * unit ** s // shift
    nhi = -(-phi ** t * unit ** s // shift)
    rlo = iroot(nlo, s)
    rhi = iroot(nhi, s)
    if rhi ** s < nhi:
        rhi += 1
    return Fraction(rlo, unit), Fraction(rhi, unit)


def common_quotients(lo: Fraction, hi: Fraction) -> list[int]:
    """Quotients shared by every real in [lo, hi].

    Euclid runs on both endpoints in step; the last quotient they agree
    on is dropped, since an interior point may continue differently.
    """
    n1, d1 = lo.numerator, lo.denominator
    n2, d2 = hi.numerator, hi.denominator
    out: list[int] = []
    while d1 and d2:
        a1, r1 = divmod(n1, d1)
        a2, r2 = divmod(n2, d2)
        if a1 != a2:
            break
        out.append(a1)
        n1, d1, n2, d2 = d1, r1, d2, r2
    return out[:-1]


@lru_cache(maxsize=None)
def quotients(const: Const, count: int) -> tuple[int, ...]:
    """At least ``count`` certified partial quotients of the constant."""
    scale = count + count // 4 + 40
    while True:
        terms = common_quotients(*enclosure(const, scale))
        if len(terms) >= count:
            return tuple(terms[:count])
        scale *= 2


def convergents(terms) -> list[tuple[int, int]]:
    """Every (p_n, q_n) of the quotient list by the two-term recurrence."""
    out = []
    p0, p1, q0, q1 = 0, 1, 1, 0
    for a in terms:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return out


_LOW_BITS = (1 << 128) - 1


def digest(pairs) -> str:
    """Hash of the low 128 bits of each (p, q) in a sequence.

    Masking is linear in the operand size and much cheaper than a
    reduction modulo a prime, and engines that disagree on a convergent
    disagree in its low bits all but surely.
    """
    h = hashlib.sha256()
    for p, q in pairs:
        h.update(f"{p & _LOW_BITS:x},{q & _LOW_BITS:x};".encode())
    return h.hexdigest()


def value_for(const: Const, q_max: int) -> tuple[Fraction, Fraction]:
    """Enclosure fine enough to resolve alpha - p/q for q up to q_max."""
    return enclosure(const, 2 * (q_max.bit_length() * 31 // 100 + 1) + 60)


def to_decimal(x: Fraction) -> Decimal:
    """x to the current decimal context's precision."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def decimal_sin(x: Decimal) -> Decimal:
    """Taylor series of sin for |x| <= 4 at the current precision."""
    with localcontext() as ctx:
        ctx.prec += 10
        term = total = x
        x2 = x * x
        k = 1
        tiny = abs(x) * Decimal(10) ** (-ctx.prec)
        while abs(term) > tiny:
            term = -term * x2 / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
    return +total


def decimal_pi() -> Decimal:
    lo, _ = pi_fixed(80)
    return Decimal(lo).scaleb(-80)
