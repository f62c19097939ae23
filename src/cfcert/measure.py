"""mu_n and the q^(mu_n - 2) column, from the residuals eps_n = q_n*alpha - p_n.

mu_n(alpha) = -log|alpha - p_n/q_n| / log q_n = 1 - ln|eps_n| / ln q_n,
from the residual's enclosure.  Displayed mu_n is the ceiling at six
decimals: the least such exponent mu with |alpha - p/q| >= 1/q^mu.  The
final column q^(mu_n - 2) uses the displayed mu_n, rounded half-to-even.

mu_n ~ 2 for the convergents of almost every real number; a finite table
of mu_n values is evidence about the early convergents only and proves
nothing about the infimum mu(alpha).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .cf import expand
from .convergents import Convergent, convergents_iter
from .reals import (
    DEFAULT_BUDGET,
    DEFAULT_PRECISION_CAP,
    CertifiedReal,
    ConstantSpec,
    PrecisionBudget,
    PrecisionError,
    escalate,
    exp_certified,
    ln_certified,
    residual,
)

_PLACES = 6
_SCALE = 10 ** _PLACES
# certification threshold: half an ulp of the displayed six decimals, as a/b
_MU_WIDTH = (5, 10 ** (_PLACES + 1))


def _as_decimal(scaled: int) -> Decimal:
    """scaled * 10^-6, exact at any size (no context rounding).

    The first row formatted loads ``decimal``, which nothing else needs.
    """
    from decimal import Decimal
    sign, digits, _ = Decimal(scaled).as_tuple()
    return Decimal((sign, digits, -_PLACES))


class MeasureRow(namedtuple("MeasureRow", "display_n p q mu lagrange")):
    """One table row: 1-based display index, exact p/q, displayed columns.

    ``mu`` is absent (None) for q = 1 (log q = 0) and for a residual that
    is exactly zero (rational constant hit exactly); ``lagrange`` is then
    1.000000 for q = 1 and absent otherwise.  A named tuple, copied with
    ``_replace``.
    """

    __slots__ = ()


def mu_n(alpha: ConstantSpec, conv: Convergent,
         budget: PrecisionBudget) -> Decimal | None:
    """Certified -log|alpha - p/q| / log q, ceiled to six decimals.

    None when q = 1 or when eps is exactly zero.  As |alpha - p/q| = |eps|/q
    for the residual eps = q*alpha - p, mu = 1 - ln|eps| / ln q, with eps to
    ``budget.working`` significant digits.  The logs start at 11 digits
    and double up to max(working, 7) + 4; past that, PrecisionError, and
    callers escalate.
    """
    if not isinstance(conv, Convergent):
        raise TypeError(f"conv must be a Convergent, not {conv!r}")
    if conv.q == 1:
        return None
    eps = residual(alpha, conv, budget)
    if eps.is_zero():
        return None

    def attempt(b: PrecisionBudget) -> Decimal:
        lnq = ln_certified(CertifiedReal.point(conv.q), b.working)
        mu = 1 - ln_certified(abs(eps), b.working) / lnq
        if mu.compare_width(*_MU_WIDTH) >= 0:
            raise PrecisionError("mu enclosure wider than half a display ulp")
        lo, hi = mu.scaled(_PLACES, "ceil")
        if lo != hi:
            # an exact eps can put mu on the display point u/v itself, which
            # no precision separates; |eps|/q = q^(-u/v) with gcd(u, v) = 1
            # needs q = r^v, so v <= log2 q (and u >= 1, as |eps|/q < 1)
            g = gcd(lo, _SCALE)
            u, v = lo // g, _SCALE // g
            if eps.compare_width(0) or u < 1 or v >= conv.q.bit_length():
                raise PrecisionError("mu enclosure straddles a display boundary")
            # mu <= u/v  iff  |eps|^v * q^(u-v) >= 1, with |eps| = a/c
            a, c = abs(eps).lo.as_integer_ratio()
            if a ** v * conv.q ** u < c ** v * conv.q ** v:
                lo = hi
        return _as_decimal(lo)

    # the logs start at the 7 digits that decide six decimals, plus 4 guard
    cap = max(budget.working, 7) + 4
    return escalate(attempt, PrecisionBudget(_PLACES + 1, 4, cap))


def _log10_power_floor(q: int, exponent: CertifiedReal) -> int:
    """An integer at most |exponent| * log10 q, for q >= 1.

    q >= t * 2^s for its top 64 bits t, and the bit length of t^16, less
    one, is at most 16 log2 t; so 16 s plus it is at most 16 log2 q, and
    short of it by little more than one, where q's bit length alone can
    fall short by almost one bit (log10 3 = 0.48 read as 0.30).  With
    log10 2 > 0.30102 and the floor of |exponent| 10^6, every factor is
    a lower bound.
    """
    s = max(q.bit_length() - 64, 0)
    log2_16 = 16 * s + ((q >> s) ** 16).bit_length() - 1  # <= 16 log2 q
    low = abs(exponent).scaled(_PLACES, "floor")[0]  # <= |exponent| 10^6
    return log2_16 * low * 30102 // (16 * 100_000 * _SCALE)


def lagrange(q: int, mu) -> Decimal:
    """q^(mu - 2) at six decimals (half-even); exactly 1.000000 for q = 1.

    ``mu`` is read exactly, as :meth:`CertifiedReal.point` reads every
    exact input, so a float is refused.  ln q and exp start at 7 digits
    past the value's integer digits (at least 11) and double up to the
    package cap; a value past 10^+-cap raises PrecisionError at once.
    """
    if type(q) is not int:
        raise TypeError(f"q must be an int, not {q!r}")
    if q < 1:
        raise ValueError("q must be >= 1")
    exponent = CertifiedReal.point(mu) - 2
    if q == 1:
        return _as_decimal(_SCALE)
    # past the cap, exp's range check fails at every working precision
    # escalation tries
    if _log10_power_floor(q, exponent) > DEFAULT_PRECISION_CAP:
        raise PrecisionError(f"q^(mu - 2) is past 10^+-{DEFAULT_PRECISION_CAP}, out "
                             f"of exp's range at every precision up to the cap")
    # q^|mu - 2| has at most this many integer digits, as log10 2 < 0.30103
    scaled = abs(exponent).scaled(_PLACES, "ceil")[1]  # >= |mu - 2| 10^6
    digits = q.bit_length() * scaled * 30103 // (100_000 * _SCALE) + 1

    def attempt(b: PrecisionBudget) -> Decimal:
        lnq = ln_certified(CertifiedReal.point(q), b.working)
        value = exp_certified(lnq * exponent, b.working)
        lo, hi = value.scaled(_PLACES, "half_even")
        if lo != hi:
            raise PrecisionError("lagrange value sits on a rounding boundary")
        return _as_decimal(lo)

    working = min(max(11, digits + 7), DEFAULT_PRECISION_CAP)
    return escalate(attempt, PrecisionBudget(working - 4, 4))


def measure_table(alpha: ConstantSpec, rows: int,
                  budget: PrecisionBudget = DEFAULT_BUDGET) -> list[MeasureRow]:
    """``mu_table`` with the q^(mu_n - 2) column filled where mu_n is present."""
    return [r if r.mu is None else r._replace(lagrange=lagrange(r.q, r.mu))
            for r in mu_table(alpha, rows, budget)]


def mu_table(alpha: ConstantSpec, rows: int,
             budget: PrecisionBudget = DEFAULT_BUDGET) -> list[MeasureRow]:
    """Rows 1..rows of the measure table, escalating from ``budget`` as
    needed, without q^(mu_n - 2) where mu_n is present.

    Display index n is the 0-based convergent index plus one.  For exact
    rational constants the table stops at the terminating expansion.
    """
    if type(rows) is not int:
        raise TypeError(f"rows must be an int, not {rows!r}")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    quotients = expand(alpha, rows, budget)
    out: list[MeasureRow] = []
    for conv in convergents_iter(quotients, min(rows, len(quotients)) - 1):
        mu = escalate(lambda b: mu_n(alpha, conv, b), budget)
        unit = _as_decimal(_SCALE) if conv.q == 1 else None  # q^(mu - 2) = 1 at q = 1
        out.append(MeasureRow(conv.n + 1, conv.p, conv.q, mu, unit))
    return out
