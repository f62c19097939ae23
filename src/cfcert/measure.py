"""Approximate irrationality measure mu_n and the q^(mu_n - 2) column.

mu_n(alpha) = -log|alpha - p_n/q_n| / log q_n, certified from interval
enclosures.  Displayed mu_n is the ceiling at six decimals, i.e. the
least six-decimal exponent mu with |alpha - p/q| >= 1/q^mu.  The final
column q^(mu_n - 2) uses the displayed mu_n and rounds half-to-even.

mu_n ~ 2 for the convergents of almost every real number; a finite table
of mu_n values is evidence about the early convergents only and proves
nothing about the infimum mu(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import partial

from .cf import expand
from .convergents import Convergent, convergents_iter
from .errors import PrecisionError
from .reals import (
    CertifiedReal,
    ConstantSpec,
    PrecisionBudget,
    _floor_log10,
    escalate,
    eval_constant,
    exact_value,
    exp_certified,
    ln_certified,
)

_PLACES = 6
_SCALE = 10 ** _PLACES
# certification threshold: half an ulp of the displayed six decimals
_MU_WIDTH = Fraction(5, 10 ** (_PLACES + 1))


def _as_decimal(scaled: int) -> Decimal:
    return Decimal(scaled).scaleb(-_PLACES)


@dataclass(frozen=True)
class MeasureRow:
    """One table row: 1-based display index, exact p/q, displayed columns.

    ``mu`` is absent for q = 1 (log q = 0) and for a residual that is
    exactly zero (rational constant hit exactly); ``lagrange`` is then
    1.000000 for q = 1 and absent otherwise.
    """

    display_n: int
    p: int
    q: int
    mu: Decimal | None
    lagrange: Decimal | None


def mu_n(alpha: ConstantSpec, conv: Convergent,
         budget: PrecisionBudget) -> Decimal | None:
    """Certified -log|alpha - p/q| / log q, ceiled to six decimals.

    None when q = 1.  The logs run at the digits the error enclosure
    carries, never above ``budget.working``.  Raises PrecisionError if
    the budget cannot separate the error term from zero or pin all six
    decimals; callers escalate.
    """
    if conv.q == 1:
        return None
    err = abs(eval_constant(alpha, budget) - Fraction(conv.p, conv.q))
    if err.hi == 0:
        raise ZeroDivisionError("exact convergent: approximation error is zero")
    if not err.certainly_positive():
        raise PrecisionError(
            f"error interval for p/q={conv.p}/{conv.q} cannot exclude zero "
            f"at {budget.digits} digits"
        )
    scale = budget.working
    if err.width:
        # digits err carries, or _MU_WIDTH's if fewer, plus headroom for rounding
        carried = max(_floor_log10(err.lo / err.width), -_floor_log10(_MU_WIDTH))
        scale = min(scale, carried + 4)
    mu = -ln_certified(err, scale) / ln_certified(CertifiedReal.point(conv.q), scale)
    if mu.width >= _MU_WIDTH:
        raise PrecisionError("mu enclosure wider than half a display ulp")
    lo, hi = math.ceil(mu.lo * _SCALE), math.ceil(mu.hi * _SCALE)
    if lo != hi:
        # an exact error can put mu on the display point u/v itself, which no
        # precision separates; err = q^(-u/v) with gcd(u, v) = 1 needs
        # q = r^v, so v <= log2 q (and u >= 1, as err < 1)
        u, v = Fraction(lo, _SCALE).as_integer_ratio()
        if err.width or u < 1 or v >= conv.q.bit_length():
            raise PrecisionError("mu enclosure straddles a display boundary")
        # mu <= u/v  iff  err^v * q^u >= 1
        a, b = err.lo.as_integer_ratio()
        if a ** v * conv.q ** u < b ** v:
            lo = hi
    return _as_decimal(lo)


def lagrange(q: int, mu) -> Decimal:
    """q^(mu - 2) at six decimals (half-even); exactly 1.000000 for q = 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return _as_decimal(_SCALE)
    exponent = Fraction(str(mu)) - 2

    def attempt(b: PrecisionBudget) -> Decimal:
        lnq = ln_certified(CertifiedReal.point(q), b.working)
        value = exp_certified(lnq * exponent, b.working)
        lo, hi = round(value.lo * _SCALE), round(value.hi * _SCALE)
        if lo != hi:
            raise PrecisionError("lagrange value sits on a rounding boundary")
        return _as_decimal(lo)

    # working precision 40, 80, ..., 5120
    return escalate(attempt, PrecisionBudget(30, cap=10_000))


def measure_table(alpha: ConstantSpec, rows: int,
                  budget: PrecisionBudget | None = None) -> list[MeasureRow]:
    """Rows 1..rows of the measure table, escalating precision as needed.

    Display index n is the 0-based convergent index plus one.  For exact
    rational constants the table stops at the terminating expansion.
    """
    return [r if r.mu is None else replace(r, lagrange=lagrange(r.q, r.mu))
            for r in _mu_rows(alpha, rows, budget)]


def _mu_rows(alpha: ConstantSpec, rows: int,
             budget: PrecisionBudget | None) -> list[MeasureRow]:
    """``measure_table``'s rows without q^(mu_n - 2) where mu_n is present."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    budget = budget or PrecisionBudget(60)

    quotients = expand(alpha, rows, budget)
    upto = min(rows, quotients.certified_count) - 1
    convs = convergents_iter(quotients, upto)
    is_exact = exact_value(alpha) is not None

    out: list[MeasureRow] = []
    for conv in convs:
        if conv.q == 1:
            out.append(MeasureRow(conv.n + 1, conv.p, conv.q, None,
                                  _as_decimal(_SCALE)))
            continue
        if is_exact and quotients.terminated and conv.n == len(quotients.terms) - 1:
            # final convergent of a rational equals the value exactly
            out.append(MeasureRow(conv.n + 1, conv.p, conv.q, None, None))
            continue
        mu = escalate(partial(mu_n, alpha, conv), budget)
        out.append(MeasureRow(conv.n + 1, conv.p, conv.q, mu, None))
    return out
