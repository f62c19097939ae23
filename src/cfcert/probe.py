"""Sine probes and bound checks of the residuals eps_n = q_n*alpha - p_n.

For alpha = pi^2 the probe evaluates |sin(pi^3 * q_n)| directly (full
argument reduction at magnitude pi^3 * q_n) and compares it with the
reduced form |sin(pi * eps_n)|; the two enclose the same real number
because p_n shifts the argument by an integer multiple of pi.  The
envelope check replaces the asymptotic two-sided sine bound with the
explicit sharp constants 2/pi and 1, valid on [-pi/2, pi/2].
"""

from __future__ import annotations

from collections import namedtuple

from .convergents import Convergent
from .reals import (
    DEFAULT_BUDGET,
    CertifiedReal,
    ConstantSpec,
    PiPower,
    PrecisionBudget,
    PrecisionError,
    escalate,
    pi_interval,
    residual,
    sin_certified,
)


PI2 = PiPower(2, 1)  # pi^2, whose probe adds the direct sine column


class ProbeRow(namedtuple("ProbeRow", "display_n epsilon abs_epsilon sin_direct "
                           "sin_reduced sin_unscaled lower_bound_ok upper_bound_ok "
                           "envelope_ok", defaults=(None, None, None))):
    """Residual and sine-probe enclosures (CertifiedReal) for one convergent.

    ``sin_direct`` is present only for pi^2 (the direct form needs the
    pi^3 argument), None otherwise; the bool bound flags stay None until
    ``probe_table`` fills them from the successor convergent.  A named
    tuple, copied with ``_replace``.
    """

    __slots__ = ()


def sine_probe(alpha: ConstantSpec, conv: Convergent,
               budget: PrecisionBudget) -> ProbeRow:
    """Probe row for one convergent, each column to ``budget.working``
    significant digits: the residual escalates until it holds them, and
    the sines take the budget shifted by the leading zeros of |eps|.
    """
    eps = residual(alpha, conv, budget)
    sine_budget = _sine_budget(eps, budget)
    abs_eps = abs(eps)
    direct = alpha == PI2
    # pi^3 * q needs log10(q) more digits of pi than pi * eps, and 2 for 3 pi^2
    q_digits = CertifiedReal.point(conv.q).floor_log10()[0] + 1 if direct else 0
    pi = pi_interval(sine_budget.working + q_digits + 2)
    sin_reduced = abs(sin_certified(pi * eps, sine_budget))
    sin_unscaled = abs(sin_certified(eps, sine_budget))
    sin_direct = None
    if direct:
        sin_direct = abs(sin_certified(pi * pi * pi * conv.q, sine_budget))

    envelope = None
    # |eps| <= pi/2: 2|eps| - pi has no positive point
    if (abs_eps * 2 - pi).compare(0)[1] <= 0:
        envelope = _envelope_holds(abs_eps, sin_unscaled, pi)
    return ProbeRow(conv.n + 1, eps, abs_eps, sin_direct, sin_reduced,
                    sin_unscaled, envelope_ok=envelope)


def _sine_budget(eps: CertifiedReal, budget: PrecisionBudget) -> PrecisionBudget:
    """``budget`` with its digits raised by the leading zeros of |eps|, so
    that a sine near eps holds ``budget.working`` significant digits."""
    lead = 0 if eps.is_zero() else max(0, -abs(eps).floor_log10()[0])
    return _capped(budget.digits + lead, budget)


def _capped(digits: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> PrecisionBudget:
    """``budget`` with ``digits`` in place of its own, for a sine;
    PrecisionError, not a budget's ValueError, where they pass its cap."""
    if digits + budget.guard > budget.cap:
        raise PrecisionError(f"sine needs {digits} digits + guard {budget.guard}, "
                             f"past the precision cap {budget.cap}")
    return budget._replace(digits=digits)


def envelope_check(z: CertifiedReal, budget: PrecisionBudget | None = None) -> bool:
    """Certify (2/pi)|z| <= |sin z| <= |z| over the enclosure.

    Valid on [-pi/2, pi/2], where both bounds are the classical concavity
    estimates with sharp constants (equalities at 0 and pi/2).  Raises
    PrecisionError if z extends beyond pi/2 by more than its own width,
    so an enclosure of the sharp point itself is accepted, and, without a
    budget, if z's resolution asks for more than the precision cap.
    Returns False only on a certified violation, which cannot occur
    inside the domain.
    """
    if not isinstance(z, CertifiedReal):
        raise TypeError(f"z must be a CertifiedReal, not {z!r}")
    if budget is not None and not isinstance(budget, PrecisionBudget):
        raise TypeError(f"budget must be a PrecisionBudget, not {budget!r}")
    if z.is_zero():
        return True
    if budget is None:
        # the input's own resolution: sine accepts no budget finer than it
        e = (z - z).floor_log10()[1]  # [-w, w] on z's own denominator
        budget = _capped(30 if e is None else max(30, -e - 2))
    scale = budget.working + 8
    pi = pi_interval(scale)
    abs_z = abs(z)
    # |z|'s upper end past pi/2 by more than |z|'s width and 4 ulps of pi's
    # scale: 2 lo(|z|) - hi(pi) > 8 10^-scale
    if (abs_z * 2 - pi).compare(8, 10 ** scale)[0] > 0:
        raise PrecisionError("envelope constants are only valid up to pi/2")
    return _envelope_holds(abs_z, abs(sin_certified(z, budget)), pi)


def _envelope_holds(abs_z: CertifiedReal, sin_abs: CertifiedReal,
                    pi: CertifiedReal) -> bool:
    """False only if (2/pi)|z| <= |sin z| <= |z| is certainly violated."""
    # certified violation tests; both inequalities are theorems on the domain.
    # (2/pi)|z| > |sin z| as 2|z| - pi |sin z| > 0: every end is >= 0, pi > 0
    return not ((abs_z * 2 - sin_abs * pi).certainly_positive()
                or (sin_abs - abs_z).certainly_positive())


def bound_check(alpha: ConstantSpec, convs: list[Convergent],
                budget: PrecisionBudget = DEFAULT_BUDGET
                ) -> list[tuple[bool, bool, bool]]:
    """``probe_table``'s (lower, upper, envelope) flags for convs[:-1], from
    eps and |sin eps| alone; a row escalates from ``budget`` while a bound
    flag is undecided.  A convergent's |eps| < 1 is inside the envelope's domain.
    """

    def attempt(cur: Convergent, nxt: Convergent,
                b: PrecisionBudget) -> tuple[bool, bool, bool]:
        eps = residual(alpha, cur, b)
        return (*_bound_flags(abs(eps), cur, nxt),
                envelope_check(eps, _sine_budget(eps, b)))

    # each lambda runs to its end within its own iteration
    return [escalate(lambda b: attempt(cur, nxt, b), budget)
            for cur, nxt in zip(convs, convs[1:])]


def _bound_flags(abs_eps: CertifiedReal, cur: Convergent,
                 nxt: Convergent) -> tuple[bool, bool]:
    """(lower, upper) flags of 1/(q_n + q_n+1) < |eps_n| < 1/q_n+1.

    True where the bound is certified, False where it is certainly
    violated; PrecisionError naming the row where the enclosure holds a bound.
    """
    # signs of |eps|'s endpoints minus each bound
    lower_lo, lower_hi = abs_eps.compare(1, cur.q + nxt.q)
    upper_lo, upper_hi = abs_eps.compare(1, nxt.q)
    if lower_lo <= 0 < lower_hi or upper_lo < 0 <= upper_hi:
        raise PrecisionError(f"row {cur.n + 1}: residual bounds undecided")
    return lower_lo > 0, upper_hi < 0


def probe_table(alpha: ConstantSpec, convs: list[Convergent],
                budget: PrecisionBudget = DEFAULT_BUDGET
                ) -> list[tuple[ProbeRow, list[str]]]:
    """Probe rows for convs[:-1], bound flags filled from each successor,
    each with its four ``%.6e`` cells (epsilon and the three sines).  A row
    escalates from ``budget`` while a bound flag or printed cell is
    undecided; no rows for fewer than two convergents.
    """

    def attempt(cur: Convergent, nxt: Convergent,
                b: PrecisionBudget) -> tuple[ProbeRow, list[str]]:
        row = sine_probe(alpha, cur, b)
        lower, upper = _bound_flags(row.abs_epsilon, cur, nxt)
        cells = [_sci6(iv, row.display_n) for iv in
                 (row.epsilon, row.sin_direct, row.sin_reduced, row.sin_unscaled)]
        return row._replace(lower_bound_ok=lower, upper_bound_ok=upper), cells

    # each lambda runs to its end within its own iteration
    return [escalate(lambda b: attempt(cur, nxt, b), budget)
            for cur, nxt in zip(convs, convs[1:])]


def _sci6(iv: CertifiedReal | None, row: int) -> str:
    """``%.6e`` of an enclosure ("" if None), each endpoint rounded exactly,
    half to even; PrecisionError naming the row if the two differ."""
    if iv is None:
        return ""
    texts = []
    for end, e in enumerate(iv.floor_log10()):
        e = 0 if e is None else e
        # half to even is symmetric in sign, so |digits| is |x|'s, in [10^6, 10^7]
        digits = iv.scaled(6 - e, "half_even")[end]
        sign, digits = "-" if digits < 0 else "", abs(digits)
        if digits == 10 ** 7:
            digits, e = 10 ** 6, e + 1
        texts.append(f"{sign}{digits // 10 ** 6}.{digits % 10 ** 6:06d}e{e:+03d}")
    if texts[0] != texts[1]:
        raise PrecisionError(f"probe row {row}: enclosure rounds to both "
                             f"{texts[0]} and {texts[1]}")
    return texts[0]
