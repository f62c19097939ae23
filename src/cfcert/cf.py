"""Certified continued-fraction expansion of constants.

Two routes: a precision ladder over CertifiedReal.partial_quotients for
arbitrary constants, and the exact integer (P, Q) recurrence for
quadratic surds (no rounding anywhere on that path).
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .reals import (
    DEFAULT_BUDGET,
    DEFAULT_PRECISION_CAP,
    ConstantSpec,
    PrecisionBudget,
    PrecisionError,
    Surd,
    escalate,
    eval_constant,
    exact_value,
)


class PartialQuotients:
    """A certified prefix [a_0; a_1, a_2, ...] of an expansion.

    ``terminated`` marks exact rational inputs whose expansion is complete
    (canonical form, last quotient >= 2 when longer than one term).  A
    sequence of its terms (``len``, indexing, slicing, iteration), so not
    a tuple of its fields: immutable, equal and hashed by
    (``terms``, ``terminated``).
    """

    __slots__ = ("terms", "terminated")

    def __init__(self, terms: tuple[int, ...], terminated: bool = False):
        if not {*map(type, terms)} <= {int}:
            k = next(k for k, a in enumerate(terms) if type(a) is not int)
            raise TypeError(f"quotient {k} must be an int, not {terms[k]!r}")
        if type(terminated) is not bool:
            raise TypeError(f"terminated must be a bool, not {terminated!r}")
        if not terms:
            raise ValueError("empty expansion")
        if any(a < 1 for a in terms[1:]):
            raise ValueError("partial quotients after a_0 must be >= 1")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "terminated", terminated)

    def __setattr__(self, name, value=None):  # value=None: refuses del too
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PartialQuotients, (self.terms, self.terminated)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PartialQuotients)
                and (self.terms, self.terminated) == (other.terms, other.terminated))

    def __hash__(self) -> int:
        return hash((self.terms, self.terminated))

    def __repr__(self) -> str:
        return f"PartialQuotients(terms={self.terms!r}, terminated={self.terminated!r})"

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]


class SurdExpansion(namedtuple("SurdExpansion", "quotients preperiod period")):
    """Exact surd expansion with its eventual-period descriptor; a named tuple."""

    __slots__ = ()

    @property
    def period_terms(self) -> tuple[int, ...]:
        return self.quotients.terms[self.preperiod:self.preperiod + self.period]


def expand(spec: ConstantSpec, want_terms: int,
           budget: PrecisionBudget = DEFAULT_BUDGET) -> PartialQuotients:
    """At least ``want_terms`` certified quotients, escalating from ``budget``.

    Exact rationals return their full terminating expansion instead
    (possibly shorter than requested).  Raises PrecisionError with the
    achieved ``certified_count`` if the cap is hit first.

    A level is skipped, without evaluating the constant, when it is
    predicted to certify fewer than 3/4 of ``want_terms`` and a next level
    exists under the cap.  The prediction is working · max(k / w, 97/100)
    quotients, from the k quotients of the last level evaluated at w
    working digits: the measured rate, floored by Lochs' theorem (n
    digits of almost every real fix about 0.97 n quotients) so that a
    stalled sample, such as one huge quotient, cannot jump far.  A wrong
    skip costs time, never output: cells nest from level to level, so a
    finer level certifies at least the prefix of a coarser one, and where
    the top level's cell does not fit under the cap, the levels skipped
    below it are evaluated after all, highest first.
    """
    if type(want_terms) is not int:
        raise TypeError(f"want_terms must be an int, not {want_terms!r}")
    if want_terms < 1:
        raise ValueError("want_terms must be >= 1")

    if exact_value(spec) is not None:
        return PartialQuotients(tuple(eval_constant(spec, budget).partial_quotients()),
                                terminated=True)

    best: list[int] = []
    rate = (0, 0)  # (quotients, working digits) at the last level evaluated
    skipped: list[PrecisionBudget] = []

    def attempt(b: PrecisionBudget) -> PartialQuotients:
        nonlocal best, rate
        k, w = rate
        # predicted < 3/4 want_terms, in integers; never before a sample (w = 0)
        short = 4 * b.working * max(100 * k, 97 * w) < 300 * want_terms * w
        if short and 2 * b.working <= b.cap:
            skipped.append(b)
        else:
            for level in (b, *reversed(skipped)):
                try:
                    prefix = eval_constant(spec, level).partial_quotients(want_terms)
                except PrecisionError:
                    continue  # over the cap: fall back on a level skipped below
                best, rate = max(best, prefix, key=len), (len(prefix), level.working)
                break
            skipped.clear()
        if len(best) < want_terms:
            raise PrecisionError(
                f"certified only {len(best)} of {want_terms} quotients",
                certified_count=len(best),
            )
        return PartialQuotients(tuple(best))

    return escalate(attempt, budget)


# ---------------------------------------------------------------------------
# exact periodic expansion for quadratic surds
# ---------------------------------------------------------------------------

def surd_expand(spec: Surd, want_terms: int) -> SurdExpansion:
    """Expansion of (a + b*sqrt(d))/c by the integer (P, Q) recurrence.

    All terms are exact, hence certified.  By Galois' theorem the expansion
    is purely periodic from the first reduced complete quotient (x > 1,
    -1 < conjugate < 0), so the period ends where that state recurs.
    Raises PrecisionError if no period closes within
    ``DEFAULT_PRECISION_CAP`` quotients.
    """
    if not isinstance(spec, Surd):
        raise TypeError("surd_expand requires a Surd constant")
    if type(want_terms) is not int:
        raise TypeError(f"want_terms must be an int, not {want_terms!r}")
    if want_terms < 1:
        raise ValueError("want_terms must be >= 1")

    # normalise to (P + sqrt(D)) / Q with Q | (D - P^2)
    if spec.b > 0:
        p, q, d = spec.a, spec.c, spec.d * spec.b * spec.b
    else:
        p, q, d = -spec.a, -spec.c, spec.d * spec.b * spec.b
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)

    s = isqrt(d)
    terms: list[int] = []
    reduced = None
    preperiod = period = -1
    while period < 0 or len(terms) < want_terms:
        if period < 0:
            if (p, q) == reduced:
                period = len(terms) - preperiod
            elif reduced is None and q > 0 and p <= s and q - p <= s < p + q:
                reduced, preperiod = (p, q), len(terms)
            elif len(terms) > DEFAULT_PRECISION_CAP:
                raise PrecisionError(f"surd period longer than "
                                     f"{DEFAULT_PRECISION_CAP} quotients")
        if period > 0 and len(terms) >= want_terms:
            break
        a = (p + s) // q if q > 0 else (p + s + 1) // q
        terms.append(a)
        p = a * q - p
        q = (d - p * p) // q

    return SurdExpansion(PartialQuotients(tuple(terms)), preperiod, period)
