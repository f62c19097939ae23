"""Table rows decided in integers.

Each flag and printed cell of a measure, probe or verify row is decided by
``CertifiedReal``'s integer queries.  The references below are the
earlier formulations on the lowest-terms Fraction views (``lo``, ``hi``,
``width``); hypothesis compares the two on unreduced intervals with
negative and zero endpoints and exact ties.  The count test checks that
the row builders construct no Fraction per row, and expand none at all.
"""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcert import PrecisionError, measure, probe
from cfcert.cf import expand
from cfcert.convergents import Convergent, convergents_iter
from cfcert.reals import (
    DEFAULT_BUDGET,
    CertifiedReal,
    PiPower,
    PrecisionBudget,
    Surd,
    _iv,
    pi_interval,
)

# -- references: the Fraction-view formulations ------------------------------


def ref_floor_log10(x: Fraction) -> int:
    """floor(log10(x)), x > 0, from decimal lengths and Fraction comparisons."""
    k = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def ref_sci6(iv, row):
    if iv is None:
        return ""
    texts = []
    for x in (iv.lo, iv.hi):
        e = ref_floor_log10(abs(x)) if x else 0
        n, d = abs(x.numerator), x.denominator * 10 ** max(0, e - 6)
        digits, r = divmod(n * 10 ** max(0, 6 - e), d)  # in [10^6, 10^7)
        digits += 2 * r > d or (2 * r == d and digits % 2)  # half to even
        if digits == 10 ** 7:
            digits, e = 10 ** 6, e + 1
        texts.append(f"{'-' if x < 0 else ''}{digits // 10 ** 6}."
                     f"{digits % 10 ** 6:06d}e{e:+03d}")
    if texts[0] != texts[1]:
        raise PrecisionError(f"probe row {row}: enclosure rounds to both "
                             f"{texts[0]} and {texts[1]}")
    return texts[0]


def ref_bound_flags(abs_eps, cur, nxt):
    lower, upper = Fraction(1, cur.q + nxt.q), Fraction(1, nxt.q)
    lo, hi = abs_eps.lo, abs_eps.hi
    if lo <= lower < hi or lo < upper <= hi:
        raise PrecisionError(f"row {cur.n + 1}: residual bounds undecided")
    return lo > lower, hi < upper


def ref_too_few_digits(eps, n):
    """The residual's significant-digit test: True fails the attempt."""
    return eps.width * 10 ** n > abs(eps).lo


def ref_lead(eps):
    """The residual's leading zeros, which shift the sine budget."""
    return 0 if eps.is_zero() else max(0, -ref_floor_log10(abs(eps).lo))


def ref_mu_too_wide(mu):
    return mu.width >= Fraction(5, 10 ** 7)


def ref_mu_ceilings(mu):
    return math.ceil(mu.lo * 10 ** 6), math.ceil(mu.hi * 10 ** 6)


def ref_lagrange_rounding(value):
    return round(value.lo * 10 ** 6), round(value.hi * 10 ** 6)


def ref_probe_in_domain(abs_eps, pi):
    """``sine_probe``'s test that |eps| lies within pi/2."""
    return abs_eps.hi <= pi.lo / 2


def ref_envelope_out_of_domain(z, budget):
    """``envelope_check``'s test that z extends past pi/2 by more than its width."""
    scale = budget.working + 8
    pi = pi_interval(scale)
    abs_z = abs(z)
    slack = abs_z.width + Fraction(4, 10 ** scale)
    return abs_z.hi > pi.hi / 2 + slack


def outcome(f, *args):
    """f's value, or the PrecisionError it raised, for comparing two forms."""
    try:
        return f(*args)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


# -- strategies: unreduced intervals with ties ----------------------------------


@st.composite
def rationals(draw, special=()):
    """A rational, or one of ``special``, sometimes zero or a power of ten."""
    kind = draw(st.sampled_from(["random", "zero", "power", "special"]
                                if special else ["random", "zero", "power"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "power":
        sign = draw(st.sampled_from([1, -1]))
        return sign * Fraction(10) ** draw(st.integers(-40, 40))
    if kind == "special":
        return draw(st.sampled_from(special))
    den = draw(st.integers(1, 10 ** draw(st.integers(1, 40))))
    return Fraction(draw(st.integers(-10 ** 45, 10 ** 45)), den)


@st.composite
def intervals(draw, special=()):
    """An enclosure of two drawn rationals over a common unreduced denominator."""
    a, b = draw(rationals(special)), draw(rationals(special))
    lo, hi = min(a, b), max(a, b)
    den = lo.denominator * hi.denominator * draw(st.integers(1, 10 ** 6))
    return _iv(int(lo * den), int(hi * den), den)


def half_ulps(places):
    """Endpoints on exact half-ulps of ``places`` decimals, and on the ulps."""
    return st.integers(-10 ** 9, 10 ** 9).map(
        lambda m: Fraction(2 * m + 1, 2 * 10 ** places)) | st.integers(
        -10 ** 9, 10 ** 9).map(lambda m: Fraction(m, 10 ** places))


# -- integer forms against the references ---------------------------------------


class TestIntegerQueries:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sci6(self, data):
        # x.xxxxxx5 at an exact half-ulp of the six printed decimals
        e = data.draw(st.integers(-30, 30))
        ties = tuple(Fraction(2 * m + 1, 2) * Fraction(10) ** (e - 6)
                     for m in (10 ** 6, 1_234_566, 9_999_999, 10 ** 7 - 2))
        iv = data.draw(intervals(ties + tuple(-t for t in ties)))
        assert outcome(probe._sci6, iv, 7) == outcome(ref_sci6, iv, 7)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bound_flags(self, data):
        q = data.draw(st.integers(1, 10 ** 12))
        q_next = q + data.draw(st.integers(0, 10 ** 12))
        cur, nxt = Convergent(4, 1, q), Convergent(5, 1, q_next)
        abs_eps = data.draw(intervals((Fraction(1, q + q_next), Fraction(1, q_next))))
        assert (outcome(probe._bound_flags, abs_eps, cur, nxt)
                == outcome(ref_bound_flags, abs_eps, cur, nxt))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_residual_digits_and_leading_zeros(self, data):
        # an eps straddling zero has abs(eps).lo = 0 and fails the test too
        eps = data.draw(intervals())
        n = data.draw(st.integers(0, 40))
        assert (not eps.relative_width_at_most(n)) == ref_too_few_digits(eps, n)
        if not ref_too_few_digits(eps, n):  # the leading zeros of a kept eps
            budget = PrecisionBudget(n + 1)
            assert probe._sine_budget(eps, budget).digits == n + 1 + ref_lead(eps)

    @settings(max_examples=300, deadline=None)
    @given(intervals())
    def test_floor_log10(self, iv):
        expected = tuple(ref_floor_log10(abs(x)) if x else None for x in (iv.lo, iv.hi))
        assert iv.floor_log10() == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mu_width_and_ceilings(self, data):
        # widths at exactly half a display ulp, 5 10^-7, and endpoints on the grid
        base = data.draw(half_ulps(6))
        width = data.draw(st.sampled_from([Fraction(5, 10 ** 7), Fraction(0)])
                          | st.fractions(0, Fraction(1, 10 ** 5)))
        mu = data.draw(st.sampled_from([
            CertifiedReal(base, base + width), data.draw(intervals())]))
        mu = _iv(mu.lo_num * 3, mu.hi_num * 3, mu.den * 3)  # unreduced
        assert (mu.compare_width(*measure._MU_WIDTH) >= 0) == ref_mu_too_wide(mu)
        assert mu.scaled(6, "ceil") == ref_mu_ceilings(mu)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lagrange_half_even(self, data):
        ends = sorted((data.draw(half_ulps(6)), data.draw(half_ulps(6))))
        value = data.draw(st.sampled_from([CertifiedReal(*ends), data.draw(intervals())]))
        value = _iv(value.lo_num * 7, value.hi_num * 7, value.den * 7)
        assert value.scaled(6, "half_even") == ref_lagrange_rounding(value)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_scaled_at_any_power(self, data):
        iv = data.draw(intervals())
        k = data.draw(st.integers(-30, 30))
        lo, hi = iv.lo * Fraction(10) ** k, iv.hi * Fraction(10) ** k
        assert iv.scaled(k, "floor") == (math.floor(lo), math.floor(hi))
        assert iv.scaled(k, "ceil") == (math.ceil(lo), math.ceil(hi))
        assert iv.scaled(k, "half_even") == (round(lo), round(hi))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_compare_endpoint_with_rational(self, data):
        a = data.draw(st.integers(-10 ** 20, 10 ** 20))
        b = data.draw(st.integers(1, 10 ** 20))
        iv = data.draw(intervals((Fraction(a, b),)))

        def sign(x):
            return (x > Fraction(a, b)) - (x < Fraction(a, b))

        assert iv.compare(a, b) == (sign(iv.lo), sign(iv.hi))
        assert iv.compare_width(a, b) == sign(iv.width)


@pytest.mark.parametrize("below, expected",
                         [(0, None), (Fraction(1, 10 ** 20), "2.000001")])
def test_mu_width_of_half_an_ulp_is_undecided(monkeypatch, below, expected):
    # ln q stubbed to 1, so mu = 1 - ln|eps| = [2.0000001, 2.0000006 - below]:
    # both ends ceil to 2.000001, and only a width below half an ulp prints it
    conv = Convergent(3, 1, 7)
    ln_eps = CertifiedReal(Fraction(-10_000_006, 10 ** 7) + below,
                           Fraction(-10_000_001, 10 ** 7))
    monkeypatch.setattr(measure, "residual", lambda *_: CertifiedReal.point(1))
    monkeypatch.setattr(measure, "ln_certified", lambda x, scale: (
        CertifiedReal.point(1) if x == CertifiedReal.point(conv.q) else ln_eps))
    mu = outcome(measure.mu_n, PiPower(2, 1), conv, PrecisionBudget(5))
    if expected is None:
        assert mu[0] == "PrecisionError"
    else:
        assert str(mu) == expected


@pytest.mark.parametrize("mu, expected", [
    (Decimal("2.123456"), "1.271547"), ("2.123456", "1.271547"),
    (Fraction(2_123_456, 10 ** 6), "1.271547"), (Decimal("2.1234560"), "1.271547"),
    (Decimal("2.1234567891"), "1.271549"), ("7/3", "1.912931"),
    (Decimal("2.5"), "2.645751"), (Decimal("-1.5"), "0.001102"), (2, "1.000000"),
])
def test_lagrange_reads_mu_exactly(mu, expected):
    # values from the exact rational CertifiedReal.point(mu), whatever mu's type
    assert str(measure.lagrange(7, mu)) == expected


@pytest.mark.parametrize("mu, error, message", [
    (Decimal("NaN"), ValueError, "cannot convert NaN"),
    (Decimal("Infinity"), OverflowError, "cannot convert Infinity"),
    ("abc", ValueError, "Invalid literal for Fraction"),
    (float("inf"), TypeError, "inexact float inf"),
    (2.5, TypeError, "inexact float 2.5"),
], ids=["mu0", "mu1", "abc", "inf", "float"])
def test_lagrange_refuses_a_non_number(mu, error, message):
    # as CertifiedReal.point refuses it, a float included, also where q = 1
    for call in (lambda: measure.lagrange(7, mu), lambda: measure.lagrange(1, mu),
                 lambda: CertifiedReal.point(mu)):
        with pytest.raises(error, match=message):
            call()


class TestEnvelopeDomain:
    """The two tests of |eps| against pi/2, with the sines stubbed out."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_probe_domain(self, data):
        budget = PrecisionBudget(data.draw(st.integers(1, 40)))
        # alpha is not pi2, so sine_probe takes pi at its budget's scale plus 2
        pi = pi_interval(budget.working + 2)
        ties = tuple(t + d for t in (pi.lo / 2, pi.hi / 2)
                     for d in (0, Fraction(1, 10 ** (budget.working + 3))))
        eps = data.draw(intervals(ties + tuple(-t for t in ties)))
        if eps.straddles_zero():
            return
        conv = Convergent(3, 1, 5)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probe, "residual", lambda *_: eps)
            mp.setattr(probe, "_sine_budget", lambda *_: budget)
            mp.setattr(probe, "sin_certified", lambda x, b: x)
            mp.setattr(probe, "_envelope_holds", lambda *_: True)
            row = probe.sine_probe(PiPower(3, 4), conv, budget)
        assert (row.envelope_ok is not None) == ref_probe_in_domain(abs(eps), pi)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_envelope_check_domain(self, data):
        budget = PrecisionBudget(data.draw(st.integers(1, 40)))
        pi = pi_interval(budget.working + 8)
        ulp = Fraction(1, 10 ** (budget.working + 8))
        # |z|'s upper end exactly at pi.hi/2 + width + 4 ulps, and one ulp either side
        width = data.draw(st.sampled_from([Fraction(0), ulp, Fraction(1, 7)]))
        ties = tuple(pi.hi / 2 + 4 * ulp + d for d in (-ulp, 0, ulp))
        lo = data.draw(st.sampled_from(ties) | st.fractions(-2, 2))
        sign = data.draw(st.sampled_from([1, -1]))
        z = CertifiedReal(*sorted((sign * lo, sign * (lo + width))))
        z = data.draw(st.sampled_from([z, data.draw(intervals(ties))]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probe, "sin_certified", lambda x, b: x)
            raised = isinstance(outcome(probe.envelope_check, z, budget), tuple)
        assert raised == (not z.is_zero() and ref_envelope_out_of_domain(z, budget))


# -- no Fraction per row ----------------------------------------------------------


def fractions_built(run) -> int:
    """Calls of ``Fraction.__new__`` while ``run()`` runs."""
    code, count = Fraction.__new__.__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def row_builders(alpha, rows, monkeypatch):
    """The public table functions that the three commands run, over
    ``rows`` rows of alpha, as zero-argument calls; the quotients are
    expanded before any of them runs."""
    budget = DEFAULT_BUDGET
    quotients = expand(alpha, rows + 1, budget)
    convs = convergents_iter(quotients, rows)

    def measure_rows():
        # mu_table's rows, then the q^(mu_n - 2) column
        with monkeypatch.context() as mp:
            mp.setattr(measure, "expand", lambda *_: quotients)
            measure.measure_table(alpha, rows, budget)

    return {
        "measure": measure_rows,
        "probe": lambda: probe.probe_table(alpha, convs, budget),
        "verify": lambda: probe.bound_check(alpha, convs, budget),
    }


@pytest.mark.parametrize("alpha", [PiPower(2, 1), PiPower(3, 4), Surd(0, 1, 199, 1)],
                         ids=["pi2", "pi^3/4", "sqrt:199"])
def test_no_fraction_per_row(alpha, monkeypatch):
    counts = {}
    for rows in (40, 80):
        for name, run in row_builders(alpha, rows, monkeypatch).items():
            counts[name, rows] = fractions_built(run)
    for name in ("measure", "probe", "verify"):
        assert counts[name, 80] == counts[name, 40], name


@pytest.mark.parametrize("alpha, terms", [(PiPower(2, 1), 1016), (PiPower(-2, 3), 500),
                                          (Surd(0, 1, 199, 1), 1000)],
                         ids=["pi2", "pi^-2/3", "sqrt:199"])
def test_expand_builds_no_fraction(alpha, terms):
    # Euclid runs on the enclosure's own integers, not on its Fraction views
    assert fractions_built(lambda: expand(alpha, terms)) == 0


def test_fraction_count_sees_fractions():
    assert fractions_built(lambda: [Fraction(1, k) for k in range(1, 6)]) == 5
