"""Expansion tests: certified quotients, escalation, exact surd recurrence."""

import re
from fractions import Fraction
from math import floor, isqrt

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcert import (
    CertifiedReal,
    DecimalLiteral,
    PartialQuotients,
    PiPower,
    PrecisionBudget,
    PrecisionError,
    Surd,
    convergents_iter,
    eval_constant,
    expand,
    surd_expand,
)
import cfcert.cf as cf
from cfcert.reals import DEFAULT_BUDGET, escalate

from reference_data import PI2_QUOTIENTS_27


def mp_expansion(x, n: int) -> list[int]:
    """Oracle expansion by plain floor/reciprocal at high precision."""
    terms = []
    for _ in range(n):
        a = int(mp.floor(x))
        terms.append(a)
        x = 1 / (x - a)
    return terms


def dict_loop_expansion(spec: Surd,
                        want_terms: int) -> tuple[tuple[int, ...], int, int] | None:
    """(terms, preperiod, period) by the (P, Q) recurrence, the period found
    by keeping every state until one repeats; None where no state repeats
    within ``cf.DEFAULT_PRECISION_CAP`` quotients, as ``surd_expand`` stops."""
    if spec.b > 0:
        p, q, d = spec.a, spec.c, spec.d * spec.b * spec.b
    else:
        p, q, d = -spec.a, -spec.c, spec.d * spec.b * spec.b
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    sqrt_d = isqrt(d)
    terms: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    preperiod = period = -1
    while period < 0 or len(terms) < want_terms:
        state = (p, q)
        if period < 0:
            if state in seen:
                preperiod = seen[state]
                period = len(terms) - preperiod
            elif len(terms) > cf.DEFAULT_PRECISION_CAP:
                return None
            else:
                seen[state] = len(terms)
        if period > 0 and len(terms) >= want_terms:
            break
        a = (p + sqrt_d) // q if q > 0 else (p + sqrt_d + 1) // q
        terms.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return tuple(terms), preperiod, period


class TestExpand:
    def test_pi2_27_terms(self):
        q = expand(PiPower(2, 1), 27)
        assert list(q.terms[:27]) == PI2_QUOTIENTS_27
        assert len(q) >= 27

    def test_pi_prefix_against_oracle(self):
        q = expand(PiPower(1, 1), 20)
        with mp.workdps(80):
            assert list(q.terms[:20]) == mp_expansion(mp.pi, 20)

    def test_literal_half(self):
        q = expand(DecimalLiteral("0.5"), 10)
        assert list(q.terms) == [0, 2]
        assert q.terminated
        assert len(q) == 2

    def test_literal_canonical_last_quotient(self):
        # canonical form ends with a quotient >= 2 whenever length > 1
        for text in ("0.3", "2.875", "-0.5", "123.456"):
            q = expand(DecimalLiteral(text), 5)
            if len(q.terms) > 1:
                assert q.terms[-1] >= 2
            value = Fraction(q.terms[-1])
            for a in reversed(q.terms[:-1]):
                value = a + 1 / value
            assert value == Fraction(text)

    def test_sqrt2_interval_path(self):
        q = expand(Surd(0, 1, 2, 1), 8)
        assert list(q.terms[:8]) == [1, 2, 2, 2, 2, 2, 2, 2]

    def test_want_terms_validation(self):
        with pytest.raises(ValueError):
            expand(PiPower(2, 1), 0)

    def test_cap_reports_partial_progress(self):
        # working 6, 12 and 24: the cell at 24 + 10 digits certifies 26 quotients
        with pytest.raises(PrecisionError) as exc_info:
            expand(PiPower(2, 1), 27, PrecisionBudget(6, guard=0, cap=25))
        assert exc_info.value.certified_count is not None
        assert 0 < exc_info.value.certified_count < 27

    def test_quotient_positivity(self):
        q = expand(PiPower(2, 1), 40)
        assert all(a >= 1 for a in q.terms[1:])


def evaluated_levels(spec, want_terms, budget, monkeypatch):
    """The working digits of each ``eval_constant`` call that ``expand``
    makes, in order, and its result or PrecisionError."""
    levels = []

    def counted(spec, b):
        levels.append(b.working)
        return eval_constant(spec, b)

    with monkeypatch.context() as patch:
        patch.setattr(cf, "eval_constant", counted)
        try:
            result = expand(spec, want_terms, budget)
        except PrecisionError as exc:
            result = exc
    return levels, result


# (spec, want_terms, cap): certified_count and working precision at the cap
# from PrecisionBudget(20, 10, cap), and the eval_constant calls behind them
CAP_PATHS = [
    (PiPower(2, 1), 27, 30, 0, 30, [30]),
    (PiPower(2, 1), 5000, 4000, 3750, 3840, [30, 3840]),
    (PiPower(5, 2), 3000, 2500, 1822, 1920, [30, 1920]),
    (Surd(1, 1, 5, 2), 3000, 1000, 2316, 960, [30, 960]),
    (Surd(0, 1, 69, 1), 2000, 1500, 924, 960, [30, 960]),
    (PiPower(1, 1), 20000, 9000, 7520, 7680, [30, 7680]),
    # the top level's cell does not fit under the cap (3840 + 8 + 2 > 3845,
    # 480 + 8 + 300 > 480): the levels skipped below it are evaluated after
    # all, highest first, so certified_count stays that of the plain ladder
    (PiPower(2, 1), 5000, 3845, 1881, 3840, [30, 3840, 1920]),
    (PiPower(-300, 7), 5000, 480, 356, 480, [30, 480, 240, 120]),
]
CAP_IDS = ["pi2-27", "pi2-5000", "pi^5/2", "golden", "sqrt69", "pi-20000",
           "pi2-top-over-cap", "pi^-300/7-top-over-cap"]


class TestCapPaths:
    """What ``expand`` reports when the cap stops it, whichever levels it
    evaluates on the way."""

    @pytest.mark.parametrize("spec, want, cap, count, working, levels",
                             CAP_PATHS, ids=CAP_IDS)
    def test_message_and_certified_count(self, spec, want, cap, count, working,
                                         levels):
        with pytest.raises(PrecisionError) as exc_info:
            expand(spec, want, PrecisionBudget(20, 10, cap))
        assert exc_info.value.certified_count == count
        assert str(exc_info.value) == (f"certified only {count} of {want} quotients "
                                       f"(working precision {working}, cap {cap})")


class TestSkippedLevels:
    """``expand`` skips the levels predicted to fall short, and nothing else."""

    @pytest.mark.parametrize("spec, want, cap, count, working, levels",
                             CAP_PATHS, ids=CAP_IDS)
    def test_levels_on_cap_paths(self, spec, want, cap, count, working, levels,
                                 monkeypatch):
        calls, exc = evaluated_levels(spec, want, PrecisionBudget(20, 10, cap),
                                      monkeypatch)
        assert calls == levels
        assert exc.certified_count == count

    @pytest.mark.parametrize("spec, want, levels", [
        (PiPower(2, 1), 1016, [70, 1120]),
        (Surd(1, 1, 5, 2), 1000, [70, 560]),  # about 2.4 quotients a digit
        (Surd(0, 1, 10 ** 30 + 1, 1), 40, [70, 140, 280, 560, 1120, 2240]),
    ], ids=["pi2", "golden", "huge-quotients"])
    def test_levels_from_the_default_budget(self, spec, want, levels, monkeypatch):
        calls, result = evaluated_levels(spec, want, DEFAULT_BUDGET, monkeypatch)
        assert calls == levels
        assert len(result) == want

    def test_last_level_is_the_lowest_that_holds_the_prefix(self, monkeypatch):
        # the ladder's prefix length at each level, by climbing every level
        specs = [PiPower(1, 1), PiPower(2, 1), PiPower(-1, 1), PiPower(3, 4),
                 PiPower(-2, 3), PiPower(7, 5), Surd(1, 1, 5, 2), Surd(0, 1, 2, 1),
                 Surd(0, 1, 69, 1), Surd(7, -3, 13, 11),
                 Surd(0, 1, 10 ** 30 + 1, 1)]
        largest = [2500] * 10 + [300]  # quotients of about 15 digits: 300
        grid = sorted({round(5 * 1.15 ** i) for i in range(45)})  # 5 .. 2500
        cases = skipped = 0
        for spec, most in zip(specs, largest):
            ladder = []

            def climb(b):
                ladder.append((b.working,
                               len(eval_constant(spec, b).partial_quotients(most))))
                if ladder[-1][1] < most:
                    raise PrecisionError("short")

            escalate(climb, DEFAULT_BUDGET)
            # the grid, and each side of every level's prefix length
            sizes = {n for n in grid if n <= most}
            sizes |= {n + d for _, n in ladder for d in (0, 1) if n + d <= most}
            for want in sorted(sizes):
                lowest = next(i for i, (_, n) in enumerate(ladder) if n >= want)
                calls, result = evaluated_levels(spec, want, DEFAULT_BUDGET,
                                                 monkeypatch)
                assert (spec, want, calls[-1]) == (spec, want, ladder[lowest][0])
                assert set(calls) <= {w for w, _ in ladder[:lowest + 1]}
                assert len(result) == want
                cases += 1
                skipped += len(calls) < lowest + 1
        assert cases > 500 and skipped > cases // 3


class TestCertify:
    """The prefix that one enclosure certifies at one budget, no escalation."""

    def test_sufficient_budget(self):
        x = eval_constant(PiPower(2, 1), PrecisionBudget(60))
        assert len(x.partial_quotients(27)) >= 27

    def test_insufficient_budget(self):
        x = eval_constant(PiPower(2, 1), PrecisionBudget(5, guard=2))
        assert len(x.partial_quotients(27)) < 27

    def test_exact_rational(self):
        # the whole terminating expansion, whatever the budget
        q = expand(DecimalLiteral("0.5"), 10, PrecisionBudget(5))
        assert q.terms == (0, 2) and q.terminated

    def test_cap_too_tight_for_agreement_pass(self):
        with pytest.raises(PrecisionError):
            eval_constant(PiPower(2, 1), PrecisionBudget(30, guard=10, cap=45))


def canonical_expansion(x: Fraction) -> list[int]:
    """Floor/reciprocal on an exact rational until it terminates."""
    terms = [floor(x)]
    while x != terms[-1]:
        x = 1 / (x - terms[-1])
        terms.append(floor(x))
    return terms


def fold(terms) -> Fraction:
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


@st.composite
def rational_intervals(draw):
    """[lo, hi] whose endpoints share a drawn quotient run.

    Each endpoint is that run plus a tail that may be empty, so an
    endpoint's expansion can end at or inside the run; a last quotient
    of 1 makes its canonical expansion one term shorter still.
    """
    run = [draw(st.integers(-20, 20))] + draw(
        st.lists(st.integers(1, 9), max_size=10))
    # small tail quotients make the tails agree, or continue with a 1
    ends = sorted(fold(run + draw(st.lists(st.integers(1, 4), max_size=8)))
                  for _ in range(2))
    return CertifiedReal(*ends)


class TestSharedPrefix:
    @settings(max_examples=300, deadline=None)
    @given(rational_intervals(), st.integers(1, 25),
           st.lists(st.fractions(0, 1, max_denominator=10 ** 6), max_size=6))
    def test_every_rational_inside_starts_with_prefix(self, x, max_terms, ts):
        prefix = x.partial_quotients(max_terms)
        lo_terms = canonical_expansion(x.lo)
        hi_terms = canonical_expansion(x.hi)
        common = []
        for a, b in zip(lo_terms, hi_terms):
            if a != b:
                break
            common.append(a)
        assert prefix == common[:max_terms]
        for r in [x.lo, x.hi, x.midpoint] + [x.lo + t * x.width for t in ts]:
            terms = canonical_expansion(r)
            if len(terms) < len(prefix):
                # only the equal-value form [..., a_m - 1, 1] may match
                terms = terms[:-1] + [terms[-1] - 1, 1]
            assert terms[:len(prefix)] == prefix

    def test_endpoint_ending_inside_run(self):
        # 7/2 = [3; 2] ends where [3; 2, 1, 4] goes on
        x = CertifiedReal(fold([3, 2, 1, 4]), Fraction(7, 2))
        assert x.partial_quotients(10) == [3, 2]
        # the same with the short expansion at the lower end
        x = CertifiedReal(Fraction(17, 5), fold([3, 2, 2, 1, 4]))
        assert x.partial_quotients(10) == [3, 2, 2]
        # [3; 1, 1] is canonically [3; 2], so the shared run is [3]
        x = CertifiedReal(Fraction(7, 2), fold([3, 1, 1, 4]))
        assert x.partial_quotients(10) == [3]


def euclid(num: int, den: int) -> list[int]:
    """Plain Euclid on num/den, den > 0."""
    terms = []
    while den:
        a, rem = divmod(num, den)
        terms.append(a)
        num, den = den, rem
    return terms


class TestPartialQuotientsQuery:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 12),
                     st.integers(-10 ** 6, 10 ** 6).map(Fraction)))
    @example(Fraction(0))
    @example(Fraction(-7))
    @example(Fraction(-1, 2))
    def test_point_gives_its_canonical_expansion(self, r):
        assert CertifiedReal.point(r).partial_quotients() == canonical_expansion(r)

    def test_max_terms_cuts_the_expansion(self):
        x = CertifiedReal.point(Fraction(355, 113))
        assert x.partial_quotients(0) == []
        assert x.partial_quotients(2) == [3, 7]
        assert x.partial_quotients(3) == x.partial_quotients() == [3, 7, 16]

    @pytest.mark.parametrize("max_terms", [True, False, 2.0, 2.5, "2"])
    def test_max_terms_is_an_int(self, max_terms):
        value = re.escape(repr(max_terms))
        with pytest.raises(TypeError, match=f"^max_terms must be an int, not {value}$"):
            CertifiedReal.point(Fraction(355, 113)).partial_quotients(max_terms)

    def test_max_terms_is_not_negative(self):
        with pytest.raises(ValueError, match="^max_terms must be >= 0$"):
            CertifiedReal.point(1).partial_quotients(-1)


class TestEuclidOnUnreducedRatios:
    """Euclid's quotients depend on the value of num/den alone, so the
    endpoints' unreduced numerators over a shared denominator may feed it."""

    @settings(max_examples=200, deadline=None)
    @given(rational_intervals(), st.integers(1, 10 ** 30), st.integers(1, 25))
    def test_scaled_endpoints_give_the_same_quotients(self, x, factor, max_terms):
        lowest = [euclid(*end.as_integer_ratio()) for end in (x.lo, x.hi)]
        # both endpoints over their common denominator, times the factor
        den = x.lo.denominator * x.hi.denominator * factor
        unreduced = [euclid(end.numerator * (den // end.denominator), den)
                     for end in (x.lo, x.hi)]
        assert unreduced == lowest
        prefix = []
        for a, b in zip(*unreduced):
            if a != b or len(prefix) == max_terms:
                break
            prefix.append(a)
        assert x.partial_quotients(max_terms) == prefix


class TestLongExpansions:
    @pytest.mark.parametrize("spec", [Surd(0, 1, 199, 1), Surd(1, 2, 69, 5)])
    def test_interval_path_matches_surd_recurrence(self, spec):
        q = expand(spec, 1000)
        exact = surd_expand(spec, 1000).quotients.terms
        assert list(q.terms[:1000]) == list(exact[:1000])

    def test_pi2_1000_terms_against_oracle(self):
        q = expand(PiPower(2, 1), 1000)
        with mp.workdps(2600):
            assert list(q.terms[:1000]) == mp_expansion(mp.pi ** 2, 1000)

    def test_pi2_1040_terms_at_working_1120(self):
        # the longest expand in the deep benchmark needs no extra doubling
        x = eval_constant(PiPower(2, 1), PrecisionBudget(1110))
        assert len(x.partial_quotients(1040)) >= 1040


class TestReconstruction:
    @pytest.mark.parametrize("spec,terms", [
        (PiPower(2, 1), 25),
        (Surd(0, 1, 2, 1), 30),
        (Surd(1, 1, 5, 2), 30),
        (PiPower(1, 1), 20),
    ])
    def test_convergent_error_below_inverse_square(self, spec, terms):
        q = expand(spec, terms)
        convs = convergents_iter(q, terms - 1)
        alpha = eval_constant(spec, PrecisionBudget(2 * terms + 40))
        for c in convs:
            err = abs(alpha - c.value)
            assert err.certainly_less_than(Fraction(1, c.q * c.q))


class TestSurdExpand:
    def test_sqrt2(self):
        sx = surd_expand(Surd(0, 1, 2, 1), 10)
        assert list(sx.quotients.terms[:10]) == [1] + [2] * 9
        assert (sx.preperiod, sx.period) == (1, 1)

    def test_golden_ratio(self):
        sx = surd_expand(Surd(1, 1, 5, 2), 10)
        assert list(sx.quotients.terms[:10]) == [1] * 10
        assert (sx.preperiod, sx.period) == (0, 1)

    def test_sqrt7_period_four(self):
        sx = surd_expand(Surd(0, 1, 7, 1), 12)
        assert list(sx.quotients.terms[:9]) == [2, 1, 1, 1, 4, 1, 1, 1, 4]
        assert sx.period == 4
        assert sx.period_terms == (1, 1, 1, 4)

    def test_negative_surd(self):
        sx = surd_expand(Surd(0, -1, 2, 1), 8)
        with mp.workdps(50):
            assert list(sx.quotients.terms[:8]) == mp_expansion(-mp.sqrt(2), 8)

    def test_all_terms_certified(self):
        sx = surd_expand(Surd(3, 2, 13, 5), 25)
        assert len(sx.quotients) == len(sx.quotients.terms) >= 25

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-9, 9), st.integers(1, 9), st.integers(2, 80),
           st.integers(1, 9))
    def test_against_float_oracle(self, a, b, d, c):
        from math import isqrt
        if isqrt(d) ** 2 == d:
            return
        sx = surd_expand(Surd(a, b, d, c), 12)
        with mp.workdps(60):
            oracle = mp_expansion((a + b * mp.sqrt(d)) / c, 10)
        assert list(sx.quotients.terms[:10]) == oracle

    @settings(max_examples=15, deadline=None)
    @given(st.integers(-5, 5), st.sampled_from([1, 2, 3, -1, -2]),
           st.sampled_from([2, 3, 5, 7, 11, 13]), st.sampled_from([1, 2, 3, -3]))
    def test_exact_and_interval_paths_agree(self, a, b, d, c):
        spec = Surd(a, b, d, c)
        exact = surd_expand(spec, 15)
        interval = expand(spec, 15, PrecisionBudget(60))
        n = min(15, len(interval))
        assert list(exact.quotients.terms[:n]) == list(interval.terms[:n])

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-10 ** 4, 10 ** 4), st.integers(-50, 50).filter(bool),
           st.integers(2, 10 ** 5), st.integers(-10 ** 3, 10 ** 3).filter(bool),
           st.integers(1, 60))
    @example(a=1, b=43, d=100000, c=500, want=1)  # period 1,607,468: past the cap
    def test_period_matches_state_repetition(self, a, b, d, c, want):
        if isqrt(d) ** 2 == d:
            return
        expected = dict_loop_expansion(Surd(a, b, d, c), want)
        if expected is None:
            with pytest.raises(PrecisionError, match="surd period longer than"):
                surd_expand(Surd(a, b, d, c), want)
            return
        sx = surd_expand(Surd(a, b, d, c), want)
        assert (sx.quotients.terms, sx.preperiod, sx.period) == expected

    def test_period_within_cap(self):
        sx = surd_expand(Surd(0, 1, 10 ** 13 + 37, 1), 10)
        assert (sx.preperiod, sx.period) == (1, 493361)

    def test_period_past_cap_fails_fast(self, monkeypatch):
        monkeypatch.setattr(cf, "DEFAULT_PRECISION_CAP", 1000)
        with pytest.raises(PrecisionError, match="longer than 1000 quotients"):
            surd_expand(Surd(0, 1, 10 ** 13 + 37, 1), 10)
        assert surd_expand(Surd(0, 1, 7, 1), 5).period == 4

    def test_rejects_perfect_square(self):
        with pytest.raises(ValueError):
            surd_expand(Surd(0, 1, 16, 1), 5)

    def test_rejects_non_surd(self):
        with pytest.raises(TypeError):
            surd_expand(PiPower(2, 1), 5)


class TestPartialQuotients:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartialQuotients(())
        with pytest.raises(ValueError):
            PartialQuotients((1, 0, 2))

    def test_sequence_protocol(self):
        q = PartialQuotients((9, 1, 6))
        assert len(q) == 3 and q[1] == 1 and list(q) == [9, 1, 6]
