"""Probe tests: residuals, sine identities, envelope, Diophantine bounds."""

from fractions import Fraction

import mpmath as mp
import pytest

from cfcert import (
    CertifiedReal,
    Convergent,
    DecimalLiteral,
    PiPower,
    PrecisionBudget,
    PrecisionError,
    Surd,
    bound_check,
    convergents_iter,
    envelope_check,
    eval_constant,
    expand,
    pi_interval,
    probe_table,
    residual,
    sine_probe,
)
from cfcert.probe import _bound_flags, _sine_budget
from cfcert.reals import _floor_log10

PI2 = PiPower(2, 1)


@pytest.fixture(scope="module")
def pi2_rows():
    budget = PrecisionBudget(60)
    quotients = expand(PI2, 21, budget)
    convs = convergents_iter(quotients, 20)
    return [row for row, _ in probe_table(PI2, convs, budget)], convs


class TestResidual:
    def test_first_convergents(self):
        b = PrecisionBudget(40)
        eps = residual(PI2, Convergent(1, 10, 1), b)
        with mp.workdps(60):
            ref = Fraction(mp.nstr(mp.pi ** 2 - 10, 40))
        assert eps.lo - Fraction(1, 10 ** 30) <= ref <= eps.hi + Fraction(1, 10 ** 30)
        assert eps.certainly_negative()

    def test_exact_literal_zero(self):
        eps = residual(DecimalLiteral("0.5"), Convergent(1, 1, 2), PrecisionBudget(20))
        assert eps.is_zero()

    def test_classical_bracket_row_5(self):
        # |eps_5| sits between 1/(q_5 + q_6) and 1/q_6 (display indexing)
        eps = residual(PI2, Convergent(4, 227, 23), PrecisionBudget(40))
        a = abs(eps)
        assert a.certainly_greater_than(Fraction(1, 23 + 1089))
        assert a.certainly_less_than(Fraction(1, 1089))
        with mp.workdps(50):
            ref = Fraction(mp.nstr(23 * mp.pi ** 2 - 227, 30))
        assert a.lo - Fraction(1, 10 ** 25) <= ref <= a.hi + Fraction(1, 10 ** 25)

    def test_width_contract(self):
        conv = Convergent(29, 63780609438742, 6462326841763)
        eps = residual(PI2, conv, PrecisionBudget(40))
        assert eps.width <= Fraction(conv.q, 10 ** 40)

    def test_straddle_raises(self):
        # at 10 digits eps straddles zero, and the cap stops the ladder there
        conv = Convergent(29, 63780609438742, 6462326841763)
        with pytest.raises(PrecisionError):
            residual(PI2, conv, PrecisionBudget(10, guard=0, cap=10))

    @pytest.mark.parametrize("alpha", [PI2, PiPower(-2, 3), Surd(0, 1, 199, 1)],
                             ids=["pi2", "pi^-2/3", "sqrt:199"])
    def test_sine_budget_adds_the_leading_zeros(self, alpha):
        convs = list(convergents_iter(expand(alpha, 200, PrecisionBudget(60)), 199))
        for budget in (PrecisionBudget(1), PrecisionBudget(60)):
            for conv in convs:
                eps = residual(alpha, conv, budget)
                # |eps| < 1/q, so its first significant digit is at least
                # floor(log10 q) places after the point
                lead = max(0, -_floor_log10(*abs(eps).lo.as_integer_ratio()))
                assert lead >= _floor_log10(conv.q)
                assert _sine_budget(eps, budget) == PrecisionBudget(
                    budget.digits + lead, budget.guard, budget.cap)

    def test_sine_budget_of_an_exact_zero(self):
        eps = residual(DecimalLiteral("0.5"), Convergent(1, 1, 2), PrecisionBudget(20))
        assert _sine_budget(eps, PrecisionBudget(20)) == PrecisionBudget(20)


class TestSineProbe:
    def test_row_6_identity(self):
        # |sin(pi^3 q)| and |sin(pi (pi^2 q - p))| enclose the same number
        row = sine_probe(PI2, Convergent(5, 10748, 1089), PrecisionBudget(60))
        assert row.sin_direct.overlaps(row.sin_reduced)
        diff = abs(row.sin_direct.midpoint - row.sin_reduced.midpoint)
        assert diff < Fraction(1, 10 ** 30)
        with mp.workdps(80):
            ref = Fraction(mp.nstr(abs(mp.sin(mp.pi ** 3 * 1089)), 50))
        assert row.sin_direct.lo - Fraction(1, 10 ** 40) <= ref
        assert ref <= row.sin_direct.hi + Fraction(1, 10 ** 40)

    def test_row_3_values(self):
        row = sine_probe(PI2, Convergent(2, 69, 7), PrecisionBudget(60))
        with mp.workdps(60):
            eps_ref = 7 * mp.pi ** 2 - 69
            assert abs(Fraction(mp.nstr(eps_ref, 30)) - row.epsilon.midpoint) < Fraction(1, 10 ** 20)
            sin_ref = Fraction(mp.nstr(abs(mp.sin(mp.pi * eps_ref)), 30))
            assert abs(sin_ref - row.sin_reduced.midpoint) < Fraction(1, 10 ** 20)
            unscaled_ref = Fraction(mp.nstr(abs(mp.sin(eps_ref)), 30))
            assert abs(unscaled_ref - row.sin_unscaled.midpoint) < Fraction(1, 10 ** 20)

    def test_rational_zero_probes(self):
        row = sine_probe(DecimalLiteral("0.5"), Convergent(1, 1, 2), PrecisionBudget(20))
        assert row.epsilon.is_zero()
        assert row.sin_reduced.is_zero() and row.sin_unscaled.is_zero()
        assert row.sin_direct is None

    def test_direct_only_for_pi_squared(self):
        row = sine_probe(Surd(0, 1, 2, 1), Convergent(1, 3, 2), PrecisionBudget(30))
        assert row.sin_direct is None
        assert not row.sin_reduced.straddles_zero()


class TestEnvelope:
    def test_zero_point(self):
        assert envelope_check(CertifiedReal.point(0)) is True

    def test_sharp_point_half_pi(self):
        half_pi = pi_interval(40) * Fraction(1, 2)
        assert envelope_check(half_pi, PrecisionBudget(30)) is True

    def test_beyond_half_pi_rejected(self):
        with pytest.raises(PrecisionError):
            envelope_check(CertifiedReal.point(2), PrecisionBudget(30))

    def test_resolution_past_the_cap_is_a_precision_error(self):
        # a z 10^-999999 wide asks its sine for 999,997 digits, plus 10 guard
        z = CertifiedReal(0, Fraction(1, 10 ** 999_999))
        with pytest.raises(PrecisionError, match="^sine needs 999997 digits "
                                                 "\\+ guard 10, past the precision "
                                                 "cap 1000000$"):
            envelope_check(z)

    def test_resolution_without_a_lowest_terms_width(self, monkeypatch):
        # the default budget reads z's resolution off its own denominator
        def no_width(self):
            raise AssertionError("width builds a lowest-terms Fraction")

        monkeypatch.setattr(CertifiedReal, "width", property(no_width))
        low = Fraction(1, 10)
        assert envelope_check(CertifiedReal(low, low + Fraction(3, 10 ** 45))) is True
        assert envelope_check(CertifiedReal.point(Fraction(1, 7))) is True
        self.test_resolution_past_the_cap_is_a_precision_error()

    def test_interior_points_strict(self):
        budget = PrecisionBudget(40)
        pi = pi_interval(60)
        for value in (Fraction(1, 10), Fraction(87, 1000), Fraction(14, 10)):
            z = CertifiedReal.point(value)
            assert envelope_check(z, budget) is True
            # strict numeric certificate away from the sharp points
            from cfcert import sin_certified
            sin_abs = abs(sin_certified(z, budget))
            scaled = abs(z) * CertifiedReal(2 / pi.hi, 2 / pi.lo)
            assert scaled.hi <= sin_abs.lo
            assert sin_abs.hi <= abs(z).lo


class TestBoundCheck:
    def test_pi2_rows_all_certified(self, pi2_rows):
        rows, convs = pi2_rows
        for row in rows[1:]:  # classical bounds hold from the second convergent
            assert row.lower_bound_ok and row.upper_bound_ok
        assert all(r.envelope_ok for r in rows)

    def test_reduction_identity_all_rows(self, pi2_rows):
        rows, _ = pi2_rows
        for row in rows:
            assert row.sin_direct.overlaps(row.sin_reduced)
            diff = abs(row.sin_direct.midpoint - row.sin_reduced.midpoint)
            assert diff < Fraction(1, 10 ** 40)

    def test_fabricated_non_convergent_fails_upper(self):
        budget = PrecisionBudget(40)
        fake = Convergent(2, 22, 7)  # a fine pi convergent, not one of pi^2
        row = sine_probe(PI2, fake, budget)
        # |eps| = |7 pi^2 - 22| ~ 47 is past the envelope's domain, so the
        # flags come from the bound test that both table paths run
        _, upper = _bound_flags(row.abs_epsilon, fake, Convergent(3, 79, 8))
        assert upper is False

    def test_flags_certified_both_ways(self):
        cur, nxt = Convergent(2, 1, 1), Convergent(3, 6, 7)
        # 1/8 < |eps| is certain and |eps| < 1/7 certainly violated
        decided = CertifiedReal(Fraction(1, 7), Fraction(1, 6))
        assert _bound_flags(decided, cur, nxt) == (True, False)
        # an enclosure holding 1/7 or 1/8 decides neither way
        for lo, hi in (("1/10", "1/5"), ("1/9", "2/15")):
            with pytest.raises(PrecisionError, match="row 3"):
                _bound_flags(CertifiedReal(Fraction(lo), Fraction(hi)), cur, nxt)

    def test_golden_ratio_rows(self):
        budget = PrecisionBudget(60)
        golden = Surd(1, 1, 5, 2)
        quotients = expand(golden, 20, budget)
        convs = convergents_iter(quotients, 19)
        pairs = probe_table(golden, convs, budget)
        for row, _ in pairs[1:]:
            assert row.lower_bound_ok and row.upper_bound_ok


class TestTwoSidedResidualInvariant:
    def test_bracket_certified(self, pi2_rows):
        rows, convs = pi2_rows
        for i, row in enumerate(rows):
            if i < 1:
                continue
            nxt = convs[i + 1]
            assert row.abs_epsilon.certainly_less_than(Fraction(1, nxt.q))
            assert row.abs_epsilon.certainly_greater_than(
                Fraction(1, convs[i].q + nxt.q))


class TestProbeTableFlags:
    def test_flags_match_bound_check_pi2_30_rows(self):
        budget = PrecisionBudget(60)
        convs = convergents_iter(expand(PI2, 31, budget), 30)
        # the probe path and the verify path give the same three flags
        pairs = probe_table(PI2, convs, budget)
        assert len(pairs) == 30
        assert ([(r.lower_bound_ok, r.upper_bound_ok, r.envelope_ok) for r, _ in pairs]
                == bound_check(PI2, convs, budget))

    @pytest.mark.parametrize("alpha", [PI2, DecimalLiteral("3")], ids=["pi2", "lit:3"])
    def test_no_rows_without_a_successor(self, alpha):
        convs = convergents_iter(expand(alpha, 1, PrecisionBudget(60)), 0)
        assert len(convs) == 1
        assert probe_table(alpha, convs) == []
        assert bound_check(alpha, convs) == []


class TestBeyondIntStrLimit:
    def test_envelope_of_huge_width_denominator(self):
        lo = Fraction(1, 1000)
        z = CertifiedReal(lo, lo + Fraction(1, 10 ** 5000))
        assert envelope_check(z) is True
