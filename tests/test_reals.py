"""Kernel tests: constant enclosures, directed rounding, certified sine."""

from fractions import Fraction
from math import isqrt

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfcert.reals as reals
from cfcert import (
    CertifiedReal,
    DecimalLiteral,
    PiPower,
    PrecisionBudget,
    PrecisionError,
    Surd,
    eval_constant,
    sin_certified,
)
from cfcert.reals import (
    _floor_log10,
    escalate,
    exp_certified,
    ln_certified,
    pi_interval,
)

from reference_data import PI2_30, PI_50, SQRT2_20


def agrees(iv: CertifiedReal, oracle, sig: int) -> bool:
    """Whether the enclosure is consistent with an oracle value known to
    ``sig`` significant digits (the oracle string is rounded, so the
    comparison allows one unit of its own resolution)."""
    with mp.workdps(sig + 15):
        ref = Fraction(mp.nstr(mp.mpf(oracle) if not isinstance(oracle, mp.mpf)
                               else oracle, sig, strip_zeros=False))
    tol = abs(ref) * Fraction(1, 10 ** (sig - 2))
    return iv.lo - tol <= ref <= iv.hi + tol


class TestEvalConstant:
    def test_pi_squared_30_digits(self):
        iv = eval_constant(PiPower(2, 1), PrecisionBudget(30))
        assert iv.width <= Fraction(1, 10 ** 30)
        # reference digits truncated at 30 places: value in [ref, ref + ulp)
        ref = Fraction(PI2_30)
        assert iv.lo <= ref + Fraction(1, 10 ** 30)
        assert iv.hi >= ref

    def test_pi_squared_against_oracle(self):
        iv = eval_constant(PiPower(2, 1), PrecisionBudget(60))
        with mp.workdps(90):
            assert agrees(iv, mp.pi ** 2, 80)

    def test_decimal_literal_exact(self):
        iv = eval_constant(DecimalLiteral("0.5"), PrecisionBudget(10))
        assert iv.lo == iv.hi == Fraction(1, 2)

    def test_sqrt2_integer_root_oracle(self):
        iv = eval_constant(Surd(0, 1, 2, 1), PrecisionBudget(20))
        root = isqrt(2 * 10 ** 40)  # sqrt(2) lies in [root, root+1) * 10^-20
        assert iv.lo <= Fraction(root + 1, 10 ** 20)
        assert iv.hi >= Fraction(root, 10 ** 20)
        assert Fraction(SQRT2_20) == Fraction(root, 10 ** 20)
        assert iv.width <= Fraction(1, 10 ** 20)

    def test_pi_50_digit_reference(self):
        iv = eval_constant(PiPower(1, 1), PrecisionBudget(50))
        ref = Fraction(PI_50)  # truncated: pi in [ref, ref + ulp)
        assert iv.lo <= ref + Fraction(1, 10 ** 50)
        assert iv.hi >= ref
        assert iv.width <= Fraction(1, 10 ** 50)

    def test_negative_and_fractional_powers(self):
        inv = eval_constant(PiPower(-1, 1), PrecisionBudget(30))
        with mp.workdps(60):
            assert agrees(inv, 1 / mp.pi, 45)
        root = eval_constant(PiPower(1, 2), PrecisionBudget(30))
        with mp.workdps(60):
            assert agrees(root, mp.sqrt(mp.pi), 45)

    def test_surd_affine_form(self):
        golden = eval_constant(Surd(1, 1, 5, 2), PrecisionBudget(40))
        with mp.workdps(70):
            assert agrees(golden, (1 + mp.sqrt(5)) / 2, 55)
        negated = eval_constant(Surd(-3, -2, 7, 4), PrecisionBudget(40))
        with mp.workdps(70):
            assert agrees(negated, (-3 - 2 * mp.sqrt(7)) / 4, 55)

    def test_nested_refinement(self):
        coarse = eval_constant(PiPower(2, 1), PrecisionBudget(20))
        fine = eval_constant(PiPower(2, 1), PrecisionBudget(60))
        widened = CertifiedReal(fine.lo - Fraction(1, 10 ** 20),
                                fine.hi + Fraction(1, 10 ** 20))
        assert widened.contains_interval(coarse)
        assert coarse.overlaps(fine)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            Surd(1, 1, 9, 2)  # 9 is a perfect square
        with pytest.raises(ValueError):
            Surd(1, 1, 5, 0)  # zero denominator
        with pytest.raises(ValueError):
            Surd(1, 0, 5, 2)  # rational disguise
        with pytest.raises(ValueError):
            DecimalLiteral("1/3")
        with pytest.raises(ValueError):
            PiPower(1, 0)

    def test_cap_enforced(self):
        with pytest.raises(PrecisionError):
            eval_constant(PiPower(2, 1), PrecisionBudget(40, guard=10, cap=51))

    def test_pi_power_normalised_to_lowest_terms(self):
        assert PiPower(4, 2) == PiPower(2, 1)
        assert PiPower(-2, 4) == PiPower(-1, 2)
        a = eval_constant(PiPower(4, 2), PrecisionBudget(30))
        b = eval_constant(PiPower(2, 1), PrecisionBudget(30))
        assert a == b


class TestKeptConstants:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=500), st.sampled_from([-1, 1]),
           st.integers(min_value=1, max_value=3000))
    @example(2, 1, 3000)
    @example(500, -1, 1)
    def test_arc_series_matches_oracle(self, m, sign, scale):
        lo, hi = reals._arc_inv_fx(m, sign, scale)
        with mp.workdps(scale + 30):
            x = mp.atan(mp.mpf(1) / m) if sign < 0 else mp.atanh(mp.mpf(1) / m)
            assert lo <= x * 10 ** scale <= hi
        assert hi - lo <= 5

    @pytest.mark.parametrize("scale, kept", [(761, 1538), (762, 770), (763, 771)])
    def test_pi_cell_at_feynman_point(self, monkeypatch, scale, kept):
        # six 9s from decimal 762 on: the enclosure at scale + 8 cannot decide
        # the cell at 761, which takes a second one at twice that scale
        monkeypatch.setattr(reals, "_KEPT", {})
        cell = pi_interval(scale)
        assert cell.width == Fraction(1, 10 ** scale)
        with mp.workdps(scale + 20):
            assert cell.lo == Fraction(int(mp.floor(mp.pi * 10 ** scale)), 10 ** scale)
        assert reals._KEPT[(reals._pi_fx,)][0] == kept

    def test_results_independent_of_history(self, monkeypatch):
        monkeypatch.setattr(reals, "_KEPT", {})
        spec, budget = PiPower(3, 2), PrecisionBudget(40)
        before = pi_interval(50), eval_constant(spec, budget)
        pi_interval(20_000)
        # pi^(3/2) again, now cut from the 20,000-digit pi
        del reals._KEPT[(reals._spec_fx, spec)]
        assert (pi_interval(50), eval_constant(spec, budget)) == before


class TestBudget:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PrecisionBudget(0)
        with pytest.raises(ValueError):
            PrecisionBudget(5, guard=-1)
        assert PrecisionBudget(30, guard=7).working == 37

    def test_escalated_respects_cap(self):
        b = PrecisionBudget(100, guard=0, cap=150)
        with pytest.raises(PrecisionError):
            b.escalated()


class TestSine:
    def test_zero(self):
        z = CertifiedReal.point(0)
        assert sin_certified(z, PrecisionBudget(10)).is_zero()

    def test_half_pi(self):
        half_pi = pi_interval(40) * Fraction(1, 2)
        out = sin_certified(half_pi, PrecisionBudget(20))
        assert out.contains(1)
        assert out.width <= Fraction(1, 10 ** 18)

    def test_monotone_branch_endpoints(self):
        x = CertifiedReal(Fraction(3, 10), Fraction(3, 10) + Fraction(1, 10 ** 25))
        out = sin_certified(x, PrecisionBudget(20))
        with mp.workdps(50):
            lo_ref = Fraction(mp.nstr(mp.sin(mp.mpf(3) / 10), 35))
        # lower endpoint is the sine of the lower input up to a few ulps
        # (oracle string resolution dominates the comparison)
        assert abs(out.lo - lo_ref) <= Fraction(1, 10 ** 33)

    def test_output_width_contract(self):
        x = eval_constant(PiPower(3, 1), PrecisionBudget(40))
        out = sin_certified(x, PrecisionBudget(40))
        assert out.width <= Fraction(1, 10 ** 38)

    def test_large_argument_reduction(self):
        # sin(pi^3 * q) for a 4-digit q, against the oracle
        budget = PrecisionBudget(40)
        x = eval_constant(PiPower(3, 1), PrecisionBudget(50)) * 1089
        out = sin_certified(x, budget)
        with mp.workdps(80):
            assert agrees(out, mp.sin(mp.pi ** 3 * 1089), 60)

    @pytest.mark.parametrize("side", [1, -1])
    def test_extremum_runs_kernel_once_per_endpoint(self, monkeypatch, side):
        budget = PrecisionBudget(30)
        scale = budget.working + 1 + 8  # sin_certified's scale for |x| < 10
        pi = pi_interval(scale)
        half_pi = pi_interval(60).lo / 2
        x = CertifiedReal(half_pi - Fraction(1, 10 ** 40),
                          half_pi + Fraction(1, 10 ** 40)) * side

        def endpoint_sine(e):
            # the rule this replaced: a sine over pi -+ e, two kernel runs
            if e > pi.lo / 2:
                return reals._sin_monotone(pi - CertifiedReal.point(e), scale)
            if e < -pi.lo / 2:
                return -reals._sin_monotone(pi + CertifiedReal.point(e), scale)
            return reals._sin_monotone(CertifiedReal.point(e), scale)

        a, b = endpoint_sine(x.lo), endpoint_sine(x.hi)
        expected = (CertifiedReal(min(a.lo, b.lo), Fraction(1)) if side > 0
                    else CertifiedReal(Fraction(-1), max(a.hi, b.hi)))

        calls = []
        original = reals._sin_point_fx

        def counted(v, s):
            calls.append(v)
            return original(v, s)

        monkeypatch.setattr(reals, "_sin_point_fx", counted)
        assert sin_certified(x, budget) == expected
        assert len(calls) == 2

    def test_wide_input_rejected(self):
        x = CertifiedReal(Fraction(0), Fraction(1, 2))
        with pytest.raises(PrecisionError):
            sin_certified(x, PrecisionBudget(10))

    @settings(max_examples=30, deadline=None)
    @given(st.fractions(min_value=-50, max_value=50))
    def test_point_sine_matches_oracle(self, t):
        out = sin_certified(CertifiedReal.point(t), PrecisionBudget(25))
        with mp.workdps(60):
            ref = mp.sin(mp.mpf(t.numerator) / t.denominator)
            assert agrees(out, ref, 45)


class TestLogExp:
    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 1000), max_value=1000))
    # the ends of the mantissa range [2/3, 4/3) of the ln reduction
    @example(Fraction(2, 3) * Fraction(2) ** -40)
    @example(Fraction(2, 3))
    @example(Fraction(2, 3) * Fraction(2) ** 40)
    @example(Fraction(4, 3) * Fraction(2) ** -40)
    @example(Fraction(4, 3))
    @example(Fraction(4, 3) * Fraction(2) ** 40)
    def test_ln_matches_oracle(self, x):
        if x <= 0:
            return
        out = ln_certified(CertifiedReal.point(x), 30)
        with mp.workdps(60):
            assert agrees(out, mp.log(mp.mpf(x.numerator) / x.denominator), 40)

    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=-20, max_value=20))
    def test_exp_matches_oracle(self, y):
        out = exp_certified(CertifiedReal.point(y), 30)
        with mp.workdps(60):
            assert agrees(out, mp.exp(mp.mpf(y.numerator) / y.denominator), 40)

    def test_ln_exp_roundtrip(self):
        x = CertifiedReal.point(Fraction(7))
        back = exp_certified(ln_certified(x, 40), 40)
        assert back.contains(7)
        assert back.width < Fraction(1, 10 ** 30)

    @pytest.mark.parametrize("evaluate, kernel, x", [
        (lambda x: ln_certified(x, 40), "_ln_point_fx", Fraction(6462326841763)),
        (lambda x: exp_certified(x, 40), "_exp_point_fx", Fraction(-7, 3)),
        (lambda x: sin_certified(x, PrecisionBudget(30)), "_sin_point_fx",
         Fraction(1, 3)),
    ], ids=["ln", "exp", "sin"])
    def test_point_runs_kernel_once(self, monkeypatch, evaluate, kernel, x):
        calls = []
        original = getattr(reals, kernel)

        def counted(v, scale):
            calls.append(scale)
            return original(v, scale)

        monkeypatch.setattr(reals, kernel, counted)
        out = evaluate(CertifiedReal.point(x))
        assert len(calls) == 1
        # the same enclosure as the kernel's lower and upper bounds at x
        lo, hi = original(x, calls[0])
        assert out == CertifiedReal.from_fixed(lo, hi, calls[0])


class TestIntervalArithmetic:
    @settings(max_examples=50, deadline=None)
    @given(st.fractions(min_value=-100, max_value=100),
           st.fractions(min_value=0, max_value=1),
           st.fractions(min_value=-100, max_value=100),
           st.fractions(min_value=0, max_value=1))
    def test_mul_soundness(self, a, wa, b, wb):
        x = CertifiedReal(a, a + wa)
        y = CertifiedReal(b, b + wb)
        prod = x * y
        for xi in (x.lo, x.hi, x.midpoint):
            for yi in (y.lo, y.hi, y.midpoint):
                assert prod.contains(xi * yi)

    def test_reciprocal_requires_nonzero(self):
        with pytest.raises(ZeroDivisionError):
            CertifiedReal(Fraction(-1), Fraction(1)).reciprocal()

    def test_outward_rounding_contains(self):
        x = CertifiedReal(Fraction(1, 3), Fraction(2, 3))
        r = x.outward(5)
        assert r.contains_interval(x)
        assert r.lo.denominator <= 10 ** 5 and r.hi.denominator <= 10 ** 5


class TestEscalate:
    def test_returns_first_success(self):
        seen = []

        def attempt(b):
            seen.append(b.working)
            if len(seen) < 3:
                raise PrecisionError("not yet")
            return b

        out = escalate(attempt, PrecisionBudget(30))
        assert seen == [40, 80, 160]
        assert out.working == 160

    def test_doubles_working_keeping_guard_and_cap(self):
        b = PrecisionBudget(30, guard=7, cap=500).escalated()
        assert (b.digits, b.guard, b.cap, b.working) == (67, 7, 500, 74)

    def test_cap_raises_once_with_last_certified_count(self):
        seen = []

        def attempt(b):
            seen.append(b.working)
            raise PrecisionError(f"short at {b.working}", certified_count=len(seen))

        with pytest.raises(PrecisionError) as exc_info:
            escalate(attempt, PrecisionBudget(30, cap=10_000))
        assert seen == [40 * 2 ** k for k in range(8)]  # 40 ... 5120
        assert exc_info.value.certified_count == 8
        assert "short at 5120" in str(exc_info.value)
        assert "cap 10000" in str(exc_info.value)

    def test_other_errors_not_retried(self):
        seen = []

        def attempt(b):
            seen.append(b)
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            escalate(attempt, PrecisionBudget(30))
        assert len(seen) == 1


class TestBeyondIntStrLimit:
    """Endpoints with more digits than Python's int-to-str limit (4300)."""

    def test_ln_of_huge_endpoint(self):
        tiny = Fraction(1, 10 ** 5000)
        out = ln_certified(CertifiedReal.point(1 + tiny), 30)
        # 0 < ln(1 + tiny) < tiny
        assert out.lo <= 0 and tiny <= out.hi
        assert out.width < Fraction(1, 10 ** 25)

    @settings(max_examples=50, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10 ** 30), max_value=10 ** 30),
           st.integers(min_value=-60, max_value=60))
    def test_floor_log10_exact(self, x, shift):
        x *= Fraction(10) ** shift
        if x <= 0:
            return
        k = _floor_log10(x)
        assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1)

    def test_floor_log10_powers_of_ten(self):
        for k in (-6000, -400, -3, 0, 1, 4400):
            assert _floor_log10(Fraction(10) ** k) == k
