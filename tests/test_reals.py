"""Kernel tests: constant enclosures, directed rounding, certified sine."""

import copy
import operator
import re
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import ceil, floor, isqrt, log
from unittest.mock import patch

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfcert.reals as reals
from cfcert import (
    CertifiedReal,
    Convergent,
    DecimalLiteral,
    Mat2,
    PartialQuotients,
    PiPower,
    PrecisionBudget,
    PrecisionError,
    Surd,
    bound_check,
    envelope_check,
    eval_constant,
    expand,
    fib_power,
    lagrange,
    measure_table,
    mu_n,
    mu_table,
    probe_table,
    residual,
    sin_certified,
    sine_probe,
    surd_expand,
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
        with pytest.raises(ValueError, match="discriminant -3 is negative"):
            Surd(0, 1, -3, 1)  # sqrt(-3) is not real, and -3 is no square
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


def machin_arctan_fx(m: int, scale: int) -> tuple[int, int]:
    """atan(1/m) as a directed pair: the Machin kernel that Chudnovsky's
    replaced, kept as an independent reference for pi."""
    def split(a, b):
        if b - a == 1:
            return m * m, 2 * a + 1, m * m
        c = (a + b) // 2
        q1, d1, t1 = split(a, c)
        q2, d2, t2 = split(c, b)
        return q1 * q2, d1 * d2, t1 * d2 * q2 + (-1) ** (c - a) * d1 * t2

    n = 1 + int(scale * log(10) / (2 * log(m)))
    q, d, t = split(0, n)
    num, den = t * 10 ** scale, m * d * q
    tail = -(-2 * 10 ** scale // ((2 * n + 1) * m * q))
    return num // den - tail, -(-num // den) + tail


@lru_cache(maxsize=1)
def machin_pi_fx(scale: int) -> tuple[int, int]:
    """pi = 16 atan(1/5) - 4 atan(1/239), directed."""
    a5, a239 = machin_arctan_fx(5, scale), machin_arctan_fx(239, scale)
    return 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]


def machin_floor(scale: int) -> int:
    """floor(pi 10^scale), scale <= 20,000, cut from one Machin enclosure
    at 20,050 digits."""
    lo, hi = machin_pi_fx(20_050)
    d = 10 ** (20_050 - scale)
    assert lo // d == hi // d
    return lo // d


class TestKeptConstants:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=3000))
    @example(2, 3000)
    @example(500, 1)
    def test_arc_series_matches_oracle(self, m, scale):
        lo, hi = reals._arc_inv_fx(m, scale)
        with mp.workdps(scale + 30):
            assert lo <= mp.atanh(mp.mpf(1) / m) * 10 ** scale <= hi
        assert hi - lo <= 5

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=6000))
    @example(1)
    @example(6000)
    def test_pi_kernel_encloses_pi(self, scale):
        # Chudnovsky's pair is 3 ulps wide: (f - 1, f + 2) around pi 10^scale
        lo, hi = reals._pi_fx(scale)
        with mp.workdps(scale + 30):
            assert lo < mp.pi * 10 ** scale < hi
        assert hi - lo == 3

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=20_000))
    @example(20_000)
    @example(761)
    def test_pi_cells_equal_machins(self, scale):
        with patch.dict(reals._KEPT, clear=True):  # the cell from Chudnovsky at scale + 8
            cell = pi_interval(scale)
        f = machin_floor(scale)
        assert (cell.lo_num, cell.hi_num, cell.den) == (f, f + 1, 10 ** scale)

    @pytest.mark.parametrize("scale, kept", [(761, 769), (762, 770), (763, 771)])
    def test_pi_cell_at_feynman_point(self, monkeypatch, scale, kept):
        # six 9s at decimals 762-767, then 8 and 3: the 3-ulp enclosure at
        # scale + 8 decides the cell at 761 (a Machin one 60 ulps wide did
        # not).  Only seven 9s or seven 0s in a row after the cell's last
        # digit leave that enclosure undecided, and neither run occurs among
        # pi's first 300,000 decimals: from an empty store no cell there
        # takes a second enclosure
        monkeypatch.setattr(reals, "_KEPT", {})
        cell = pi_interval(scale)
        assert cell.width == Fraction(1, 10 ** scale)
        with mp.workdps(scale + 20):
            assert cell.lo == Fraction(int(mp.floor(mp.pi * 10 ** scale)), 10 ** scale)
        assert reals._KEPT[(reals._pi_fx,)][0] == kept

    @pytest.mark.parametrize("scale, kept", [(760, 767), (761, 1534), (766, 1534),
                                             (767, 1534)])
    def test_pi_cell_from_a_kept_enclosure(self, monkeypatch, scale, kept):
        # the enclosure kept at 767 ends in the six 9s, so it cannot decide
        # the cells at 761-766, and one at scale 767 itself decides none:
        # each takes a second enclosure at twice 767.  The cell at 760 ends
        # on 4999999 and is cut from the kept one
        monkeypatch.setattr(reals, "_KEPT", {})
        pi_interval(759)
        assert reals._KEPT[(reals._pi_fx,)][0] == 767
        cell = pi_interval(scale)
        with mp.workdps(scale + 20):
            f = int(mp.floor(mp.pi * 10 ** scale))
        assert (cell.lo_num, cell.hi_num, cell.den) == (f, f + 1, 10 ** scale)
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

    @pytest.mark.parametrize("args, field", [
        ((60.5,), "digits"), ((60.0,), "digits"), ((Decimal(60),), "digits"),
        (("60",), "digits"), ((True,), "digits"), ((60, 1.5), "guard"),
        ((60, 10, 1e6), "cap"),
    ])
    def test_fields_are_ints(self, args, field):
        # a float budget once reached eval_constant, which died with OverflowError
        with pytest.raises(TypeError, match=f"^{field} must be an int, not "):
            PrecisionBudget(*args)

    def test_escalated_respects_cap(self):
        seen = []

        def attempt(b):
            seen.append(b)
            raise PrecisionError("short")

        b = PrecisionBudget(100, guard=0, cap=150)
        with pytest.raises(PrecisionError):
            escalate(attempt, b)
        assert seen == [b]  # doubling to 200 would pass the cap


_ORACLE_DPS = 300  # mpmath digits for sine-interval centres and oracles


def exact(x: mp.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man if x >= 0 else -man) * Fraction(2) ** exp


def as_mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


@st.composite
def sine_intervals(draw):
    """(x, budget): an interval near an extremum +-pi/2 + 2 pi j, near a zero
    j pi, of magnitude up to 10^15, or elsewhere; 0 or 10^-(digits+1) down
    to 10^-(digits+25) wide."""
    digits = draw(st.integers(5, 80))
    kind = draw(st.sampled_from(["extremum", "zero", "large", "generic"]))
    j = draw(st.integers(-10 ** 14, 10 ** 14))
    with mp.workdps(_ORACLE_DPS):
        if kind == "extremum":
            centre = exact(draw(st.sampled_from([1, -1])) * mp.pi / 2 + 2 * mp.pi * j)
        elif kind == "zero":
            centre = exact(mp.pi * j)
        elif kind == "large":
            centre = Fraction(draw(st.integers(-10 ** 15, 10 ** 15)),
                              draw(st.integers(1, 10 ** 6)))
        else:
            centre = draw(st.fractions(-10, 10, max_denominator=10 ** 6))
    if kind in ("extremum", "zero"):
        centre += Fraction(draw(st.integers(-1000, 1000)),
                           10 ** draw(st.integers(0, digits + 30)))
    width = draw(st.sampled_from(
        [Fraction(0)] + [Fraction(1, 10 ** (digits + e)) for e in range(1, 26)]))
    return CertifiedReal(centre - width / 2, centre + width / 2), PrecisionBudget(digits)


@st.composite
def small_sine_args(draw):
    """(x, budget): max |x| <= 3/2 over a random, unreduced denominator,
    no wider than ``sin_certified`` accepts at ``budget``."""
    digits = draw(st.integers(1, 60))
    den = draw(st.integers(1, 10 ** 40))
    reach = 3 * den // 2
    lo = draw(st.integers(-reach, reach))
    hi = draw(st.integers(lo, min(reach, lo + 20 * den // 10 ** digits)))
    return reals._iv(lo, hi, den), PrecisionBudget(digits)


def ref_reduced_sine(x: CertifiedReal, budget: PrecisionBudget) -> CertifiedReal:
    """``sin_certified`` as it was when every argument took pi's cell and
    the reduction modulo pi, k = 0 included."""
    if x.is_zero():
        return CertifiedReal.point(0)
    magnitude = max(-x.lo_num, x.hi_num) // x.den
    mag_digits = _floor_log10(magnitude) + 1 if magnitude >= 1 else 1
    scale = budget.working + mag_digits + 8
    if (x.hi_num - x.lo_num) * 10 ** budget.digits > 20 * x.den:
        raise PrecisionError("input interval too wide to certify sine")
    pi = pi_interval(scale)
    x_lo, x_hi, pi_lo, pi_hi, den = reals._aligned(x, pi)
    mid, width, tau = x_lo + x_hi, x_hi - x_lo, pi_lo + pi_hi
    k = (2 * mid + tau) // (2 * tau)
    mid, width = mid - k * tau, width + abs(k) * (pi_hi - pi_lo)
    d = 10 ** scale
    lo, hi = reals._sin_point_fx((mid, 2 * den), scale)
    least = 0 if lo < 0 < hi else min(abs(lo), abs(hi))
    cos_ulps = isqrt(d * d - least * least) + 1
    h_ulps = -(-width * d // (2 * den))
    slack = -(-h_ulps * (cos_ulps + h_ulps) // d)
    sin_r = reals._iv(max(lo - slack, -d), min(hi + slack, d), d)
    return -sin_r if k % 2 else sin_r


class TestSine:
    @settings(max_examples=150, deadline=None)
    @given(sine_intervals())
    def test_interval_sine_matches_oracle(self, case):
        x, budget = case
        out = sin_certified(x, budget)
        with mp.workdps(_ORACLE_DPS + 20):
            tol = Fraction(1, 10 ** _ORACLE_DPS)  # far below any output ulp
            for e in (x.lo, x.midpoint, x.hi):
                ref = exact(mp.sin(as_mpf(e)))
                assert out.lo - tol <= ref <= out.hi + tol
            # the maximum pi/2 + 2 pi j and minimum -pi/2 + 2 pi j nearest to x
            for side in (1, -1):
                j = mp.nint((as_mpf(x.midpoint) - side * mp.pi / 2) / (2 * mp.pi))
                if x.lo <= exact(side * mp.pi / 2 + 2 * mp.pi * j) <= x.hi:
                    assert out.contains(side)
        w = x.width
        assert out.width <= w + w * w + Fraction(1, 10 ** budget.working)

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
    def test_extremum_runs_kernel_once(self, monkeypatch, side):
        budget = PrecisionBudget(30)
        half_pi = pi_interval(60).lo / 2
        x = CertifiedReal(half_pi - Fraction(1, 10 ** 40),
                          half_pi + Fraction(1, 10 ** 40)) * side

        calls = []
        original = reals._sin_point_fx

        def counted(v, s):
            calls.append(v)
            return original(v, s)

        monkeypatch.setattr(reals, "_sin_point_fx", counted)
        out = sin_certified(x, budget)
        assert len(calls) == 1
        assert out.contains(side) and -1 <= out.lo <= out.hi <= 1
        with mp.workdps(_ORACLE_DPS):
            assert all(out.contains(exact(mp.sin(as_mpf(e)))) for e in (x.lo, x.hi))
        assert out.width <= Fraction(1, 10 ** budget.working)

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

    @settings(max_examples=200, deadline=None)
    @given(small_sine_args())
    @example((reals._iv(3, 3, 2), PrecisionBudget(20)))
    @example((reals._iv(-3, -3, 2), PrecisionBudget(20)))
    @example((reals._iv(-15, 5, 10), PrecisionBudget(1)))
    def test_no_reduction_matches_reduced_sine(self, case):
        # bit for bit: the same rationals reach the kernel and the radius
        x, budget = case
        got, want = (sin_certified(x, budget), ref_reduced_sine(x, budget))
        assert (got.lo_num, got.hi_num, got.den) == (want.lo_num, want.hi_num, want.den)

    @pytest.mark.parametrize("x", [
        Fraction(3, 2) - Fraction(1, 10 ** 40),
        Fraction(3, 2),
        Fraction(3, 2) + Fraction(1, 10 ** 40),
        -Fraction(3, 2) - Fraction(1, 10 ** 40),
        Fraction(1499, 1000),
        Fraction(1501, 1000),
    ])
    @pytest.mark.parametrize("width", [0, Fraction(1, 10 ** 45)])
    def test_near_three_halves_matches_oracle(self, x, width):
        budget = PrecisionBudget(40)
        iv = CertifiedReal(x - width, x + width)
        out = sin_certified(iv, budget)
        with mp.workdps(_ORACLE_DPS):
            assert all(out.contains(exact(mp.sin(as_mpf(e)))) for e in (iv.lo, iv.hi))
        w = iv.width
        assert out.width <= w + w * w + Fraction(1, 10 ** budget.working)

    @pytest.mark.parametrize("x, calls", [
        (Fraction(7, 5), 0), (Fraction(-3, 2), 0), (Fraction(3, 2), 0),
        (Fraction(8, 5), 1), (Fraction(-8, 5), 1), (Fraction(10 ** 6, 3), 1),
    ])
    def test_pi_formed_only_past_three_halves(self, monkeypatch, x, calls):
        seen = []
        original = reals.pi_interval

        def counted(scale):
            seen.append(scale)
            return original(scale)

        monkeypatch.setattr(reals, "pi_interval", counted)
        sin_certified(CertifiedReal.point(x), PrecisionBudget(30))
        assert len(seen) == calls


def around(mid: Fraction, ratio: Fraction) -> tuple[Fraction, Fraction]:
    """(lo, hi - lo) of the interval with midpoint ``mid`` and hi / lo = ``ratio``."""
    lo = 2 * mid / (1 + ratio)
    return lo, lo * (ratio - 1)


@st.composite
def log_exp_intervals(draw):
    """("ln" or "exp", lo, width, scale): narrow intervals 10^-(scale+1) to
    10^-(scale+25) wide, and wide ones, with hi / lo >= 100 for ln and a
    half-width h >= 1 for exp."""
    kind = draw(st.sampled_from(["ln", "exp"]))
    scale = draw(st.integers(10, 60))
    wide = draw(st.booleans())
    if kind == "ln":
        lo = draw(st.fractions(Fraction(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 9))
        factor = draw(st.fractions(99, 10 ** 4, max_denominator=100))
    else:
        lo = draw(st.fractions(-20, 10, max_denominator=10 ** 9))
        factor = draw(st.fractions(2, 10, max_denominator=100))
    if wide:
        width = lo * factor if kind == "ln" else factor
    else:
        width = Fraction(1, 10 ** (scale + draw(st.integers(1, 25))))
    return kind, lo, width, scale


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

    @pytest.mark.parametrize("lo, hi", [(-70, 0), (0, 70), (-70, 70)])
    def test_exp_refuses_an_end_out_of_range(self, lo, hi):
        # 70 > 30 ln 10 = 69.08, where exp(70) needs 31 digits before the point
        with pytest.raises(PrecisionError, match="out of range"):
            exp_certified(CertifiedReal(lo, hi), 30)
        assert exp_certified(CertifiedReal(lo // 70 * 69, hi // 70 * 69), 30).hi >= 0

    def test_ln_exp_roundtrip(self):
        x = CertifiedReal.point(Fraction(7))
        back = exp_certified(ln_certified(x, 40), 40)
        assert back.contains(7)
        assert back.width < Fraction(1, 10 ** 30)

    @pytest.mark.parametrize("evaluate, kernel, x, width", [
        (lambda x: ln_certified(x, 40), "_ln_point_fx", Fraction(6462326841763), 0),
        (lambda x: exp_certified(x, 40), "_exp_point_fx", Fraction(-7, 3), 0),
        (lambda x: sin_certified(x, PrecisionBudget(30)), "_sin_point_fx",
         Fraction(1, 3), 0),
        (lambda x: ln_certified(x, 40), "_ln_point_fx", Fraction(6462326841763),
         Fraction(1, 10 ** 30)),
        (lambda x: exp_certified(x, 40), "_exp_point_fx", Fraction(-7, 3),
         Fraction(3)),
    ], ids=["ln", "exp", "sin", "ln-interval", "exp-interval"])
    def test_point_runs_kernel_once(self, monkeypatch, evaluate, kernel, x, width):
        calls = []
        original = getattr(reals, kernel)

        def counted(v, scale):
            calls.append(scale)
            return original(v, scale)

        monkeypatch.setattr(reals, kernel, counted)
        out = evaluate(CertifiedReal(x, x + width))
        assert len(calls) == 1
        if width == 0:
            # the same enclosure as the kernel's lower and upper bounds at x
            lo, hi = original(x.as_integer_ratio(), calls[0])
            assert out == reals._iv(lo, hi, 10 ** calls[0])

    @settings(max_examples=40, deadline=None)
    @given(log_exp_intervals())
    # midpoints at the ends of the mantissa range [2/3, 4/3) of the ln
    # reduction, narrow and with hi / lo = 100
    @example(("ln", *around(Fraction(2, 3), 1 + Fraction(1, 10 ** 40)), 30))
    @example(("ln", *around(Fraction(4, 3), 1 + Fraction(1, 10 ** 40)), 30))
    @example(("ln", *around(Fraction(4, 3) * 2 ** 20, 100), 30))
    @example(("ln", *around(Fraction(2, 3) * Fraction(2) ** -20, 100), 30))
    # hi / lo = 1000, and h = 5
    @example(("ln", Fraction(1, 7), Fraction(999, 7), 12))
    @example(("exp", Fraction(-7, 3), Fraction(10), 20))
    def test_intervals_contain_oracle(self, case):
        kind, lo, width, scale = case
        x = CertifiedReal(lo, lo + width)
        evaluate, oracle = {"ln": (ln_certified, mp.log),
                            "exp": (exp_certified, mp.exp)}[kind]
        out = evaluate(x, scale)
        assert out.den == 10 ** scale
        with mp.workdps(2 * scale + 20):
            for e in (x.lo, x.lo + width / 3, x.hi):
                ref = exact(oracle(as_mpf(e)))
                tol = (abs(ref) + 1) / 10 ** (2 * scale)  # far below an ulp
                assert out.lo - tol <= ref <= out.hi + tol
        if kind == "exp":
            assert out.lo >= 0


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


# every public count or scale, as (argument name, call taking it)
COUNT_ARGUMENTS = [
    ("want_terms", lambda v: expand(PiPower(2, 1), v)),
    ("want_terms", lambda v: surd_expand(Surd(0, 1, 2, 1), v)),
    ("rows", lambda v: mu_table(PiPower(2, 1), v)),
    ("rows", lambda v: measure_table(PiPower(2, 1), v)),
    ("scale", pi_interval),
    ("scale", lambda v: ln_certified(CertifiedReal.point(2), v)),
    ("scale", lambda v: exp_certified(CertifiedReal.point(1), v)),
    ("n", fib_power),
]


class TestCountsAreInts:
    """A float or a bool count is refused before any enclosure is kept: a
    kept enclosure at a float scale broke later calls in the process."""

    @pytest.mark.parametrize("value", [2.5, 20.0, True])
    @pytest.mark.parametrize("name, call", COUNT_ARGUMENTS,
                             ids=["expand", "surd_expand", "mu_table", "measure_table",
                                  "pi_interval", "ln_certified", "exp_certified",
                                  "fib_power"])
    def test_refused_with_the_argument_named(self, name, call, value, monkeypatch):
        monkeypatch.setattr(reals, "_KEPT", dict(reals._KEPT))
        kept = dict(reals._KEPT)
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {value!r}$"):
            call(value)
        assert reals._KEPT == kept

    def test_later_calls_unaffected(self, monkeypatch):
        monkeypatch.setattr(reals, "_KEPT", {})
        with pytest.raises(TypeError):
            exp_certified(CertifiedReal.point(1), 20.5)
        assert lagrange(7, 1) == Decimal("0.142857")
        with pytest.raises(TypeError):
            pi_interval(10.5)
        assert pi_interval(10).lo == Fraction(31415926535, 10 ** 10)


class TestSpecFieldsAreInts:
    """A spec's integer fields are ints, checked before their values:
    Surd(Fraction(1, 2), 1, 2, 1) once expanded to (1, 1, 1, 1, 1),
    though 1/2 + sqrt 2 = [1; 1, 10, 1, ...], and a float c to floats."""

    @pytest.mark.parametrize("cls, args, field", [
        (PiPower, (True,), "t"), (PiPower, (2.0,), "t"), (PiPower, (Fraction(2),), "t"),
        (PiPower, (1, True), "s"), (PiPower, (1, 0.0), "s"), (PiPower, (1, "2"), "s"),
        (Surd, (Fraction(1, 2), 1, 2, 1), "a"), (Surd, (0, 0.0, 2, 1), "b"),
        (Surd, (0, 1, 2.0, 1), "d"), (Surd, (0, 1, Decimal(-3), 1), "d"),
        (Surd, (0, 1, 2, 1.0), "c"), (Surd, (0, 1, 2, True), "c"),
    ])
    def test_refused_with_the_field_named(self, cls, args, field):
        value = re.escape(repr(args[cls._fields.index(field)]))
        with pytest.raises(TypeError, match=f"^{field} must be an int, not {value}$"):
            cls(*args)


PI2_CONVS = [Convergent(0, 9, 1), Convergent(1, 10, 1), Convergent(2, 69, 7)]

BUDGET_ARGUMENTS = [
    lambda b: escalate(lambda level: level, b),
    lambda b: eval_constant(PiPower(2), b),
    lambda b: eval_constant(DecimalLiteral("0.5"), b),
    lambda b: sin_certified(CertifiedReal.point(1), b),
    lambda b: sin_certified(CertifiedReal.point(0), b),
    lambda b: expand(PiPower(2), 5, b),
    lambda b: expand(DecimalLiteral("0.5"), 5, b),
    lambda b: residual(PiPower(2), PI2_CONVS[2], b),
    lambda b: mu_n(PiPower(2), PI2_CONVS[2], b),
    lambda b: mu_table(PiPower(2), 3, b),
    lambda b: measure_table(PiPower(2), 3, b),
    lambda b: sine_probe(PiPower(2), PI2_CONVS[2], b),
    lambda b: probe_table(PiPower(2), PI2_CONVS, b),
    lambda b: bound_check(PiPower(2), PI2_CONVS, b),
    lambda b: envelope_check(CertifiedReal.point(1), b),
    lambda b: envelope_check(CertifiedReal.point(0), b),
]


class TestArgumentTypes:
    """Each public entry point names the argument of a wrong type, where an
    int budget once raised "'int' object has no attribute 'working'" and a
    float quotient built a float matrix."""

    @pytest.mark.parametrize("budget", [60, (60, 10, 10 ** 6), "60"])
    @pytest.mark.parametrize("call", BUDGET_ARGUMENTS, ids=[
        "escalate", "eval_constant", "eval_constant-exact", "sin_certified",
        "sin_certified-zero", "expand", "expand-exact", "residual", "mu_n",
        "mu_table", "measure_table", "sine_probe", "probe_table", "bound_check",
        "envelope_check", "envelope_check-zero"])
    def test_budget_is_a_precision_budget(self, call, budget):
        value = re.escape(repr(budget))
        with pytest.raises(TypeError, match=f"^budget must be a PrecisionBudget, not {value}$"):
            call(budget)

    @pytest.mark.parametrize("call, message", [
        (lambda: DecimalLiteral(0.5), "text must be a str, not 0.5"),
        (lambda: DecimalLiteral(Decimal("0.5")), "text must be a str, not Decimal('0.5')"),
        (lambda: Mat2.quotient(1.5), "a must be an int, not 1.5"),
        (lambda: Mat2.quotient(True), "a must be an int, not True"),
        (lambda: PartialQuotients((1, 2.5)), "quotient 1 must be an int, not 2.5"),
        (lambda: PartialQuotients((True, 2)), "quotient 0 must be an int, not True"),
        (lambda: PartialQuotients((1, 2, 0.0)), "quotient 2 must be an int, not 0.0"),
        (lambda: Convergent(1.5, 2, 3), "n must be an int, not 1.5"),
        (lambda: Convergent(0, Fraction(2), 3), "p must be an int, not Fraction(2, 1)"),
        (lambda: Convergent(0, 2, True), "q must be an int, not True"),
        (lambda: Convergent(0, 2, 0.0), "q must be an int, not 0.0"),
        (lambda: Mat2(1.5, 1, 1, 0), "m00 must be an int, not 1.5"),
        (lambda: Mat2(1, 1, True, 0), "m10 must be an int, not True"),
        (lambda: Mat2(1, 0, 0, Fraction(1)), "m11 must be an int, not Fraction(1, 1)"),
        (lambda: PartialQuotients((1, 2), terminated="yes"),
         "terminated must be a bool, not 'yes'"),
        (lambda: PartialQuotients((1, 2), terminated=1), "terminated must be a bool, not 1"),
    ], ids=["literal-float", "literal-decimal", "quotient-float", "quotient-bool",
            "quotients-float", "quotients-bool", "quotients-zero-float",
            "convergent-n", "convergent-p", "convergent-q-bool", "convergent-q-float",
            "matrix-float", "matrix-bool", "matrix-fraction", "terminated-str",
            "terminated-int"])
    def test_refused_with_the_argument_named(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("value", [0.5, 2, Fraction(1, 3), (1, 2)])
    @pytest.mark.parametrize("call, name", [
        (lambda x: sin_certified(x, 60), "x"),
        (lambda x: envelope_check(x, 60), "z"),
        (lambda x: ln_certified(x, 20.0), "x"),
        (lambda x: exp_certified(x, 20.0), "y"),
    ], ids=["sin_certified", "envelope_check", "ln_certified", "exp_certified"])
    def test_interval_is_a_certified_real(self, call, name, value):
        # named before the budget or scale, which is wrong here too
        value_text = re.escape(repr(value))
        with pytest.raises(TypeError, match=f"^{name} must be a CertifiedReal, "
                                            f"not {value_text}$"):
            call(value)

    @pytest.mark.parametrize("conv", [(2, 69, 7), Fraction(69, 7), Mat2(69, 10, 7, 1)],
                             ids=["tuple", "fraction", "matrix"])
    @pytest.mark.parametrize("call", [residual, mu_n, sine_probe])
    def test_conv_is_a_convergent(self, call, conv):
        value_text = re.escape(repr(conv))
        with pytest.raises(TypeError, match=f"^conv must be a Convergent, not {value_text}$"):
            call(PiPower(2), conv, PrecisionBudget(20))

    def test_matrix_product_stays_on_ints(self):
        m = Mat2.quotient(3) @ Mat2.quotient(7) @ Mat2.identity()
        assert m == Mat2(22, 3, 7, 1)
        assert {*map(type, m)} == {int}


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
        seen = []

        def attempt(b):
            seen.append(b)
            if len(seen) < 2:
                raise PrecisionError("not yet")
            return b

        b = escalate(attempt, PrecisionBudget(30, guard=7, cap=500))
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
        k = _floor_log10(*x.as_integer_ratio())
        assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1)

    def test_floor_log10_powers_of_ten(self):
        for k in (-6000, -400, -3, 0, 1, 4400):
            assert _floor_log10(*(Fraction(10) ** k).as_integer_ratio()) == k


# -- the power-of-two Newton start that the top-bits start replaced --------

def ref_iroot(n, k):
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // k) + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@st.composite
def wide_integers(draw, max_bits=20_000):
    """Positive integers whose bit length is drawn first, up to max_bits."""
    bits = draw(st.integers(1, max_bits))
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


class TestIntegerRoots:
    @settings(max_examples=60, deadline=None)
    @given(wide_integers(), st.integers(3, 9))
    @example(0, 3)
    @example((1 << 20_000) - 1, 3)
    @example(1 << 19_999, 9)
    def test_floor_root(self, n, k):
        r = reals._iroot(n, k)
        assert r ** k <= n < (r + 1) ** k
        assert r == ref_iroot(n, k)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_at_and_beside_exact_powers(self, k):
        bases = [*range(1, 300), 2 ** 61 - 1, 10 ** 40, 3 ** 200 + 7, 2 ** 2000 + 1]
        for m in bases:
            for n in (m ** k - 1, m ** k, m ** k + 1):
                assert reals._iroot(n, k) == ref_iroot(n, k)
        for e in [*range(1, 200), 1000, 4999, 20_000]:
            for n in (2 ** e - 1, 2 ** e + 1):
                assert reals._iroot(n, k) == ref_iroot(n, k)


# -- the interval path that evaluated specs before the integer form -------

def ref_root_point_fx(x, scale, k):
    if x[0] <= 0:
        raise ValueError("root of non-positive value")
    r = reals._iroot(x[0] * 10 ** (k * scale) // x[1], k)
    return r, r + 1


def ref_spec_fx(spec, scale):
    if isinstance(spec, PiPower):
        t = abs(spec.t)
        pi = pi_interval(scale + t)
        lo, _ = ref_root_point_fx((pi.lo_num ** t, pi.den ** t), scale, spec.s)
        _, hi = ref_root_point_fx((pi.hi_num ** t, pi.den ** t), scale, spec.s)
        x = reals._iv(lo, hi, 10 ** scale)
        if spec.t < 0:
            x = x.reciprocal()
    else:
        rt = reals._iv(*ref_root_point_fx((spec.d, 1), scale, 2), 10 ** scale)
        x = (rt * spec.b + spec.a) / spec.c
    return reals._directed(x.lo_num * 10 ** scale, x.hi_num * 10 ** scale, x.den)


nonzero = st.integers(-10 ** 6, 10 ** 6).filter(bool)
irrational_specs = st.one_of(
    st.builds(PiPower, st.integers(-12, 12).filter(bool), st.integers(1, 9)),
    st.builds(Surd, st.integers(-10 ** 6, 10 ** 6), nonzero,
              st.integers(2, 10 ** 30 + 1).filter(lambda d: isqrt(d) ** 2 != d),
              nonzero),
)


class TestSpecPairs:
    @settings(max_examples=150, deadline=None)
    @given(irrational_specs, st.integers(1, 300))
    @example(PiPower(7, 4), 4416)
    @example(PiPower(5, 3), 4416)
    @example(PiPower(-2, 3), 4416)
    @example(Surd(-5, 2, 3, -7), 1)
    @example(Surd(0, 1, 10 ** 30 + 1, 1), 300)
    def test_equal_to_the_interval_path(self, spec, scale):
        assert reals._spec_fx(spec, scale) == ref_spec_fx(spec, scale)

    @pytest.mark.parametrize("spec", [PiPower(7, 4), PiPower(-5, 3), PiPower(2),
                                      Surd(1, 1, 5, 2), Surd(-5, 2, 3, -7)])
    def test_builds_no_interval(self, monkeypatch, spec):
        monkeypatch.setattr(reals, "_KEPT", {})  # pi's cell from its kernel
        built, iv = [], reals._iv

        def counted(*args):
            built.append(args)
            return iv(*args)

        monkeypatch.setattr(reals, "_iv", counted)
        reals._spec_fx(spec, 500)
        assert built == []


# -- the Fraction-endpoint formulas that the integer form replaced ---------

def ref_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p), max(p)


def ref_reciprocal(a):
    if a[0] <= 0 <= a[1]:
        raise ZeroDivisionError
    return 1 / a[1], 1 / a[0]


def ref_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return -a[1], -a[0]
    return Fraction(0), max(-a[0], a[1])


REF_BINARY = {
    operator.add: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    operator.sub: lambda a, b: (a[0] - b[1], a[1] - b[0]),
    operator.mul: ref_mul,
    operator.truediv: lambda a, b: ref_mul(a, ref_reciprocal(b)),
}

small_fractions = st.fractions(-50, 50, max_denominator=10 ** 6)


@st.composite
def intervals(draw):
    """Intervals in the three forms the package makes: from Fraction
    endpoints, from a fixed-point pair, and over an unreduced denominator."""
    a = draw(small_fractions)
    b = a if draw(st.booleans()) else draw(small_fractions)
    a, b = min(a, b), max(a, b)
    form = draw(st.sampled_from(["fractions", "fixed", "unreduced"]))
    if form == "fractions":
        return CertifiedReal(a, b)
    if form == "fixed":
        scale = draw(st.integers(0, 30))
        return reals._iv(floor(a * 10 ** scale), ceil(b * 10 ** scale), 10 ** scale)
    den = a.denominator * b.denominator * draw(st.integers(1, 10 ** 12))
    return reals._iv(a.numerator * (den // a.denominator),
                     b.numerator * (den // b.denominator), den)


def ends(x: CertifiedReal) -> tuple[Fraction, Fraction]:
    return x.lo, x.hi


def same_or_both_raise(compute, reference):
    try:
        expected = reference()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            compute()
        return
    assert compute() == expected


class TestIntegerForm:
    """CertifiedReal on integer numerators against the Fraction formulas."""

    @settings(max_examples=200, deadline=None)
    @given(intervals(), intervals(), small_fractions)
    def test_arithmetic_matches_fraction_formulas(self, x, y, c):
        for op, ref in REF_BINARY.items():
            same_or_both_raise(lambda: ends(op(x, y)), lambda: ref(ends(x), ends(y)))
            # a rational operand is its point, on either side
            same_or_both_raise(lambda: ends(op(x, c)), lambda: ref(ends(x), (c, c)))
            same_or_both_raise(lambda: ends(op(c, x)), lambda: ref((c, c), ends(x)))
        assert ends(-x) == (-x.hi, -x.lo)
        assert ends(abs(x)) == ref_abs(ends(x))
        same_or_both_raise(lambda: ends(x.reciprocal()), lambda: ref_reciprocal(ends(x)))

    @settings(max_examples=200, deadline=None)
    @given(intervals(), intervals(), small_fractions)
    def test_predicates_match_fraction_formulas(self, x, y, c):
        lo, hi = ends(x)
        assert x.contains(c) == (lo <= c <= hi)
        assert x.contains_interval(y) == (lo <= y.lo and y.hi <= hi)
        assert x.overlaps(y) == (lo <= y.hi and y.lo <= hi)
        assert x.certainly_less_than(c) == (hi < c)
        assert x.certainly_greater_than(c) == (lo > c)
        assert x.certainly_positive() == (lo > 0)
        assert x.certainly_negative() == (hi < 0)
        assert x.straddles_zero() == (lo < 0 < hi)
        assert x.is_zero() == (lo == 0 == hi)
        assert x.width == hi - lo and x.midpoint == (lo + hi) / 2
        assert (x == y) == (ends(x) == ends(y))

    @settings(max_examples=100, deadline=None)
    @given(intervals(), st.integers(2, 10 ** 20))
    def test_equal_and_hash_by_value(self, x, factor):
        scaled = reals._iv(x.lo_num * factor, x.hi_num * factor, x.den * factor)
        assert scaled == x and hash(scaled) == hash(x)
        assert x + 1 != x

    def test_equal_across_denominators(self):
        half_one = CertifiedReal(Fraction(1, 2), 1)
        fixed = reals._iv(5, 10, 10 ** 1)
        assert (half_one.den, fixed.den) == (2, 10)
        assert half_one == fixed and hash(half_one) == hash(fixed)
        assert repr(fixed) == "CertifiedReal(1/2, 1)"
        assert copy.deepcopy(fixed) == fixed

    def test_immutable(self):
        x = reals._iv(1, 2, 10 ** 3)
        for name in ("lo_num", "hi_num", "den", "lo"):
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, 0)
        with pytest.raises(FrozenInstanceError):
            del x.den
        assert (x.lo_num, x.hi_num, x.den) == (1, 2, 1000)

    def test_floats_refused(self):
        # Fraction(0.1) would enclose the binary value 0.1000000000000000055...
        x = CertifiedReal.point(Fraction(1, 10))
        for call in (lambda: CertifiedReal.point(0.1), lambda: CertifiedReal(0.1, 1),
                     lambda: CertifiedReal(0, 0.5), lambda: x.contains(0.1),
                     lambda: x.certainly_less_than(0.5),
                     lambda: x.certainly_greater_than(0.5), lambda: x + 0.5,
                     lambda: x * 2.0):
            with pytest.raises(TypeError):
                call()

    def test_bools_refused(self):
        # a flag is not a number, as for quotients and budgets
        x = CertifiedReal.point(Fraction(1, 10))
        for call in (lambda: CertifiedReal.point(True), lambda: CertifiedReal(False, 1),
                     lambda: x.contains(True), lambda: x + True, lambda: x * False):
            with pytest.raises(TypeError, match="^bool (True|False) is not a number"):
                call()

    @pytest.mark.parametrize("value", [Decimal("0.1"), "0.1", "1/10", Fraction(1, 10)])
    def test_exact_inputs_accepted(self, value):
        assert CertifiedReal.point(value).contains(Fraction(1, 10))
        assert CertifiedReal(value, 1).contains(Fraction(1, 10))
        assert CertifiedReal.point(3).contains(3)

    @pytest.mark.parametrize("spec", [PiPower(7, 4), PiPower(4, 3), PiPower(-5, 3),
                                      Surd(1, 2, 69, 5)],
                             ids=["pi^7/4", "pi^4/3", "pi^-5/3", "surd"])
    def test_constants_read_no_fraction_view(self, monkeypatch, spec):
        # a lowest-terms view of pi^7's endpoints costs a gcd of 7000-digit
        # numerators: the kernels must read the integer fields only
        budget = PrecisionBudget(1000)
        scale = budget.working + 8 + (abs(spec.t) if isinstance(spec, PiPower) else 0)
        with mp.workdps(scale + 50):
            value = (mp.pi ** (mp.mpf(spec.t) / spec.s) if isinstance(spec, PiPower)
                     else (spec.a + spec.b * mp.sqrt(spec.d)) / spec.c)
            f = int(mp.floor(value * mp.mpf(10) ** scale))

        def refuse(self):
            raise AssertionError("Fraction view read")

        monkeypatch.setattr(reals, "_KEPT", {})
        for view in ("lo", "hi", "width", "midpoint"):
            monkeypatch.setattr(CertifiedReal, view, property(refuse))
        x = eval_constant(spec, budget)
        # the one-ulp cell [f, f + 1] 10^-scale
        assert (x.lo_num, x.hi_num, x.den) == (f, f + 1, 10 ** scale)


# -- the three Taylor loops that the one series routine replaced -----------

def ref_pair_mul(a, b, scale):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    d = 10 ** scale
    return min(p) // d, -(-max(p) // d)


def ref_pair_div_int(a, n):
    return a[0] // n, -(-a[1] // n)


def ref_sin_loop(t, scale):
    neg_t2 = ref_pair_mul(t, t, scale)
    neg_t2 = (-neg_t2[1], -neg_t2[0])
    term = t
    lo, hi = t
    k = 0
    while max(abs(term[0]), abs(term[1])) > 8:
        k += 1
        term = ref_pair_mul(term, neg_t2, scale)
        term = ref_pair_div_int(term, (2 * k) * (2 * k + 1))
        lo += term[0]
        hi += term[1]
    return lo - 64, hi + 64


def ref_exp_loop(t, scale):
    one = 10 ** scale
    term = (one, one)
    lo = hi = one
    k = 0
    while max(abs(term[0]), abs(term[1])) > 8:
        k += 1
        term = ref_pair_mul(term, t, scale)
        term = ref_pair_div_int(term, k)
        lo += term[0]
        hi += term[1]
    return lo - 64, hi + 64


def ref_atanh_loop(z, scale):
    z2 = ref_pair_mul(z, z, scale)
    power = z
    lo, hi = z
    k = 0
    while max(abs(power[0]), abs(power[1])) > 8:
        k += 1
        power = ref_pair_mul(power, z2, scale)
        term = ref_pair_div_int(power, 2 * k + 1)
        lo += term[0]
        hi += term[1]
    return lo - 64, hi + 64


def counted(steps, seen):
    """``steps``, appending each step drawn to the list ``seen``; a series
    that has not ended after 10,000 steps (3,150 at most here) fails."""
    for step in steps:
        seen.append(step)
        assert len(seen) <= 10_000, "the series does not end"
        yield step


def series_sin(t, scale, seen):
    t2 = reals._directed(*reals._hull(*t, *t), 10 ** scale)
    return reals._series_fx(t, (-t2[1], -t2[0]), scale,
                            counted(((2 * i * (2 * i + 1), 1) for i in count(1)), seen))


def series_exp(t, scale, seen):
    one = 10 ** scale
    return reals._series_fx((one, one), t, scale, counted(((i, 1) for i in count(1)), seen))


def series_atanh(z, scale, seen):
    z2 = reals._directed(*reals._hull(*z, *z), 10 ** scale)
    return reals._series_fx(z, z2, scale, counted(((1, 2 * i + 1) for i in count(1)), seen))


# Per step drawn, the series may end up wider than the loop it replaced by
# at most this many ulps: its radius settles at 2 to 4 ulps where a directed
# pair stays 1 to 2 ulps wide (3.1 was the most seen, on exp at scale 29).
ULPS_PER_STEP = 4


def assert_encloses_like(out, ref, steps, scale, f, ends):
    """``out`` and the replaced loop's ``ref`` both hold f(e) 10^scale for e
    in ``ends`` (mpmath at twice the scale), and ``out`` is at most
    ULPS_PER_STEP ulps per step wider than ``ref``."""
    d = 10 ** scale
    with mp.workdps(2 * scale + 10):
        for e in ends:
            true = f(as_mpf(e)) * d
            assert ref[0] <= true <= ref[1]
            assert out[0] <= true <= out[1]
    assert out[1] - out[0] <= ref[1] - ref[0] + ULPS_PER_STEP * steps


class TestOneSeries:
    """The one series routine, in midpoint-radius form and called as the
    kernels call it, against the three loops on directed pairs that it
    replaced, in each series' range: it holds the true value wherever they
    do, at most ULPS_PER_STEP ulps per step wider, and ends within a stated
    number of steps."""

    @settings(max_examples=9, deadline=None)
    @given(st.sampled_from([(series_sin, ref_sin_loop, Fraction(8, 5), mp.sin),
                            (series_exp, ref_exp_loop, Fraction(4, 5), mp.exp),
                            (series_atanh, ref_atanh_loop, Fraction(1, 3), mp.atanh)]),
           st.integers(10, 3000), st.fractions(-1, 1), st.integers(0, 4))
    @example((series_sin, ref_sin_loop, Fraction(8, 5), mp.sin), 3000, Fraction(1), 0)
    @example((series_exp, ref_exp_loop, Fraction(4, 5), mp.exp), 3000, Fraction(-1), 3)
    @example((series_atanh, ref_atanh_loop, Fraction(1, 3), mp.atanh), 3000, Fraction(1), 1)
    # P_1 = (8, 8) is the last power summed: the stop test is |P_k| <= 8
    @example((series_exp, ref_exp_loop, Fraction(4, 5), mp.exp), 10, Fraction(1, 10 ** 9), 0)
    # a ratio 1000 ulps wide: P_1's radius is all |P_0| rho
    @example((series_exp, ref_exp_loop, Fraction(4, 5), mp.exp), 40, Fraction(1, 2), 1000)
    def test_encloses_where_replaced_loops_do(self, series, scale, position, width):
        fused, loop, bound, f = series
        hi = floor(position * bound * 10 ** scale)
        pair = (hi - width, hi) if position > 0 else (hi, hi + width)
        seen = []
        out = fused(pair, scale, seen)
        assert_encloses_like(out, loop(pair, scale), len(seen), scale, f,
                             [Fraction(e, 10 ** scale) for e in pair])

    @settings(max_examples=30, deadline=None)
    @given(st.fractions(Fraction(-8, 5), Fraction(8, 5), max_denominator=10 ** 40),
           st.integers(10, 400))
    def test_sine_kernel_encloses_where_replaced_loop_does(self, x, scale):
        d = 10 ** scale
        t = (floor(x * d), ceil(x * d))
        seen = []
        out = reals._sin_point_fx(x.as_integer_ratio(), scale)
        assert out == series_sin(t, scale, seen)
        assert_encloses_like(out, ref_sin_loop(t, scale), len(seen), scale, mp.sin, [x])

    # The most steps each kernel may draw at ``scale``.  The power falls by
    # the term ratio each step, to at most 8 ulps: by 1/25 or more for ln's
    # atanh (|z| <= 1/5, at scale + 8), by |r| / k <= 0.36 / k for exp (at
    # scale + 12) and by 2.56 / (2k (2k + 1)) for sin.
    STEP_BOUNDS = {
        "_ln_point_fx": lambda scale: 3 * (scale + 8) // 4 + 3,
        "_exp_point_fx": lambda scale: scale // 2 + 20,
        "_sin_point_fx": lambda scale: scale // 3 + 10,
    }

    @pytest.mark.parametrize("scale", [10, 11, 40, 300, 3000])
    @pytest.mark.parametrize("kernel, args", [
        ("_ln_point_fx", [Fraction(2, 3), Fraction(4, 3) - Fraction(1, 10 ** 30),
                          Fraction(7), Fraction(1, 10 ** 9)]),
        ("_exp_point_fx", [Fraction(1, 3), Fraction(-7, 3), Fraction(20), Fraction(-20)]),
        ("_sin_point_fx", [Fraction(8, 5), Fraction(-8, 5), Fraction(1, 3)]),
    ], ids=["ln", "exp", "sin"])
    def test_kernel_steps_bounded(self, monkeypatch, kernel, args, scale):
        limit = self.STEP_BOUNDS[kernel](scale)
        original = reals._series_fx

        def capped(power, ratio, s, steps):
            def take():
                for i, step in enumerate(steps):
                    assert i < limit, f"{kernel} drew more than {limit} steps"
                    yield step
            return original(power, ratio, s, take())

        monkeypatch.setattr(reals, "_series_fx", capped)
        for x in args:
            getattr(reals, kernel)(x.as_integer_ratio(), scale)
