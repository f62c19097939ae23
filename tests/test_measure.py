"""Measure tests: mu_n, the q^(mu-2) column, and full table reproduction."""

import io
import re
import time
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfcert.cli as cli
import cfcert.reals as reals
from cfcert import (
    CertifiedReal,
    Convergent,
    DecimalLiteral,
    PiPower,
    PrecisionBudget,
    PrecisionError,
    Surd,
    convergents_iter,
    eval_constant,
    expand,
    lagrange,
    measure_table,
    mu_n,
    mu_table,
    residual,
)
from cfcert.measure import _log10_power_floor
from cfcert.reals import escalate

from reference_data import PI2_MEASURE_TABLE

PI2 = PiPower(2, 1)
GOLDEN = Surd(1, 1, 5, 2)


def ceil6(x: mp.mpf) -> Decimal:
    fr = Fraction(mp.nstr(x, 40)) * 10 ** 6
    q, r = divmod(fr.numerator, fr.denominator)
    return Decimal(q + (1 if r else 0)).scaleb(-6)


class TestMuN:
    def test_row_3(self):
        assert mu_n(PI2, Convergent(2, 69, 7), PrecisionBudget(60)) == Decimal("2.253500")

    def test_row_5(self):
        assert mu_n(PI2, Convergent(4, 227, 23), PrecisionBudget(60)) == Decimal("3.236253")

    def test_unit_denominator_absent(self):
        assert mu_n(PI2, Convergent(0, 9, 1), PrecisionBudget(60)) is None

    def test_insufficient_budget_raises(self):
        # the error interval for a deep convergent cannot exclude zero at
        # 10 digits; guard/cap tuned so escalation is the caller's job
        conv = Convergent(29, 63780609438742, 6462326841763)
        with pytest.raises(PrecisionError):
            mu_n(PI2, conv, PrecisionBudget(10, guard=0, cap=10))

    def test_exact_zero_error(self):
        assert mu_n(DecimalLiteral("0.5"), Convergent(1, 1, 2), PrecisionBudget(20)) is None

    def test_exact_mu_just_above_display_point(self):
        # alpha = 2^-20 + (1 - 10^-13) 2^-60 puts |alpha - 1/2^20| a relative
        # 10^-13 below q^-3, so mu - 3 is about 7.2e-15: every log enclosure
        # holds 3, and only the integer test decides that mu lies above it
        text = "0.0000009536743164071173617379883168110321634003412327729165554046630859375"
        assert Fraction(text) == Fraction(1, 2 ** 20) + (1 - Fraction(1, 10 ** 13)) / 2 ** 60
        with mp.workdps(40):
            mu = -mp.log((1 - mp.mpf(10) ** -13) / mp.mpf(2) ** 60) / mp.log(2 ** 20)
            assert 7.1e-15 < mu - 3 < 7.3e-15
        assert mu_n(DecimalLiteral(text), Convergent(0, 1, 2 ** 20),
                    PrecisionBudget(60)) == Decimal("3.000001")


class TestMuFromResidual:
    def test_budget_below_mu_digits(self):
        # working precision 3 caps the logs at max(3, 7) + 4 = 11 digits:
        # PrecisionError where that cannot pin six decimals, never the
        # ValueError of a cap below digits + guard
        low = PrecisionBudget(3, guard=0)
        assert mu_n(PI2, Convergent(2, 69, 7), low) == Decimal("2.253500")
        with pytest.raises(PrecisionError):
            mu_n(PI2, Convergent(6, 10975, 1112), low)

    @pytest.mark.parametrize("alpha, oracle", [
        (PiPower(3, 4), lambda: mp.pi ** (mp.mpf(3) / 4)),
        (Surd(0, 1, 199, 1), lambda: mp.sqrt(199)),
    ], ids=["pi^3/4", "sqrt:199"])
    def test_rows_1_to_200_match_oracle(self, alpha, oracle):
        budget = PrecisionBudget(60)
        convs = list(convergents_iter(expand(alpha, 200, budget), 199))
        assert len(convs) == 200
        with mp.workdps(800):
            x = oracle()
            for conv in convs:
                if conv.q == 1:
                    assert mu_n(alpha, conv, budget) is None
                    continue
                err = abs(x - mp.mpf(conv.p) / conv.q)
                assert mu_n(alpha, conv, budget) == ceil6(-mp.log(err) / mp.log(conv.q))


class TestLagrange:
    def test_row_3(self):
        assert lagrange(7, Decimal("2.253500")) == Decimal("1.637692")

    def test_row_5(self):
        assert lagrange(23, Decimal("3.236253")) == Decimal("48.243646")

    def test_unit_denominator(self):
        assert lagrange(1, Decimal("9.999999")) == Decimal("1.000000")

    def test_validation(self):
        with pytest.raises(ValueError):
            lagrange(0, Decimal("2"))

    @pytest.mark.parametrize("q", [7.0, True, False, Decimal(7), "7"])
    def test_q_is_an_int(self, q):
        # 7.0 once raised AttributeError, and True gave 1.000000
        with pytest.raises(TypeError, match=f"^q must be an int, not {re.escape(repr(q))}$"):
            lagrange(q, 3)

    def test_bool_mu_refused(self):
        # True once read as mu = 1, giving 7^(1 - 2) = 0.142857
        with pytest.raises(TypeError, match="^bool True is not a number"):
            lagrange(7, True)

    def test_value_past_ten_thousand_digits(self):
        # 10^5700 once passed the private 10,000-digit cap of the ladder
        assert lagrange(10 ** 5700, 3) == Decimal("1" + "0" * 5700 + ".000000")

    def test_tiny_value_of_huge_q(self):
        assert lagrange(10 ** 5700, 1) == Decimal("0.000000")

    @pytest.mark.parametrize("mu", [10 ** 7, -10 ** 7, 2 + 34 * 10 ** 5],
                             ids=["huge", "tiny", "bound-just-past-the-cap"])
    def test_value_past_the_cap_raises_at_once(self, monkeypatch, mu):
        # 3^(mu - 2) is past 10^+-(10^6): exp's range check fails at every
        # level, so lagrange once ran ln 3 up to 10^6 digits only to raise
        def never(*args):
            raise AssertionError("ln q computed for an undecidable value")

        monkeypatch.setattr(reals, "_ln_point_fx", never)
        with pytest.raises(PrecisionError, match=r"^q\^\(mu - 2\) is past 10\^\+-1000000"):
            lagrange(3, mu)

    def test_cap_bound_reads_q_past_its_bit_length(self, monkeypatch):
        # log10 3 = 0.477 was once counted as (2 - 1) 0.30102, so 3^(2.5 10^6),
        # about 1.19 10^6 digits, passed the pre-check and climbed the ladder
        def never(*args):
            raise AssertionError("ln q computed for an undecidable value")

        monkeypatch.setattr(reals, "_ln_point_fx", never)
        start = time.perf_counter()
        with pytest.raises(PrecisionError, match=r"^q\^\(mu - 2\) is past 10\^\+-1000000"):
            lagrange(3, 2 + 25 * 10 ** 5)
        assert time.perf_counter() - start < 0.1

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(2, 300), st.integers(2, 2 ** 300)),
           st.fractions(-10 ** 7, 10 ** 7, max_denominator=10 ** 9))
    # log2 q is exact for a power of two, so only log10 2 > 0.30102 and the
    # floor of |mu - 2| 10^6 keep these two below 903,089,806.4 and 0.999996
    @example(2 ** 300, Fraction(10 ** 7))
    @example(2 ** 300, 2 + Fraction(1_107_305, 10 ** 8))
    def test_cap_bound_is_a_lower_bound(self, q, mu):
        bound = _log10_power_floor(q, CertifiedReal.point(mu) - 2)
        with mp.workdps(30):
            exact = abs(mp.mpf(mu.numerator) / mu.denominator - 2) * mp.log10(q)
            assert bound <= exact

    def test_starts_at_the_values_digits(self, monkeypatch):
        # one ln q and one exp, not ln q at every level from 11 digits up
        counts = {"_ln_point_fx": 0, "_exp_point_fx": 0}

        def counted(name, fn):
            def run(*args):
                counts[name] += 1
                return fn(*args)
            return run

        for name in counts:
            monkeypatch.setattr(reals, name, counted(name, getattr(reals, name)))
        assert lagrange(10 ** 3000, 3) == Decimal("1" + "0" * 3000 + ".000000")
        assert counts == {"_ln_point_fx": 1, "_exp_point_fx": 1}


@pytest.fixture(scope="module")
def table():
    return measure_table(PI2, 30, PrecisionBudget(60))


class TestMeasureTable:
    def test_reproduces_reference_rows(self, table):
        assert len(table) == 30
        for row, (n, p, q, mu, lag) in zip(table, PI2_MEASURE_TABLE):
            assert row.display_n == n
            assert row.p == p
            assert row.q == q
            if mu is None:
                assert row.mu is None
                assert row.lagrange == Decimal("1.000000")
            else:
                assert row.mu == Decimal(mu)
                assert row.lagrange == Decimal(lag)

    def test_unit_rows_blank(self, table):
        for row in table[:2]:
            assert row.q == 1 and row.mu is None
            assert row.lagrange == Decimal("1.000000")

    def test_mu_above_two_iff_error_small(self, table):
        alpha = eval_constant(PI2, PrecisionBudget(90))
        for row in table:
            if row.mu is None:
                continue
            err = abs(alpha - Fraction(row.p, row.q))
            below = err.certainly_less_than(Fraction(1, row.q ** 2))
            assert below == (row.mu > 2)
            assert row.mu > 2  # holds on every reference row

    def test_lagrange_tracks_inverse_square_error(self, table):
        # lagrange = q^(mu-2) with mu at display resolution, so it may
        # drift from 1/(q^2 err) by up to lagrange * ln(q) * 1e-6
        alpha = eval_constant(PI2, PrecisionBudget(90))
        for row in table:
            if row.mu is None:
                continue
            err = abs(alpha - Fraction(row.p, row.q))
            exact = 1 / (Fraction(row.q ** 2) * err.midpoint)
            bound = (Fraction(str(row.lagrange))
                     * len(str(row.q)) * 3 * Fraction(1, 10 ** 6)
                     + Fraction(1, 10 ** 5))
            assert abs(Fraction(str(row.lagrange)) - exact) <= bound

    def test_rounding_stability(self):
        low = measure_table(PI2, 12, PrecisionBudget(60))
        high = measure_table(PI2, 12, PrecisionBudget(120))
        for a, b in zip(low, high):
            assert (a.mu, a.lagrange) == (b.mu, b.lagrange)

    def test_golden_ratio_against_closed_form(self):
        # |phi - p/q| = 1 / (q * (q*phi + p - q)) for consecutive
        # Fibonacci convergents, giving an independent mu oracle
        rows = measure_table(GOLDEN, 10, PrecisionBudget(60))
        with mp.workdps(80):
            phi = (1 + mp.sqrt(5)) / 2
            for row in rows:
                if row.mu is None:
                    continue
                err = 1 / (row.q * (row.q * phi + row.p - row.q))
                direct = abs(phi - mp.mpf(row.p) / row.q)
                assert mp.almosteq(err, direct, rel_eps=mp.mpf("1e-60"))
                mu_oracle = -mp.log(err) / mp.log(row.q)
                assert row.mu == ceil6(mu_oracle)

    def test_rational_constant_rows(self):
        rows = measure_table(DecimalLiteral("0.5"), 5)
        assert [(r.p, r.q) for r in rows] == [(0, 1), (1, 2)]
        assert rows[1].mu is None and rows[1].lagrange is None

    def test_row_count_validation(self):
        with pytest.raises(ValueError):
            measure_table(PI2, 0)
        with pytest.raises(ValueError):
            mu_table(PI2, 0)

    def test_mu_table_is_the_table_without_lagrange(self, table):
        # the plot path: every column but q^(mu_n - 2) where mu_n is present
        rows = mu_table(PI2, 30, PrecisionBudget(60))
        assert rows == [r if r.mu is None else r._replace(lagrange=None) for r in table]
        assert all(r.mu > 2 for r in rows[2:])

    def test_mu_table_rows_without_exponent(self):
        # q = 1, then the exact last convergent of 1/2: no mu_n in either row
        rows = mu_table(DecimalLiteral("0.5"), 5)
        assert rows == [(1, 0, 1, None, Decimal("1.000000")), (2, 1, 2, None, None)]


def ladder_residual(alpha, conv, budget):
    """Reference for ``residual``: eps formed at every escalation level
    from ``budget`` on, until one holds ``budget.working`` digits."""
    def attempt(b):
        eps = eval_constant(alpha, b) * conv.q - conv.p
        # an eps straddling zero has abs(eps).lo = 0 and fails here too
        if eps.width * 10 ** (budget.working + 1) > abs(eps).lo:
            raise PrecisionError("too few significant digits")
        return eps

    return escalate(attempt, budget)


class TestWorkingResidual:
    @pytest.mark.parametrize("alpha", [
        PI2, PiPower(3, 4), PiPower(-2, 3), Surd(0, 1, 199, 1), Surd(1, 2, 69, 5),
    ], ids=["pi2", "pi^3/4", "pi^-2/3", "sqrt:199", "surd:1,2,69,5"])
    def test_rows_1_to_200_match_full_ladder(self, alpha):
        convs = list(convergents_iter(expand(alpha, 200, PrecisionBudget(60)), 199))
        assert len(convs) == 200
        for budget in (PrecisionBudget(1), PrecisionBudget(5), PrecisionBudget(60)):
            for conv in convs:
                eps = residual(alpha, conv, budget)
                ref_eps = ladder_residual(alpha, conv, budget)
                assert (eps.lo, eps.hi) == (ref_eps.lo, ref_eps.hi)

    def test_literal_rows_are_points_at_the_first_level(self):
        # q_n^2 reaches 10^18 here, which would skip the first level of an
        # irrational; the cap leaves no room for a second level
        alpha = DecimalLiteral("0.123456789")
        budget = PrecisionBudget(5, cap=25)
        quotients = expand(alpha, 20, budget)
        for conv in convergents_iter(quotients, len(quotients.terms) - 1):
            eps = residual(alpha, conv, budget)
            assert eps == CertifiedReal.point(alpha.value * conv.q - conv.p)
            assert eps == ladder_residual(alpha, conv, budget)

    @pytest.mark.parametrize("command, rows", [
        ("probe pi2 --rows 200 --format csv", 200),
        ("verify pi2 --terms 200", 200),
        ("measure pi2 --rows 150 --format csv", 150),
    ])
    def test_one_residual_attempt_per_row(self, monkeypatch, command, rows):
        # every level that forms eps evaluates alpha once, through the name
        # ``eval_constant`` that ``residual`` looks up in reals; expand's
        # levels go through cf's own name and are not counted
        calls = []
        original = reals.eval_constant

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(reals, "eval_constant", counted)
        assert cli.run(command.split(), out=io.StringIO()) == 0
        assert len(calls) <= rows + 2
