"""CLI tests: formats, golden outputs, exit codes, determinism."""

import hashlib
import inspect
import io
import math
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfcert.cli as cli
import cfcert.measure as measure
import cfcert.probe as probe
import cfcert.reals as reals
from cfcert import (
    CertifiedReal,
    PartialQuotients,
    PrecisionBudget,
    PrecisionError,
    bound_check,
    expand,
    fib_power,
    measure_table,
    mu_table,
    probe_table,
)

from reference_data import PI2_MEASURE_TABLE, PI2_PLOT_COORDS, PI2_QUOTIENTS_27


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


class TestExpandCommand:
    def test_plain_prefix(self):
        code, out = run_cli("expand", "pi2", "--terms", "5")
        assert code == 0
        assert out == "9 1 6 1 2\n"

    def test_csv(self):
        code, out = run_cli("expand", "pi2", "--terms", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,a", "0,9", "1,1", "2,6"]

    def test_full_27(self):
        code, out = run_cli("expand", "pi2", "--terms", "27")
        assert [int(a) for a in out.split()] == PI2_QUOTIENTS_27

    def test_6000_terms_match_oracle(self):
        code, out = run_cli("expand", "pi2", "--terms", "6000")
        assert code == 0
        # Euclid on pi^2 truncated at 6500 digits; 6000 quotients need ~6200
        with mp.workdps(6520):
            num, den = int(mp.floor(mp.pi ** 2 * 10 ** 6500)), 10 ** 6500
        oracle = []
        while len(oracle) < 6000:
            a, r = divmod(num, den)
            oracle.append(a)
            num, den = den, r
        assert [int(a) for a in out.split()] == oracle


class TestConvergentsCommand:
    def test_text(self):
        code, out = run_cli("convergents", "pi2", "--terms", "3")
        assert code == 0
        assert out.splitlines() == ["9/1", "10/1", "69/7"]

    def test_fast_engine_single(self):
        code, out = run_cli("convergents", "pi2", "--terms", "6",
                            "--engine", "fast", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "6,10748,1089"

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_beyond_int_str_limit(self, fmt):
        # all-ones quotients: p and q of row 21000 are F_21001 and F_21000,
        # of 4389 and 4388 digits
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        code, out = run_cli("convergents", "golden", "--terms", "21000",
                            "--engine", "fast", "--format", fmt)
        assert code == 0
        assert get_limit() == limit  # restored for the rest of the process
        line = out.splitlines()[-1]
        p, q = line.split(",")[1:] if fmt == "csv" else line.split("/")
        m = fib_power(21000)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            assert (p, q) == (str(m.m00), str(m.m01))
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestMeasureCommand:
    def test_csv_golden_rows(self):
        code, out = run_cli("measure", "pi2", "--terms", "30", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p,q,mu,lagrange"
        assert lines[1] == "1,9,1,,1.000000"
        assert lines[30] == "30,63780609438742,6462326841763,2.039154,3.173788"
        assert len(lines) == 31

    def test_plot_matches_reference_coordinates(self):
        code, out = run_cli("measure", "pi2", "--terms", "30", "--format", "plot")
        assert code == 0
        assert out.splitlines() == PI2_PLOT_COORDS

    def test_plot_computes_no_lagrange(self, monkeypatch):
        calls = []
        original = measure.lagrange

        def counted(q, mu):
            calls.append(q)
            return original(q, mu)

        monkeypatch.setattr(measure, "lagrange", counted)
        code, out = run_cli("measure", "pi2", "--rows", "60", "--format", "plot")
        assert code == 0 and calls == []
        code, csv = run_cli("measure", "pi2", "--rows", "60", "--format", "csv")
        assert len(calls) == 58  # rows 1 and 2 have q = 1 and no mu
        pairs = [f"({n},{mu})" for n, _, _, mu, _ in
                 (row.split(",") for row in csv.splitlines()[1:]) if mu]
        assert out.splitlines() == pairs

    def test_text_blank_mu_cells(self):
        code, out = run_cli("measure", "pi2", "--terms", "4")
        lines = out.splitlines()
        assert lines[0].split() == ["n", "p_n", "q_n", "mu_n", "q^(mu_n-2)"]
        assert lines[1].split() == ["1", "9", "1", "1.000000"]
        assert lines[3].split() == ["3", "69", "7", "2.253500", "1.637692"]

    def test_rows_alias(self):
        code_a, out_a = run_cli("measure", "pi2", "--rows", "5", "--format", "csv")
        code_b, out_b = run_cli("measure", "pi2", "--terms", "5", "--format", "csv")
        assert (code_a, out_a) == (code_b, out_b)

    def test_exact_mu_on_display_point(self):
        # row 3 is 1/10 and |0.101 - 1/10| = 10^-3, so mu is exactly 3
        start = time.perf_counter()
        code, out = run_cli("measure", "lit:0.101", "--rows", "3")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.splitlines()[3].split() == ["3", "1", "10", "3.000000",
                                               "10.000000"]

    def test_logs_at_mu_digits(self, monkeypatch):
        scales = {"_ln_point_fx": [], "_exp_point_fx": []}
        for kernel, seen in scales.items():
            def counted(v, scale, original=getattr(reals, kernel), seen=seen):
                seen.append(scale)
                return original(v, scale)

            monkeypatch.setattr(reals, kernel, counted)
        code, _ = run_cli("measure", "pi2", "--rows", "150")
        assert code == 0
        for seen in scales.values():
            assert seen and max(seen) <= 11

    @pytest.mark.parametrize("threes", [30, 180])
    def test_lagrange_above_28_digits(self, threes):
        # row 2 is 1/3, and q^(mu-2) has about threes digits
        literal = "0." + "3" * threes
        code, out = run_cli("measure", f"lit:{literal}", "--rows", "2",
                            "--format", "csv")
        assert code == 0
        n, p, q, mu, lag = out.splitlines()[2].split(",")
        assert (n, p, q) == ("2", "1", "3")
        x, shown = Fraction(literal), Fraction(mu)
        with mp.workdps(threes + 100):
            err = abs(mp.mpf(x.numerator) / x.denominator - mp.mpf(1) / 3)
            mu_oracle = Fraction(mp.nstr(-mp.log(err) / mp.log(3), 40))
            assert shown == Fraction(math.ceil(mu_oracle * 10 ** 6), 10 ** 6)
            value = mp.power(3, mp.mpf(shown.numerator) / shown.denominator - 2)
            scaled = round(Fraction(mp.nstr(value, threes + 40)) * 10 ** 6)
        assert lag == f"{scaled // 10 ** 6}.{scaled % 10 ** 6:06d}"


class TestProbeCommand:
    def test_csv_shape_and_flags(self):
        code, out = run_cli("probe", "pi2", "--terms", "8", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,epsilon,sin_direct")
        assert len(lines) == 8  # header + 7 rows (successor consumed)
        for line in lines[2:]:
            assert line.endswith("True,True,True")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("constant, rows", [("lit:3", "5"), ("pi^0", "3"),
                                                ("pi2", "1")])
    def test_fewer_than_two_convergents_print_the_header(self, constant, rows, fmt):
        # rows 1..N-1 of N convergents: none for N = 1
        header = run_cli("probe", "pi2", "--rows", "2", "--format", fmt)[1].splitlines()[0]
        code, out = run_cli("probe", constant, "--rows", rows, "--format", fmt)
        assert (code, out) == (0, header + "\n")

    def test_rows_beyond_digits_match_oracle(self):
        # from row ~10 on |eps| is below 10^-digits
        code, out = run_cli("probe", "pi2", "--rows", "50", "--digits", "5",
                            "--format", "csv")
        assert code == 0
        _, convs = run_cli("convergents", "pi2", "--terms", "49", "--format", "csv")
        rows = out.splitlines()[1:]
        assert len(rows) == 49
        with mp.workdps(200):
            for row, conv in zip(rows, convs.splitlines()[1:]):
                _, p, q = (int(x) for x in conv.split(","))
                n, eps, direct, reduced, unscaled, *flags = row.split(",")
                e = q * mp.pi ** 2 - p
                for text, ref in ((eps, e),
                                  (direct, abs(mp.sin(mp.pi ** 3 * q))),
                                  (reduced, abs(mp.sin(mp.pi * e))),
                                  (unscaled, abs(mp.sin(e)))):
                    assert abs(mp.mpf(text) - ref) <= abs(ref) * mp.mpf("1e-6"), n
                assert flags == ["True"] * 3, n


class TestVerifyCommand:
    def test_pi2_all_pass(self):
        code, out = run_cli("verify", "pi2", "--terms", "12")
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_surd_reports_period(self):
        code, out = run_cli("verify", "sqrt:2", "--terms", "30")
        assert code == 0
        assert "period [2] after preperiod 1" in out
        assert "FAIL" not in out

    def test_rows_beyond_digits_all_pass(self):
        code, out = run_cli("verify", "pi2", "--terms", "50", "--digits", "5")
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_literal_notes_termination(self):
        code, out = run_cli("verify", "lit:0.5", "--terms", "10")
        assert code == 0
        assert "terminates after 2 terms" in out

    def test_one_sine_per_row(self, monkeypatch):
        # verify prints no sine column: only |sin eps_n| for the envelope,
        # never sin(pi eps_n) or sin(pi^3 q_n)
        args = []
        original = probe.sin_certified

        def counted(x, budget):
            args.append(x)
            return original(x, budget)

        monkeypatch.setattr(probe, "sin_certified", counted)
        code, out = run_cli("verify", "pi2", "--terms", "30")
        assert code == 0 and "FAIL" not in out
        assert len(args) == 29  # rows 1..29, each checked against its successor
        assert all(abs(x).hi < 1 for x in args)


def _shifted_surd_term(surd_expand):
    def faulty(spec, n):
        sx = surd_expand(spec, n)
        terms = list(sx.quotients.terms)
        terms[3] += 1
        return sx._replace(quotients=PartialQuotients(tuple(terms)))
    return faulty


def _shifted_pair(telescoping_sums):
    def faulty(quotients, upto):
        for i, (n, q) in enumerate(telescoping_sums(quotients, upto)):
            yield n + (i == 7), q
    return faulty


def _flipped_flag(index, flag):
    def wrap(bound_check):
        def faulty(spec, convs, budget):
            flags = [list(f) for f in bound_check(spec, convs, budget)]
            flags[index][flag] = False
            return [tuple(f) for f in flags]
        return faulty
    return wrap


@pytest.mark.parametrize("constant, name, fault, line", [
    ("golden", "surd_expand", _shifted_surd_term,
     "surd exact/interval agreement: FAIL"),
    ("pi2", "check_determinant", lambda _: lambda convs: False,
     "determinant identity: FAIL"),
    # the telescoping line names the 0-based convergent index
    ("pi2", "telescoping_sums", _shifted_pair,
     "telescoping identity: FAIL (first failure at n=7)"),
    ("pi2", "convergents_fast",
     lambda fast: lambda quotients, n: fast(quotients, n)._replace(q=1),
     "engine equivalence: FAIL"),
    # the bound lines name the 1-based row, convs[n - 1]
    ("pi2", "bound_check", _flipped_flag(4, 0),
     "residual bounds: FAIL (first failure at n=5)"),
    ("pi2", "bound_check", _flipped_flag(2, 2), "sine envelope: FAIL (violated at n=3)"),
], ids=["surd", "determinant", "telescoping", "engines", "bounds", "envelope"])
def test_verify_fail_lines(monkeypatch, constant, name, fault, line):
    monkeypatch.setattr(cli, name, fault(getattr(cli, name)))
    code, out = run_cli("verify", constant, "--terms", "20")
    assert code == 1
    checks = [text for text in out.splitlines() if not text.startswith("note: ")]
    assert len(checks) == (6 if constant == "golden" else 5)
    assert line in checks
    assert all(text.endswith(": PASS") for text in checks if text != line)


@pytest.mark.parametrize("command", ["probe", "verify"])
def test_bound_flags_escalate_until_decided(command):
    # quotients near 2*10^15 put |eps_n| within a relative 10^-31 of its
    # bounds, which one digit (plus guard) cannot decide
    argv = (command, "sqrt:1000000000000000000000000000001", "--terms", "8")
    low, high = run_cli(*argv, "--digits", "1"), run_cli(*argv, "--digits", "60")
    assert low == high and low[0] == 0


@pytest.mark.parametrize("constant", ["pi", "pi2", "pi3", "sqrt:199",
                                      "sqrt:1000000000000000000000000000001"])
@pytest.mark.parametrize("command", ["measure", "probe", "verify"])
def test_stdout_independent_of_digits(command, constant):
    # every printed cell is decided inside its row's escalate, so --digits
    # sets where the precision starts, never what is printed; probe row 11
    # of sqrt(10^30 + 1) has |eps| a relative 2.75e-30 below a %.6e tie
    argv = (command, constant, "--terms", "35")
    low, high = run_cli(*argv, "--digits", "1"), run_cli(*argv, "--digits", "60")
    assert low == high and low[0] == 0


def test_probe_rounds_each_cell_once(monkeypatch):
    calls = []
    original = probe._sci6

    def counted(iv, row):
        calls.append(row)
        return original(iv, row)

    monkeypatch.setattr(probe, "_sci6", counted)
    code, out = run_cli("probe", "pi2", "--rows", "30", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 30
    assert len(calls) == 29 * 4  # four cells per printed row, none twice


class TestCertifiedProbeFormat:
    def test_enclosure_below_float_range(self):
        x = Fraction(123456789, 10 ** 408)
        tiny = Fraction(1, 10 ** 420)
        assert probe._sci6(CertifiedReal(x - tiny, x + tiny), 7) == "1.234568e-400"

    def test_too_wide_enclosure_names_row(self):
        # the endpoints round to 1.234565e-03 and 1.234566e-03
        eps = CertifiedReal(Fraction(12345654, 10 ** 10), Fraction(12345656, 10 ** 10))
        with pytest.raises(PrecisionError, match="row 7"):
            probe._sci6(eps, 7)

    def test_sign_zero_and_ties(self):
        def sci6(x):
            return probe._sci6(CertifiedReal.point(x), 1)
        assert probe._sci6(None, 1) == ""
        assert sci6(Fraction(0)) == "0.000000e+00"
        assert sci6(Fraction(-1, 3)) == "-3.333333e-01"
        assert sci6(Fraction(-2, 3 * 10 ** 5)) == "-6.666667e-06"
        # exact ties round half to even, with a carry into the exponent
        assert sci6(Fraction(10000005, 10 ** 7)) == "1.000000e+00"
        assert sci6(Fraction(10000015, 10 ** 7)) == "1.000002e+00"
        assert sci6(Fraction(-99999995, 10 ** 7)) == "-1.000000e+01"
        # and match float formatting wherever a float holds the value
        for x in (1.5, -2.5e-300, 6.02214076e23, 9.9999995e-5):
            assert sci6(Fraction(x)) == f"{x:.6e}"


class TestBenchCommand:
    def test_deterministic_modulo_wall_time(self):
        code_a, out_a = run_cli("bench", "random", "--terms", "500", "--seed", "11")
        code_b, out_b = run_cli("bench", "random", "--terms", "500", "--seed", "11")
        strip = lambda s: re.sub(r"wall_s=\d+\.\d+", "wall_s=X", s)
        assert code_a == code_b == 0
        assert strip(out_a) == strip(out_b)

    def test_golden_agreement(self):
        code, out = run_cli("bench", "golden", "--terms", "300")
        assert code == 0
        assert "agreement=ok" in out
        assert "MISMATCH" not in out

    def test_single_quotient_takes_no_product_by_the_identity(self):
        # the recurrence still counts its two products; the matrix engine
        # starts from a_0's matrix, as the tree does
        code, out = run_cli("bench", "sqrt:2", "--terms", "1")
        assert code == 0
        assert re.findall(r"engine=(\w+) .*muls=(\d+)", out) == [
            ("iter", "2"), ("matrix", "0"), ("fast", "0")]

    def test_mismatch_exits_one(self, monkeypatch):
        original = cli.final_convergent

        def skewed(terms, n, engine, counter):
            last = original(terms, n, engine, counter)
            # one engine disagrees on the 1000-term prefix
            return last._replace(q=last.q + 1) if engine == "fast" and n == 999 else last

        monkeypatch.setattr(cli, "final_convergent", skewed)
        code, out = run_cli("bench", "random", "--terms", "2000", "--seed", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "bench terms=1000 agreement=MISMATCH"
        assert not any("terms=2000" in line for line in lines)

    def test_rejects_interval_constants(self):
        code, _ = run_cli("bench", "pi2", "--terms", "100")
        assert code == 2


class TestExitCodes:
    def test_unknown_constant(self):
        code, _ = run_cli("expand", "nonsense", "--terms", "5")
        assert code == 2

    def test_surd_needs_four_integers(self, capsys):
        code, _ = run_cli("expand", "surd:1,2,3", "--terms", "5")
        assert code == 2
        assert "surd takes four integers" in capsys.readouterr().err

    @pytest.mark.parametrize("d, reason", [
        (-3, "discriminant -3 is negative (value is not real)"),
        (0, "discriminant 0 is a perfect square"),
        (1, "discriminant 1 is a perfect square"),
        (9, "discriminant 9 is a perfect square"),
    ], ids=["negative", "zero", "one", "nine"])
    def test_surd_discriminant_reason(self, capsys, d, reason):
        code, _ = run_cli("expand", f"sqrt:{d}", "--terms", "5")
        assert code == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("token, message", [
        ("pi^2_0/3", "constant 'pi^2_0/3': '2_0' is not an integer"),
        ("sqrt:1_000_003", "constant 'sqrt:1_000_003': '1_000_003' is not an integer"),
        ("pi^٢", "constant 'pi^٢': '٢' is not an integer"),
        ("surd:1,1,5,２", "constant 'surd:1,1,5,２': '２' is not an integer"),
        ("pi^ 2", "constant 'pi^ 2': ' 2' is not an integer"),
        ("pi^2/", "constant 'pi^2/': '' is not an integer"),
        ("pi^x", "constant 'pi^x': 'x' is not an integer"),
        ("lit:٠.٥", "not a finite decimal literal: '٠.٥'"),
        ("lit:0.5\n", "not a finite decimal literal: '0.5\\n'"),
    ], ids=["underscore", "underscores", "arabic-indic", "fullwidth", "space",
            "empty-root", "letter", "lit-arabic-indic", "lit-newline"])
    def test_malformed_constant_token(self, capsys, token, message):
        # integers are ASCII digits with an optional sign, as full matches
        code, out = run_cli("expand", token, "--terms", "3")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("token, code, out, err", [
        ("lit:0.25", 0, "0 4\n", ""),
        ("pi^-2/3", 0, "0 2 6\n", ""),
        ("pi^+2", 0, "9 1 6\n", ""),
        ("sqrt:-3", 2, "", "usage error: surd discriminant -3 is negative "
                           "(value is not real)\n"),
    ])
    def test_well_formed_tokens_as_before(self, capsys, token, code, out, err):
        assert run_cli("expand", token, "--terms", "3") == (code, out)
        assert capsys.readouterr().err == err

    def test_bad_flag(self):
        code, _ = run_cli("expand", "pi2", "--engine", "warp")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("expand", "pi2", "--seed", "3"),
        ("expand", "pi2", "--engine", "matrix"),
        ("expand", "pi2", "--terms", "5", "--digits", "60"),
        ("convergents", "pi2", "--seed", "3"),
        ("convergents", "pi2", "--terms", "5", "--digits", "60"),
        ("measure", "pi2", "--engine", "fast"),
        ("measure", "pi2", "--seed", "3"),
        ("probe", "pi2", "--engine", "iter"),
        ("probe", "pi2", "--format", "plot"),
        ("verify", "pi2", "--format", "csv"),
        ("verify", "pi2", "--engine", "matrix"),
        ("bench", "golden", "--digits", "60"),
        ("bench", "golden", "--engine", "iter"),
        ("bench", "golden", "--format", "csv"),
        ("bench", "golden", "--seed", "3"),
    ])
    def test_flag_unread_by_subcommand(self, argv):
        code, _ = run_cli(*argv)
        assert code == 2

    @pytest.mark.parametrize("command", ["expand", "convergents", "measure",
                                         "probe", "verify"])
    def test_zero_digits(self, command):
        code, _ = run_cli(command, "pi2", "--digits", "0")
        assert code == 2

    def test_digits_past_the_cap_names_the_numbers(self, capsys):
        # --digits 1000000 plus the 10 guard digits pass the 10^6-digit cap
        code, out = run_cli("measure", "pi2", "--rows", "3", "--digits", "1000000")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == ("usage error: digits 1000000 + guard 10 "
                                           "exceed the precision cap 1000000\n")

    def test_sine_budget_past_the_cap_is_a_domain_error(self, capsys):
        # 999,989 + 10 digits are within the cap, but |eps| = 10^-3 of the
        # first row asks the sines for 3 digits more
        code, out = run_cli("probe", "lit:0.001", "--rows", "3", "--digits", "999989")
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: sine needs 999992 digits + guard 10, "
                              "past the precision cap 1000000")

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 2

    def test_zero_terms(self):
        code, _ = run_cli("expand", "pi2", "--terms", "0")
        assert code == 2

    def test_domain_error_maps_to_one(self, monkeypatch):
        def boom(*args, **kwargs):
            raise PrecisionError("cap reached")
        monkeypatch.setattr(cli, "measure_table", boom)
        code, _ = run_cli("measure", "pi2", "--terms", "5")
        assert code == 1

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_long_surd_period_fails_fast(self, command, capsys):
        # the period of sqrt(10^20 + 39) is longer than 10^6 quotients
        code, _ = run_cli(command, "sqrt:100000000000000000039", "--terms", "10")
        assert code == 1
        assert "surd period longer than 1000000 quotients" in capsys.readouterr().err

    def test_plot_only_for_measure(self):
        code, _ = run_cli("expand", "pi2", "--format", "plot")
        assert code == 2


# sha256 of the text argparse prints at COLUMNS=80 on Python 3.11 when it
# asks shutil for the width itself; its layout changes across Python
# versions, so the pins hold on 3.11 alone
HELP_SHA256_PY311 = {
    "--help": (0, "out",
               "9bd0f23b220f74cbf73ff8002450ec8d4f07d412002f82d8bdc4849188a67ed5"),
    "probe --help": (0, "out",
                     "098d91379d613ac6053b0c56361f5c79459e5fa5cf2b9e07f4440fb4bc6c0606"),
    "expand": (2, "err",
               "5a3113bb0101fd197cbaa3acfd6af5e0c9344f01f0ee19328f4ef790f9bf5ca6"),
    "expand pi2 -h": (0, "out",
                      "c222e036e20b0b93d6f14ea82089a8d918070cefdcbcfa31ed0cb54a212112fd"),
    "measure pi2 --rows 3 --help": (
        0, "out", "fc0475b07df2b0191557a8883148c09a2e8bf771058aebc6b7519748b0813fc4"),
}


class TestHelpText:
    @pytest.mark.parametrize("terminal", [None, (0, 0), (132, 40)],
                             ids=["as run", "0 columns", "132 columns"])
    @pytest.mark.parametrize("columns", [None, "", "abc", "0", "-4", "40", "200"])
    def test_width_as_shutil_gives_it(self, monkeypatch, columns, terminal):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        if terminal is not None:
            # shutil and the CLI both ask os for the terminal's size
            monkeypatch.setattr(os, "get_terminal_size",
                                lambda fd: os.terminal_size(terminal))
        formatter = cli._build_parser()._get_formatter()
        assert formatter._width == shutil.get_terminal_size().columns - 2

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse's layout is pinned on Python 3.11")
    @pytest.mark.parametrize("command", HELP_SHA256_PY311)
    def test_bytes_unchanged(self, monkeypatch, capsys, command):
        code, stream, digest = HELP_SHA256_PY311[command]
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.run(command.split()) == code
        text = getattr(capsys.readouterr(), stream)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDefaultBudget:
    def test_one_budget_for_every_default(self):
        # the five public functions and the CLI's --digits share one object
        functions = (expand, mu_table, measure_table, probe_table, bound_check)
        defaults = {f.__name__: inspect.signature(f).parameters["budget"].default
                    for f in functions}
        assert all(d is reals.DEFAULT_BUDGET for d in defaults.values()), defaults
        assert reals.DEFAULT_BUDGET == PrecisionBudget(60)
        parser = cli._build_parser()
        for command in ("measure", "probe", "verify"):
            args = parser.parse_args([command, "pi2"])
            assert args.digits == reals.DEFAULT_BUDGET.digits


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cfcert.cli", "expand", "pi2", "--terms", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "9 1 6 1 2\n"

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cfcert.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "expand" in proc.stdout and "bench" in proc.stdout


TERMS = ["--terms", "--rows", "-n"]
# each command's exact flag spellings
FLAGS = {"expand": TERMS + ["--format"],
         "convergents": TERMS + ["--engine", "--format"],
         "measure": TERMS + ["--digits", "--format"],
         "probe": TERMS + ["--digits", "--format"],
         "verify": TERMS + ["--digits"],
         "bench": TERMS + ["--seed"]}
# abbreviations, '='-joined and glued values, help, the end of options,
# unknown flags and flags of other commands
ODD_FLAGS = ["--ter", "--row", "--dig", "--form", "--eng", "--se", "--terms=5",
             "--format=csv", "-n5", "-n=5", "-h", "--help", "--", "-x", "--nosuch",
             "--digits", "--engine", "--format", "--seed"]
INTS = ["1", "5", "30", "007", "0"]
CHOICES = ["text", "csv", "plot", "iter", "matrix", "fast"]
ODD_VALUES = ["+5", "-5", "٥", "５", " 5", "5 ", "1_0", "5.0", "", "x",
              "7" * 5000, "warp", "TEXT", "-csv", "-1"]
CONSTANTS = ["pi2", "golden", "random", "pi^-2/3", ""]
ODD_CONSTANTS = ["-pi2", "-5", "--terms", "-h"]


@st.composite
def command_lines(draw) -> list[str]:
    """A well-formed line of one command, then as often as not an odd
    token put in, in place of another or at its end."""
    command = draw(st.sampled_from(list(FLAGS)))
    argv = [command, draw(st.sampled_from(CONSTANTS))]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(FLAGS[command]))
        values = CHOICES if flag in ("--engine", "--format") else INTS
        argv += [flag, draw(st.sampled_from(values))]
    odd = draw(st.integers(0, 9))  # 0 or 6 to 9: left well-formed
    if odd == 1:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(ODD_FLAGS + ODD_VALUES)))
    elif odd in (2, 3):
        at = draw(st.integers(2, len(argv)))  # at the end: appended
        argv[at:at + 1] = [draw(st.sampled_from(ODD_FLAGS if odd == 2 else ODD_VALUES))]
    elif odd == 4:
        argv[draw(st.integers(0, 1))] = draw(st.sampled_from(
            ["exp", "Expand", "--help", ""] + ODD_CONSTANTS + ODD_FLAGS))
    elif odd == 5:
        argv = argv[:draw(st.integers(0, len(argv) - 1))]
    return argv


def argparse_namespace(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestTableParser:
    """``cli._parse`` reads the well-formed lines that argparse would read
    the same way, and declines every other line to argparse."""

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    @example(["expand", "pi2", "--terms", "7" * 5000])
    @example(["measure", "pi2", "-n", "3", "--rows", "4", "--format", "plot"])
    @example(["bench", "random", "--seed", "٥"])
    def test_agrees_with_argparse(self, argv):
        parsed, expected = cli._parse(argv), argparse_namespace(argv)
        if expected is None:
            assert parsed is None
        elif parsed is not None:
            assert vars(parsed) == expected

    @pytest.mark.parametrize("line", [
        "expand pi2", "expand pi2 --terms 1040 --format csv",
        "convergents golden --engine fast -n 3000",
        "measure sqrt:199 --rows 150 --digits 60 --format plot",
        "probe pi^3/4 --rows 20 --format csv --digits 60",
        "verify pi2 --terms 5 --terms 6 --rows 007",
        "bench random --terms 300 --seed 1", "expand  --terms 3",
    ])
    def test_reads_well_formed_lines(self, line):
        argv = line.split(" ")
        parsed = cli._parse(argv)
        assert parsed is not None and vars(parsed) == argparse_namespace(argv)

    @pytest.mark.parametrize("line", [
        "", "expand", "expand pi2 --terms", "Expand pi2", "expand pi2 -h",
        "expand pi2 --help", "expand pi2 --terms +5", "expand pi2 --terms ٥",
        "expand -pi2", "expand pi2 --format plot", "expand pi2 --digits 60",
        "expand pi2 5 6",
    ])  # and the lines of DECLINED_PY311
    def test_declines_other_lines(self, line):
        assert cli._parse(line.split()) is None

    def test_declines_values_past_the_int_str_limit(self, monkeypatch, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit == 0:
            pytest.skip("this Python converts an int string of any length")
        argv = ["expand", "pi2", "--terms", "7" * (limit + 1)]
        assert cli._parse(argv) is None
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.run(argv) == 2
        assert capsys.readouterr().err.endswith(
            f"cfcert expand: error: argument --terms/--rows/-n: invalid int value: "
            f"'{argv[-1]}'\n")


# stdout, stderr and exit code of lines that the table parser declines,
# recorded on Python 3.11 while argparse parsed every line
DECLINED_PY311 = {
    "expand pi2 --ter 5": (0, "9 1 6 1 2\n", ""),
    "expand pi2 --terms=5": (0, "9 1 6 1 2\n", ""),
    "expand pi2 -n5": (0, "9 1 6 1 2\n", ""),
    "expand --terms 5 pi2": (0, "9 1 6 1 2\n", ""),
    "expand pi2 -- --terms 5": (
        2, "", "usage: cfcert [-h] {expand,convergents,measure,probe,verify,bench} ...\n"
               "cfcert: error: unrecognized arguments: --terms 5\n"),
    "expand pi2 --terms -5": (2, "", "usage error: --terms must be >= 1\n"),
    "expand pi2 --format -csv": (
        2, "", "usage: cfcert expand [-h] [--terms TERMS] [--format {text,csv}] constant\n"
               "cfcert expand: error: argument --format: expected one argument\n"),
    "expand -pi2 --terms 5": (
        2, "", "usage: cfcert expand [-h] [--terms TERMS] [--format {text,csv}] constant\n"
               "cfcert expand: error: the following arguments are required: constant\n"),
    "measure pi2 --rows 3 --digits -1": (2, "", "usage error: digits must be >= 1\n"),
}


@pytest.mark.parametrize("line", DECLINED_PY311)
def test_declined_lines_as_argparse_gives_them(monkeypatch, capsys, line):
    code, out, err = DECLINED_PY311[line]
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._parse(line.split()) is None
    assert cli.run(line.split()) == code
    if sys.version_info[:2] == (3, 11):  # argparse's wording is pinned on 3.11
        assert capsys.readouterr() == (out, err)
