"""Exact oracles at depth: constants whose continued fractions or values
are known in closed form, checked at thousands of digits.

Each check bounds the enclosure's width or the certified prefix's length
as well, so an enclosure too wide to say anything cannot pass.
"""

import csv
import io
from fractions import Fraction
from math import isqrt

import pytest

import cfcert.cli as cli
from cfcert import (
    CertifiedReal,
    PrecisionBudget,
    exp_certified,
    ln_certified,
    pi_interval,
    sin_certified,
)


def e_root_pattern(n: int, terms: int) -> list[int]:
    """e^(1/n) = [1; n - 1, 1, 1, 3n - 1, 1, 1, 5n - 1, ...] for n >= 2
    (Euler), cut to ``terms`` quotients."""
    out, k = [1], 0
    while len(out) < terms:
        out += [(2 * k + 1) * n - 1, 1, 1]
        k += 1
    return out[:terms]


def e_pattern(terms: int) -> list[int]:
    """e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...] (Euler), cut to ``terms`` quotients."""
    out, k = [2], 1
    while len(out) < terms:
        out += [1, 2 * k, 1]
        k += 1
    return out[:terms]


def e_seventh_root() -> CertifiedReal:
    return exp_certified(CertifiedReal.point(Fraction(1, 7)), 2000)


@pytest.mark.parametrize("scale, least", [(2000, 1090), (5000, 2430)])
def test_e_is_eulers_pattern(scale, least):
    x = exp_certified(CertifiedReal.point(1), scale)
    assert x.compare_width(4, 10 ** scale) <= 0
    prefix = x.partial_quotients(10 ** 6)
    assert len(prefix) >= least
    assert prefix == e_pattern(len(prefix))


def test_e_seventh_root_is_eulers_pattern():
    x = e_seventh_root()
    assert x.compare_width(4, 10 ** 2000) <= 0
    prefix = x.partial_quotients(10 ** 6)
    assert len(prefix) >= 860
    assert prefix[:8] == [1, 6, 1, 1, 20, 1, 1, 34]
    assert prefix == e_root_pattern(7, len(prefix))


def test_ln_of_e_seventh_root_contains_one_seventh():
    x = ln_certified(e_seventh_root(), 2000)
    assert x.contains(Fraction(1, 7))
    assert x.compare_width(8, 10 ** 2000) <= 0


def test_sin_of_pi_sixth_contains_one_half():
    x = sin_certified(pi_interval(2020) / 6, PrecisionBudget(2000))
    assert x.contains(Fraction(1, 2))
    assert x.compare_width(1, 10 ** 2000) <= 0


def test_square_of_sin_pi_quarter_contains_one_half():
    x = sin_certified(pi_interval(2020) / 4, PrecisionBudget(2000))
    square = x * x
    assert square.contains(Fraction(1, 2))
    assert square.compare_width(1, 10 ** 2000) <= 0


def tanh_pattern(m: int, terms: int) -> list[int]:
    """tanh(1/m) = [0; m, 3m, 5m, ...] for m >= 1 (Lambert), cut to
    ``terms`` quotients."""
    return [0] + [(2 * k + 1) * m for k in range(terms - 1)]


@pytest.mark.parametrize("m, least", [(1, 400), (2, 360), (3, 340), (7, 305), (10, 295)])
def test_tanh_of_one_over_m_is_lamberts_pattern(m, least):
    # tanh(1/m) = (E - 1) / (E + 1) with E = e^(2/m)
    e = exp_certified(CertifiedReal.point(Fraction(2, m)), 2000)
    prefix = ((e - 1) / (e + 1)).partial_quotients(10 ** 6)
    assert len(prefix) >= least
    assert prefix == tanh_pattern(m, len(prefix))


def surd_convergents(a: int, b: int, d: int, c: int,
                     terms: int) -> list[tuple[int, int]]:
    """(p_n, q_n) for n < ``terms`` of (a + b sqrt(d)) / c, b, c > 0, from
    the exact (P + sqrt(D)) / Q recurrence, with Q dividing D - P^2."""
    P, D, Q = a * c, b * b * d * c * c, c * c
    r = isqrt(D)
    out, (p0, q0), (p1, q1) = [], (0, 1), (1, 0)
    while len(out) < terms:
        # floor((P + sqrt D) / Q) for either sign of Q, as sqrt D is irrational
        quotient = (P + r + (Q < 0)) // Q
        P = quotient * Q - P
        Q = (D - P * P) // Q
        p0, q0, p1, q1 = p1, q1, quotient * p1 + p0, quotient * q1 + q0
        out.append((p1, q1))
    return out


def sign_of(u: int, v: int, d: int) -> int:
    """Sign of u + v sqrt(d) for a non-square d, by squaring."""
    if u * v >= 0:
        return (u + v > 0) - (u + v < 0)
    w = u if u * u > v * v * d else v
    return (w > 0) - (w < 0)


def sci6(x: int, y: int, d: int, c: int, magnitude: int) -> str:
    """``%.6e`` of (x + y sqrt(d)) / c, half to even, from isqrt with
    guard digits; ``magnitude`` bounds 1/|value| from above.  Asserts that
    both ends of the enclosure round alike."""
    sign = sign_of(x, y, d)
    guard = 5
    k = len(str(magnitude)) + 7 + guard
    # s <= y sqrt(d) 10^k < s + 1, so the value times 10^k is within
    # [(x 10^k + s) / c, (x 10^k + s + 1) / c]
    s = isqrt(y * y * d * 10 ** (2 * k))
    ends = sorted(sign * (x * 10 ** k + s + t) for t in (0, 1))
    lo, hi = ends[0] // c, -(-ends[1] // c)
    texts = set()
    for t in (lo, hi):
        drop = len(str(t)) - 7
        assert drop >= guard
        digits, rest = divmod(t, 10 ** drop)
        if 2 * rest > 10 ** drop or 2 * rest == 10 ** drop and digits % 2:
            digits += 1
        e = len(str(t)) - 1 - k
        if digits == 10 ** 7:
            digits, e = 10 ** 6, e + 1
        texts.add(f"{'-' if sign < 0 else ''}{digits // 10 ** 6}."
                  f"{digits % 10 ** 6:06d}e{e:+03d}")
    assert len(texts) == 1, texts  # the rounding is decided
    return texts.pop()


@pytest.mark.parametrize("token", ["sqrt:199", "surd:1,2,69,5"])
def test_surd_rows_match_exact_residuals(token):
    # eps_n = q_n alpha - p_n = (X + Y sqrt(d)) / c with X = a q - c p, Y = b q
    a, b, d, c = cli.parse_constant(token)
    rows = 1000
    convs = surd_convergents(a, b, d, c, rows)
    out = io.StringIO()
    assert cli.run(["probe", token, "--rows", str(rows), "--format", "csv"], out=out) == 0
    table = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(table) == rows - 1
    for row, (p, q), (_, q_next) in zip(table, convs, convs[1:]):
        x, y = a * q - c * p, b * q
        sigma = sign_of(x, y, d)
        # |eps| > 1/m iff sigma (X + Y sqrt(d)) m - c > 0
        m = q + q_next
        lower = sign_of(sigma * x * m - c, sigma * y * m, d) > 0
        upper = sign_of(sigma * x * q_next - c, sigma * y * q_next, d) < 0
        assert (row["epsilon"], row["lower_ok"], row["upper_ok"]) == (
            sci6(x, y, d, c, 2 * q_next), str(lower), str(upper)), row["n"]

    out = io.StringIO()
    assert cli.run(["verify", token, "--terms", str(rows)], out=out) == 0
    assert "residual bounds: PASS" in out.getvalue().splitlines()
