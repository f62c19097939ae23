"""Exact oracles at depth: constants whose continued fractions or values
are known in closed form, checked at thousands of digits.

Each check bounds the enclosure's width or the certified prefix's length
as well, so an enclosure too wide to say anything cannot pass.
"""

from fractions import Fraction

import pytest

from cfcert import (
    CertifiedReal,
    PrecisionBudget,
    exp_certified,
    ln_certified,
    pi_interval,
    sin_certified,
)
from cfcert.cf import _shared_prefix


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
    prefix = _shared_prefix(x, 10 ** 6)
    assert len(prefix) >= least
    assert prefix == e_pattern(len(prefix))


def test_e_seventh_root_is_eulers_pattern():
    x = e_seventh_root()
    assert x.compare_width(4, 10 ** 2000) <= 0
    prefix = _shared_prefix(x, 10 ** 6)
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
    prefix = _shared_prefix((e - 1) / (e + 1), 10 ** 6)
    assert len(prefix) >= least
    assert prefix == tanh_pattern(m, len(prefix))
