"""Certified continued fractions, convergents, and irrationality measures.

Arbitrary-precision interval arithmetic feeds a certified expansion of
constants such as pi^2; exact big-integer engines turn the quotients
into convergents; the measure and probe layers compute the approximate
irrationality measure mu_n, the q^(mu_n - 2) column, residual bounds,
and the sine-probe identities, all as certified enclosures.
"""

from .cf import PartialQuotients, SurdExpansion, expand, surd_expand
from .convergents import (
    Convergent,
    Mat2,
    WorkCounter,
    check_determinant,
    convergents_fast,
    convergents_iter,
    convergents_matrix,
    fib_power,
    final_convergent,
    telescoping_sum,
    telescoping_sums,
)
from .measure import MeasureRow, lagrange, measure_table, mu_n, mu_table
from .probe import ProbeRow, bound_check, envelope_check, probe_table, sine_probe
from .reals import (
    CertifiedReal,
    ConstantSpec,
    DecimalLiteral,
    PiPower,
    PrecisionBudget,
    PrecisionError,
    Surd,
    eval_constant,
    exp_certified,
    ln_certified,
    pi_interval,
    residual,
    sin_certified,
)

__version__ = "0.1.0"

__all__ = [
    "CertifiedReal",
    "ConstantSpec",
    "Convergent",
    "DecimalLiteral",
    "Mat2",
    "MeasureRow",
    "PartialQuotients",
    "PiPower",
    "PrecisionBudget",
    "PrecisionError",
    "ProbeRow",
    "Surd",
    "SurdExpansion",
    "WorkCounter",
    "bound_check",
    "check_determinant",
    "convergents_fast",
    "convergents_iter",
    "convergents_matrix",
    "envelope_check",
    "eval_constant",
    "exp_certified",
    "expand",
    "fib_power",
    "final_convergent",
    "lagrange",
    "ln_certified",
    "measure_table",
    "mu_n",
    "mu_table",
    "pi_interval",
    "probe_table",
    "residual",
    "sin_certified",
    "sine_probe",
    "surd_expand",
    "telescoping_sum",
    "telescoping_sums",
]
