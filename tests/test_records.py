"""The contract of the package's public records.

Nine records are named tuples and ``PartialQuotients`` is a slotted
sequence of its terms.  Each keeps the repr, immutability, copying,
pickling and validation it had as a frozen dataclass; the named tuples
also compare, hash and unpack as the tuple of their fields.  The six
records that validate their fields validate them in ``_make`` and
``_replace`` too; the table rows keep the named tuple's plain copy.
"""

import copy
import pickle
from decimal import Decimal

import pytest

import cfcert.reals as reals
from cfcert import (
    CertifiedReal,
    Convergent,
    DecimalLiteral,
    Mat2,
    MeasureRow,
    PartialQuotients,
    PiPower,
    PrecisionBudget,
    ProbeRow,
    Surd,
    SurdExpansion,
)

X = reals._iv(1, 2, 10 ** 3)

# (record, its repr as printed when the records were frozen dataclasses)
RECORDS = [
    (PrecisionBudget(60), "PrecisionBudget(digits=60, guard=10, cap=1000000)"),
    (PrecisionBudget(5, guard=0, cap=9), "PrecisionBudget(digits=5, guard=0, cap=9)"),
    (PiPower(4, 2), "PiPower(t=2, s=1)"),
    (PiPower(-3, 4), "PiPower(t=-3, s=4)"),
    (Surd(1, 1, 5, 2), "Surd(a=1, b=1, d=5, c=2)"),
    (DecimalLiteral("0.5"), "DecimalLiteral(text='0.5')"),
    (PartialQuotients((9, 1, 6)), "PartialQuotients(terms=(9, 1, 6), terminated=False)"),
    (PartialQuotients((0,), terminated=True),
     "PartialQuotients(terms=(0,), terminated=True)"),
    (SurdExpansion(PartialQuotients((1, 1)), 0, 1),
     "SurdExpansion(quotients=PartialQuotients(terms=(1, 1), terminated=False), "
     "preperiod=0, period=1)"),
    (Convergent(3, 22, 7), "Convergent(n=3, p=22, q=7)"),
    (Mat2(1, 1, 1, 0), "Mat2(m00=1, m01=1, m10=1, m11=0)"),
    (MeasureRow(2, 10, 1, Decimal("5.123456"), None),
     "MeasureRow(display_n=2, p=10, q=1, mu=Decimal('5.123456'), lagrange=None)"),
    (MeasureRow(1, 3, 1, None, Decimal("1.000000")),
     "MeasureRow(display_n=1, p=3, q=1, mu=None, lagrange=Decimal('1.000000'))"),
    (ProbeRow(1, X, X, None, X, X),
     "ProbeRow(display_n=1, epsilon=CertifiedReal(1/1000, 1/500), "
     "abs_epsilon=CertifiedReal(1/1000, 1/500), sin_direct=None, "
     "sin_reduced=CertifiedReal(1/1000, 1/500), "
     "sin_unscaled=CertifiedReal(1/1000, 1/500), lower_bound_ok=None, "
     "upper_bound_ok=None, envelope_ok=None)"),
    (ProbeRow(2, X, X, X, X, X, True, False, None),
     "ProbeRow(display_n=2, epsilon=CertifiedReal(1/1000, 1/500), "
     "abs_epsilon=CertifiedReal(1/1000, 1/500), "
     "sin_direct=CertifiedReal(1/1000, 1/500), "
     "sin_reduced=CertifiedReal(1/1000, 1/500), "
     "sin_unscaled=CertifiedReal(1/1000, 1/500), lower_bound_ok=True, "
     "upper_bound_ok=False, envelope_ok=None)"),
]
IDS = [r.split("(")[0] + str(i) for i, (_, r) in enumerate(RECORDS)]


def fields(record) -> tuple[str, ...]:
    return getattr(record, "_fields", None) or ("terms", "terminated")


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_immutable(record, text):
    for name in (*fields(record), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_copies_and_pickles_equal(record, text):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text


@pytest.mark.parametrize("make", [
    lambda: PrecisionBudget(0),
    lambda: PrecisionBudget(5, guard=-1),
    lambda: PrecisionBudget(5, 10, cap=14),
    lambda: PiPower(1, 0),
    lambda: Surd(0, 1, 4, 1),
    lambda: Surd(0, 0, 2, 1),
    lambda: Surd(1, 1, 2, 0),
    lambda: Surd(0, 1, 1, 1),
    lambda: DecimalLiteral("1e5"),
    lambda: DecimalLiteral("٠.٥"),
    lambda: DecimalLiteral("0.5\n"),
    lambda: PartialQuotients(()),
    lambda: PartialQuotients((1, 0)),
    lambda: Convergent(0, 1, 0),
])
def test_validation_refuses(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make, error", [
    (lambda: PrecisionBudget(60)._replace(digits=-5), ValueError),
    (lambda: PrecisionBudget(60)._replace(cap=9), ValueError),
    (lambda: PrecisionBudget(60)._replace(guard=1.5), TypeError),
    (lambda: PiPower(2)._replace(s=0), ValueError),
    (lambda: Surd(0, 1, 2, 1)._replace(d=4), ValueError),
    (lambda: DecimalLiteral("0.5")._replace(text="abc"), ValueError),
    (lambda: Convergent(0, 1, 1)._replace(q=0), ValueError),
    (lambda: Mat2._make([1.5, 1, 1, 0]), TypeError),
    (lambda: Mat2(1, 0, 0, 1)._replace(m11=True), TypeError),
    (lambda: Surd._make((0, 1, 2, 0)), ValueError),
], ids=["budget-digits", "budget-cap", "budget-guard", "pipower", "surd-replace",
        "literal", "convergent", "mat2-make", "mat2-replace", "surd-make"])
def test_make_and_replace_validate(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("make", [
    lambda: PrecisionBudget._make([60]),
    lambda: PiPower._make([2]),
    lambda: Convergent._make([0, 1, 1, 1]),
], ids=["budget", "pipower", "convergent"])
def test_make_keeps_the_field_count(make):
    # the constructor's defaults do not fill a short iterable
    with pytest.raises(TypeError, match="^Expected "):
        make()


def test_make_and_replace_build_through_the_constructor():
    assert PiPower(1, 2)._replace(t=2) == (1, 1)  # reduced, as PiPower(2, 2)
    assert PiPower._make((-6, 4)) == (-3, 2)
    assert PrecisionBudget(60)._replace(digits=5) == PrecisionBudget(5)
    assert Convergent._make(iter((3, 22, 7))) == Convergent(3, 22, 7)
    assert type(Mat2._make([1, 1, 1, 0])) is Mat2
    # table rows, copied per row, keep the named tuple's own plain path
    row = MeasureRow(1, 3, 1, None, None)
    assert row._replace(mu=1.5).mu == 1.5


def test_pi_power_lowest_terms():
    assert PiPower(4, 2) == PiPower(2, 1) and PiPower(0, 5) == PiPower(0, 1)
    assert PiPower(-6, 4) == PiPower(-3, 2)


def test_named_tuples_are_tuples_of_their_fields():
    conv = Convergent(3, 22, 7)
    n, p, q = conv
    assert (n, p, q) == conv == (3, 22, 7) and conv[1:] == (22, 7)
    assert hash(conv) == hash((3, 22, 7))
    assert sorted([Convergent(2, 5, 3), Convergent(1, 2, 1)])[0].n == 1
    row = MeasureRow(2, 10, 1, None, None)
    assert row._replace(lagrange=Decimal(1)) == (2, 10, 1, None, Decimal(1))


def test_partial_quotients_is_a_sequence_of_its_terms():
    pq = PartialQuotients((9, 1, 6, 1, 2))
    assert len(pq) == 5 and pq[0] == 9 and pq[-1] == 2
    assert pq[1:3] == (1, 6) and list(pq) == [9, 1, 6, 1, 2]
    assert pq == PartialQuotients((9, 1, 6, 1, 2))
    assert pq != PartialQuotients((9, 1, 6, 1, 2), terminated=True)
    assert pq != pq.terms and hash(pq) == hash((pq.terms, False))
