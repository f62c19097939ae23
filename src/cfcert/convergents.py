"""Convergents p_n/q_n from partial quotients, by three engines.

The iterative recurrence, the sequential 2x2 matrix product, and a
balanced product tree all compute the same exact rationals; the tree
trades the recurrence's quadratic big-integer work for quasi-linear
work under subquadratic integer multiplication.  The matrix engine and
the tree run on plain row-major 4-tuples through the one 8-product
routine that ``Mat2.mul`` also uses, so the matrix engine stays an
arithmetic independent of the recurrence; for the final convergent
alone both sequential engines work in word-sized blocks, one big
product per block.  ``check_determinant`` verifies the identity directly
only where the recurrence does not already certify it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from math import gcd


class WorkCounter:
    """Tallies big-integer multiplication work, machine-independently.

    Each product contributes the sum of its operands' bit lengths, so the
    counter tracks the input size fed to the multiplier rather than wall
    time.  The recurrence records two products per quotient; every 2x2
    product, a recurrence block's join included, records eight.
    """

    def __init__(self):
        self.bits = 0
        self.multiplications = 0

    def record(self, x: int, y: int) -> None:
        self.bits += x.bit_length() + y.bit_length()
        self.multiplications += 1


class Convergent(namedtuple("Convergent", "n p q")):
    """Exact p_n/q_n in lowest terms, 0-based index n; a named tuple,
    validated by ``_make`` and ``_replace`` as by the constructor.

    Coprimality is certified by the determinant identity (a determinant
    of +-1 divides gcd(p, q)) rather than a per-instance gcd, which would
    dominate the runtime for long expansions; ``is_reduced`` recomputes
    it on demand.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the tuple's field count, then the constructor's checks
        return cls(*super()._make(iterable))

    def __new__(cls, n: int, p: int, q: int):
        if not type(n) is type(p) is type(q) is int:
            for name, value in zip(cls._fields, (n, p, q)):
                if type(value) is not int:
                    raise TypeError(f"{name} must be an int, not {value!r}")
        if q < 1:
            raise ValueError("denominator must be positive")
        return super().__new__(cls, n, p, q)

    def is_reduced(self) -> bool:
        return gcd(self.p, self.q) == 1

    @property
    def value(self) -> Fraction:
        from fractions import Fraction  # no command reads it
        return Fraction(self.p, self.q)


class Mat2(namedtuple("Mat2", "m00 m01 m10 m11")):
    """2x2 integer matrix, a row-major named 4-tuple, validated by ``_make``
    and ``_replace`` as by the constructor; quotient matrices have
    determinant -1.  ``@`` is the matrix product (``*`` and ``+`` are the
    tuple's repetition and concatenation)."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the tuple's field count, then the constructor's checks
        return cls(*super()._make(iterable))

    def __new__(cls, m00: int, m01: int, m10: int, m11: int):
        if not type(m00) is type(m01) is type(m10) is type(m11) is int:
            for name, value in zip(cls._fields, (m00, m01, m10, m11)):
                if type(value) is not int:
                    raise TypeError(f"{name} must be an int, not {value!r}")
        return super().__new__(cls, m00, m01, m10, m11)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def quotient(cls, a: int) -> "Mat2":
        if type(a) is not int:
            raise TypeError(f"a must be an int, not {a!r}")
        return cls(a, 1, 1, 0)

    def mul(self, other: "Mat2", counter: WorkCounter | None = None) -> "Mat2":
        return Mat2(*_mul4(self, other, counter))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return self.mul(other)

    def determinant(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10


def _mul4(x: tuple[int, int, int, int], y: tuple[int, int, int, int],
          counter: WorkCounter | None) -> tuple[int, int, int, int]:
    """The 2x2 product x*y of row-major 4-tuples: eight products."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    if counter is not None:
        counter.record(x00, y00)
        counter.record(x01, y10)
        counter.record(x00, y01)
        counter.record(x01, y11)
        counter.record(x10, y00)
        counter.record(x11, y10)
        counter.record(x10, y01)
        counter.record(x11, y11)
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _terms_of(quotients, upto: int) -> Sequence[int]:
    """The quotients as a list, checked as a simple continued fraction
    through index ``upto``: a_0..a_upto are ints, a_1..a_upto are >= 1."""
    if type(upto) is not int:
        raise TypeError(f"index must be an int, not {upto!r}")
    if upto < 0:
        raise IndexError(f"index {upto} is negative")
    terms = list(quotients)
    if upto >= len(terms):
        raise IndexError(f"index {upto} beyond {len(terms)} quotients")
    if {*map(type, terms[:upto + 1])} != {int}:
        k = next(k for k in range(upto + 1) if type(terms[k]) is not int)
        raise TypeError(f"quotient {k} is {terms[k]!r}; quotients must be ints")
    if upto and min(islice(terms, 1, upto + 1)) < 1:
        k = next(k for k in range(1, upto + 1) if terms[k] < 1)
        raise ValueError(f"quotient {k} is {terms[k]}; quotients after "
                         f"a_0 must be >= 1")
    return terms


def _recurrence_pairs(quotients: Iterable[int],
                      counter: WorkCounter | None) -> Iterator[tuple[int, int]]:
    """(p_n, q_n) for each quotient a_n, by the two-term recurrence.

    Seeds p_-2=0, p_-1=1, q_-2=1, q_-1=0; a quotient is drawn only when
    its pair is asked for.  A unit quotient (about 41 % of a
    Gauss-Kuzmin stream) takes two additions and no product; the
    counter records its two products all the same, so the work tally
    does not depend on how a step is carried out.
    """
    p_prev2, p_prev1 = 0, 1
    q_prev2, q_prev1 = 1, 0
    for a in quotients:
        if counter is not None:
            counter.record(a, p_prev1)
            counter.record(a, q_prev1)
        if a == 1:
            p_prev2, p_prev1 = p_prev1, p_prev1 + p_prev2
            q_prev2, q_prev1 = q_prev1, q_prev1 + q_prev2
        else:
            p_prev2, p_prev1 = p_prev1, a * p_prev1 + p_prev2
            q_prev2, q_prev1 = q_prev1, a * q_prev1 + q_prev2
        yield p_prev1, q_prev1


def _matrix_pairs(terms: Sequence[int], upto: int,
                  counter: WorkCounter | None) -> Iterator[tuple[int, int]]:
    """(p_n, q_n) for n = 0..upto from the running matrix product.

    After folding a_0..a_n the product is [[p_n, p_n-1], [q_n, q_n-1]];
    its first column is read off at every step.  Each step is a full
    2x2 product with [[a, 1], [1, 0]], so this engine cross-checks the
    recurrence by other arithmetic rather than restating it.
    """
    acc = (1, 0, 0, 1)
    for n in range(upto + 1):
        acc = _mul4(acc, (terms[n], 1, 1, 0), counter)
        yield acc[0], acc[2]


# |p| that closes a block in final_convergent's sequential paths: a word
_BLOCK_BOUND = 1 << 60


def convergents_iter(quotients, upto: int,
                     counter: WorkCounter | None = None) -> list[Convergent]:
    """Convergents 0..upto by the two-term recurrence."""
    pairs = _recurrence_pairs(islice(_terms_of(quotients, upto), upto + 1), counter)
    return [Convergent(n, p, q) for n, (p, q) in enumerate(pairs)]


def convergents_matrix(quotients, upto: int,
                       counter: WorkCounter | None = None) -> list[Convergent]:
    """Convergents 0..upto from the running left-to-right matrix product."""
    pairs = _matrix_pairs(_terms_of(quotients, upto), upto, counter)
    return [Convergent(n, p, q) for n, (p, q) in enumerate(pairs)]


def convergents_fast(quotients, n: int,
                     counter: WorkCounter | None = None) -> Convergent:
    """The single convergent p_n/q_n via a balanced product tree.

    Adjacent factors are multiplied pairwise level by level, preserving
    the left-to-right order of the non-commutative product.  The levels
    hold plain row-major 4-tuples, so no ``Mat2`` is built per product.
    """
    terms = _terms_of(quotients, n)
    level = [(terms[i], 1, 1, 0) for i in range(n + 1)]
    while len(level) > 1:
        nxt = [_mul4(level[i], level[i + 1], counter)
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    p, _, q, _ = level[0]
    return Convergent(n, p, q)


def final_convergent(quotients, n: int, engine: str = "iter",
                     counter: WorkCounter | None = None) -> Convergent:
    """Only p_n/q_n, without materialising the intermediate convergents.

    Matches the list engines' last element; lets benchmarks run the
    sequential engines at lengths where storing every convergent would
    exhaust memory.  Both sequential engines work in blocks: once |p|
    reaches ``_BLOCK_BOUND``, or the last quotient is in, one full 2x2
    product takes the block into the big running product, so that is
    passed over about once a block rather than once a quotient.  The
    matrix engine multiplies the block's quotient matrices from its
    first: still n + 1 products, most of them small.  The recurrence
    runs from its seeds over the block's quotients b_1..b_k; its last
    two pairs are the continuants P_k = K(b_1..b_k), Q_k = K(b_2..b_k)
    and P_k-1, Q_k-1, which make the block's matrix (Euler's identity
    p_m+k = p_m P_k + p_m-1 Q_k): two small products per quotient and
    eight per join.
    """
    if engine == "fast":
        return convergents_fast(quotients, n, counter)
    if engine == "iter":
        acc, stream = (1, 0, 0, 1), islice(_terms_of(quotients, n), n + 1)
        while True:
            pairs = [(1, 0)]  # p_-1, q_-1: the pair before the block's first
            for p, q in _recurrence_pairs(stream, counter):
                pairs.append((p, q))
                if abs(p) >= _BLOCK_BOUND:
                    break
            if len(pairs) == 1:  # no quotient left
                return Convergent(n, acc[0], acc[2])
            (p_before, q_before), (p, q) = pairs[-2:]
            acc = _mul4(acc, (p, p_before, q, q_before), counter)
    if engine != "matrix":
        raise ValueError(f"unknown engine {engine!r}")
    acc, block = (1, 0, 0, 1), None
    for a in islice(_terms_of(quotients, n), n + 1):
        block = (a, 1, 1, 0) if block is None else _mul4(block, (a, 1, 1, 0), counter)
        if abs(block[0]) >= _BLOCK_BOUND:
            acc, block = _mul4(acc, block, counter), None
    if block is not None:
        acc = _mul4(acc, block, counter)
    return Convergent(n, acc[0], acc[2])


def check_determinant(seq: Sequence[Convergent]) -> bool:
    """Whether p_n*q_n-1 - p_n-1*q_n = (-1)^(n-1) along the sequence.

    The first pair is checked by its two products.  After that, a pair
    with consecutive indices that the recurrence links to the pair
    before it, p_n = a*p_n-1 + p_n-2 and q_n = a*q_n-1 + q_n-2 for
    a = (q_n - q_n-2) // q_n-1, has determinant exactly minus the
    previous one, so the previous pair's verdict carries over; each such
    test costs time linear in the size.  Any other pair falls back to
    the two products, so the verdict is the direct check's on every
    input.
    """
    for i in range(1, len(seq)):
        prev, cur = seq[i - 1], seq[i]
        if i > 1 and cur.n == prev.n + 1:
            before = seq[i - 2]
            a = (cur.q - before.q) // prev.q
            if cur.p == a * prev.p + before.p and cur.q == a * prev.q + before.q:
                continue  # det = -(previous det), which passed
        if cur.p * prev.q - prev.p * cur.q != (1 if cur.n % 2 else -1):
            return False
    return True


def telescoping_sums(quotients, upto: int) -> Iterator[tuple[int, int]]:
    """a_0 + sum_{0<=k<n} (-1)^k / (q_k * q_k+1) as (N_n, q_n) for n = 0..upto,
    by N_k+1 = (N_k * q_k+1 + (-1)^k) / q_k: exact, as N_k = p_k and
    p_k+1 * q_k - p_k * q_k+1 = (-1)^k for any integer quotients; no gcd.

    Every prefix costs a division of an n-digit numerator, so the stream
    grows faster than n^2; ``telescoping_sum`` splits the single sum.
    """
    terms = _terms_of(quotients, upto)
    total, q_prev, sign = terms[0], 1, 1  # q_0 = 1
    yield total, q_prev
    for _, q in islice(_recurrence_pairs(islice(terms, upto + 1), None), 1, None):
        total = (total * q + sign) // q_prev
        yield total, q
        q_prev, sign = q, -sign


def telescoping_sum(quotients, n: int) -> Fraction:
    """a_0 + sum_{0<=k<n} (-1)^k / (q_k * q_k+1), exactly p_n/q_n.

    The sum is split in balanced halves (binary splitting of a rational
    series).  Segment [l, r) carries the integer
    D(l, r) = q_l * q_r * sum_{l<=k<r} (-1)^k / (q_k * q_k+1), so
    D(k, k+1) = (-1)^k and two halves join as
    D(l, r) = (D(l, m) * q_r + D(m, r) * q_l) / q_m, a division that is
    exact because D(l, r) = p_r * q_l - p_l * q_r.  The in-order
    recursion takes (q_l-1, q_l) and returns (q_r-1, q_r), advancing the
    q recurrence as it goes, so no list of q is kept.  The sum is
    (a_0 * q_n + D(0, n)) / q_n.
    """
    from fractions import Fraction  # no command calls this
    terms = _terms_of(quotients, n)

    def split(lo: int, hi: int, q_before: int, q_lo: int):
        if hi - lo == 1:
            return (-1 if lo & 1 else 1), q_lo, terms[hi] * q_lo + q_before
        mid = (lo + hi) // 2
        left, q_before, q_mid = split(lo, mid, q_before, q_lo)
        right, q_before, q_hi = split(mid, hi, q_before, q_mid)
        return (left * q_hi + right * q_lo) // q_mid, q_before, q_hi

    if n == 0:
        return Fraction(terms[0])
    total, _, q_n = split(0, n, 0, 1)  # q_-1 = 0, q_0 = 1
    return Fraction(terms[0] * q_n + total, q_n)


def fib_power(n: int) -> Mat2:
    """n-th power of [[1,1],[1,0]] by binary exponentiation.

    Entries are [[F_n+1, F_n], [F_n, F_n-1]]; n = 0 gives the identity.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, not {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    result = Mat2.identity()
    base = Mat2.quotient(1)
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result
