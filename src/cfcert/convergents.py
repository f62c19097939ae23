"""Convergents p_n/q_n from partial quotients, by three engines.

The iterative recurrence, the sequential 2x2 matrix product, and a
balanced product tree all compute the same exact rationals; the tree
trades the recurrence's quadratic big-integer work for quasi-linear
work under subquadratic integer multiplication.  Both sequential
engines yield the state [[p_n, p_n-1], [q_n, q_n-1]] as a row-major
4-tuple, the matrix engine through the 8-product routine of the tree
and ``Mat2.mul``, so it stays an arithmetic independent of the
recurrence.  For the final convergent alone either stream is cut into
word-sized blocks, which the matrix engine joins by the tree and the
recurrence by a fold from the left; no engine multiplies by the
identity.
``check_determinant`` verifies the identity directly only where the
recurrence does not already certify it.
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
    time.  The recurrence records two products per quotient, and every
    2x2 product eight: one per quotient after the first in the matrix
    engine and the tree, and one per block after the first in a final
    path, whether the blocks join by the tree or by a fold.
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


def _recurrence_states(quotients: Iterable[int], counter: WorkCounter | None
                       ) -> Iterator[tuple[int, int, int, int]]:
    """The state (p_n, p_n-1, q_n, q_n-1) for each quotient a_n, by the
    two-term recurrence.

    Seeds p_-1=1, p_-2=0, q_-1=0, q_-2=1, the identity; a quotient is
    drawn only when its state is asked for.  A unit quotient (about 41 %
    of a Gauss-Kuzmin stream) takes two additions and no product; the
    counter records its two products all the same, so the work tally
    does not depend on how a step is carried out.
    """
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for a in quotients:
        if counter is not None:
            counter.record(a, p)
            counter.record(a, q)
        if a == 1:
            p, p_prev, q, q_prev = p + p_prev, p, q + q_prev, q
        else:
            p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        yield p, p_prev, q, q_prev


def _matrix_states(quotients: Iterable[int], counter: WorkCounter | None
                   ) -> Iterator[tuple[int, int, int, int]]:
    """The state [[p_n, p_n-1], [q_n, q_n-1]] for each quotient a_n, as the
    running product of the matrices [[a, 1], [1, 0]].

    The first state is a_0's matrix itself; each later one is a full 2x2
    product, so this stream cross-checks the recurrence by other
    arithmetic rather than restating it.  Quotients are drawn lazily.
    """
    state = None
    for a in quotients:
        state = (a, 1, 1, 0) if state is None else _mul4(state, (a, 1, 1, 0), counter)
        yield state


# |p| that closes a block in final_convergent's sequential paths: a word
_BLOCK_BOUND = 1 << 60


def _blocks(states, quotients: Iterator[int], counter: WorkCounter | None
            ) -> Iterator[tuple[int, int, int, int]]:
    """The products of consecutive runs of the quotients, in order, from
    ``states`` (either state stream): a run starts the stream afresh on
    the quotients still to come and closes once |p| reaches
    ``_BLOCK_BOUND`` or the quotients run out, and its last state is
    the product of its quotient matrices."""
    while True:
        block = None
        for block in states(quotients, counter):
            if abs(block[0]) >= _BLOCK_BOUND:
                break
        if block is None:  # no quotient left
            return
        yield block


def _tree(level: list[tuple[int, int, int, int]], counter: WorkCounter | None
          ) -> tuple[int, int, int, int]:
    """The product of the row-major 4-tuples in ``level``, left to right,
    by a balanced tree: adjacent factors are multiplied pairwise level
    by level, an odd last factor passing up unchanged, so k factors take
    k - 1 products and operand sizes grow evenly."""
    while len(level) > 1:
        nxt = [_mul4(level[i], level[i + 1], counter)
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def convergents_iter(quotients, upto: int,
                     counter: WorkCounter | None = None) -> list[Convergent]:
    """Convergents 0..upto by the two-term recurrence."""
    states = _recurrence_states(islice(_terms_of(quotients, upto), upto + 1), counter)
    return [Convergent(n, p, q) for n, (p, _, q, _) in enumerate(states)]


def convergents_matrix(quotients, upto: int,
                       counter: WorkCounter | None = None) -> list[Convergent]:
    """Convergents 0..upto from the running left-to-right matrix product."""
    states = _matrix_states(islice(_terms_of(quotients, upto), upto + 1), counter)
    return [Convergent(n, p, q) for n, (p, _, q, _) in enumerate(states)]


def convergents_fast(quotients, n: int,
                     counter: WorkCounter | None = None) -> Convergent:
    """The single convergent p_n/q_n via a balanced product tree of the
    quotient matrices, held as plain row-major 4-tuples, so no ``Mat2``
    is built per product."""
    terms = _terms_of(quotients, n)
    p, _, q, _ = _tree([(terms[i], 1, 1, 0) for i in range(n + 1)], counter)
    return Convergent(n, p, q)


def final_convergent(quotients, n: int, engine: str = "iter",
                     counter: WorkCounter | None = None) -> Convergent:
    """Only p_n/q_n, without materialising the intermediate convergents.

    Matches the list engines' last element; lets benchmarks run the
    sequential engines at lengths where storing every convergent would
    exhaust memory.  Both sequential engines cut the quotients into the
    word-sized blocks of ``_blocks``.  The matrix engine multiplies its
    blocks by ``_tree``, as ``convergents_fast`` does its quotients, so
    the big products form a balanced tree; the recurrence folds its
    blocks from the left, each joining the running product by one full
    2x2 product.  A tree of k blocks takes the same k - 1 products as
    the fold, so the product counts do not depend on the join; inside a
    block the recurrence takes two small products per quotient and the
    matrix stream eight per quotient after the block's first.
    """
    if engine == "fast":
        return convergents_fast(quotients, n, counter)
    if engine not in ("iter", "matrix"):
        raise ValueError(f"unknown engine {engine!r}")
    stream = islice(_terms_of(quotients, n), n + 1)
    if engine == "matrix":
        acc = _tree(list(_blocks(_matrix_states, stream, counter)), counter)
    else:
        blocks = _blocks(_recurrence_states, stream, counter)
        acc = next(blocks)
        for block in blocks:
            acc = _mul4(acc, block, counter)
    return Convergent(n, acc[0], acc[2])


def check_determinant(seq: Sequence[Convergent]) -> bool:
    """Whether p_n*q_n-1 - p_n-1*q_n = (-1)^(n-1) along the sequence.

    The first pair is checked by its two products.  After that, a pair
    with consecutive indices that the recurrence links to the pair
    before it, p_n = a*p_n-1 + p_n-2 and q_n = a*q_n-1 + q_n-2, has
    determinant exactly minus the previous one, so the previous pair's
    verdict carries over; each such test costs time linear in the size.
    The candidate a is q_n // q_n-1 with both cut to q_n-1's top 64
    bits, so no big division is made; it can miss a_n, as can any
    candidate on a tampered pair.  Any pair that fails the test falls
    back to the two products, so the verdict is the direct check's on
    every input.
    """
    for i in range(1, len(seq)):
        prev, cur = seq[i - 1], seq[i]
        if i > 1 and cur.n == prev.n + 1:
            before = seq[i - 2]
            s = prev.q.bit_length() - 64
            a = cur.q // prev.q if s <= 0 else (cur.q >> s) // (prev.q >> s)
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
    total, sign = terms[0], 1
    yield total, 1  # q_0 = 1
    states = _recurrence_states(islice(terms, upto + 1), None)
    for _, _, q, q_prev in islice(states, 1, None):
        total = (total * q + sign) // q_prev
        yield total, q
        sign = -sign


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
