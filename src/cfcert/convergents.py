"""Convergents p_n/q_n from partial quotients, by three engines.

The iterative recurrence, the sequential 2x2 matrix product, and a
balanced product tree all compute the same exact rationals; the tree
trades the recurrence's quadratic big-integer work for quasi-linear
work under subquadratic integer multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, Sequence


class WorkCounter:
    """Tallies big-integer multiplication work, machine-independently.

    Each product contributes the sum of its operands' bit lengths, so the
    counter tracks the input size fed to the multiplier rather than wall
    time.
    """

    def __init__(self):
        self.bits = 0
        self.multiplications = 0

    def record(self, x: int, y: int) -> None:
        self.bits += x.bit_length() + y.bit_length()
        self.multiplications += 1


@dataclass(frozen=True)
class Convergent:
    """Exact p_n/q_n in lowest terms, 0-based index n.

    Coprimality is certified by the determinant identity (a determinant
    of +-1 divides gcd(p, q)) rather than a per-instance gcd, which would
    dominate the runtime for long expansions; ``is_reduced`` recomputes
    it on demand.
    """

    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator must be positive")

    def is_reduced(self) -> bool:
        return gcd(self.p, self.q) == 1

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix; quotient matrices have determinant -1."""

    m00: int
    m01: int
    m10: int
    m11: int

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def quotient(cls, a: int) -> "Mat2":
        return cls(a, 1, 1, 0)

    def mul(self, other: "Mat2", counter: WorkCounter | None = None) -> "Mat2":
        if counter is not None:
            # eight products in a 2x2 multiply
            counter.record(self.m00, other.m00)
            counter.record(self.m01, other.m10)
            counter.record(self.m00, other.m01)
            counter.record(self.m01, other.m11)
            counter.record(self.m10, other.m00)
            counter.record(self.m11, other.m10)
            counter.record(self.m10, other.m01)
            counter.record(self.m11, other.m11)
        return Mat2(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return self.mul(other)

    def determinant(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10


def _terms_of(quotients, upto: int) -> Sequence[int]:
    terms = list(quotients)
    if upto >= len(terms):
        raise IndexError(f"index {upto} beyond {len(terms)} quotients")
    return terms


def _recurrence_pairs(terms: Sequence[int], upto: int,
                      counter: WorkCounter | None) -> Iterator[tuple[int, int]]:
    """(p_n, q_n) for n = 0..upto by the two-term recurrence.

    Seeds p_-2=0, p_-1=1, q_-2=1, q_-1=0.
    """
    p_prev2, p_prev1 = 0, 1
    q_prev2, q_prev1 = 1, 0
    for n in range(upto + 1):
        a = terms[n]
        if counter is not None:
            counter.record(a, p_prev1)
            counter.record(a, q_prev1)
        p_prev2, p_prev1 = p_prev1, a * p_prev1 + p_prev2
        q_prev2, q_prev1 = q_prev1, a * q_prev1 + q_prev2
        yield p_prev1, q_prev1


def _matrix_pairs(terms: Sequence[int], upto: int,
                  counter: WorkCounter | None) -> Iterator[tuple[int, int]]:
    """(p_n, q_n) for n = 0..upto from the running matrix product.

    After folding a_0..a_n the product is [[p_n, p_n-1], [q_n, q_n-1]];
    its first column is read off at every step.
    """
    acc = Mat2.identity()
    for n in range(upto + 1):
        acc = acc.mul(Mat2.quotient(terms[n]), counter)
        yield acc.m00, acc.m10


_PAIR_STREAMS = {"iter": _recurrence_pairs, "matrix": _matrix_pairs}


def convergents_iter(quotients, upto: int,
                     counter: WorkCounter | None = None) -> list[Convergent]:
    """Convergents 0..upto by the two-term recurrence."""
    pairs = _recurrence_pairs(_terms_of(quotients, upto), upto, counter)
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
    the left-to-right order of the non-commutative product.
    """
    terms = _terms_of(quotients, n)
    level = [Mat2.quotient(terms[i]) for i in range(n + 1)]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(level[i].mul(level[i + 1], counter))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return Convergent(n, level[0].m00, level[0].m10)


def final_convergent(quotients, n: int, engine: str = "iter",
                     counter: WorkCounter | None = None) -> Convergent:
    """Only p_n/q_n, without materialising the intermediate convergents.

    Matches the list engines' last element; lets benchmarks run the
    sequential engines at lengths where storing every convergent would
    exhaust memory.
    """
    if engine == "fast":
        return convergents_fast(quotients, n, counter)
    if engine not in _PAIR_STREAMS:
        raise ValueError(f"unknown engine {engine!r}")
    p, q = 1, 0  # the seeds p_-1, q_-1, left when the stream is empty
    for p, q in _PAIR_STREAMS[engine](_terms_of(quotients, n), n, counter):
        pass  # keep only the last pair
    return Convergent(n, p, q)


def check_determinant(seq: Sequence[Convergent]) -> bool:
    """Whether p_n*q_n-1 - p_n-1*q_n = (-1)^(n-1) along the sequence."""
    for prev, cur in zip(seq, seq[1:]):
        det = cur.p * prev.q - prev.p * cur.q
        if det != (-1) ** (cur.n - 1):
            return False
    return True


def _telescoping_sums(quotients, upto: int) -> Iterator[Fraction]:
    """a_0 + sum_{0<=k<n} (-1)^k / (q_k * q_k+1) for n = 0..upto, in one pass."""
    terms = _terms_of(quotients, upto)
    total = Fraction(terms[0])
    yield total
    q_prev, sign = 1, 1  # q_0 = 1
    for _, q in islice(_recurrence_pairs(terms, upto, None), 1, None):
        total += Fraction(sign, q_prev * q)
        yield total
        q_prev, sign = q, -sign


def telescoping_sum(quotients, n: int) -> Fraction:
    """a_0 + sum_{0<=k<n} (-1)^k / (q_k * q_k+1), exactly p_n/q_n."""
    for total in _telescoping_sums(quotients, n):
        pass  # keep only the last sum
    return total


def fib_power(n: int) -> Mat2:
    """n-th power of [[1,1],[1,0]] by binary exponentiation.

    Entries are [[F_n+1, F_n], [F_n, F_n-1]]; n = 0 gives the identity.
    """
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
