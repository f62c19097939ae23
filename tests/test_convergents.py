"""Engine tests: recurrence, matrix product, product tree, identities."""

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcert import (
    Convergent,
    Mat2,
    PiPower,
    WorkCounter,
    check_determinant,
    convergents_fast,
    convergents_iter,
    convergents_matrix,
    expand,
    fib_power,
    final_convergent,
    telescoping_sum,
    telescoping_sums,
)
from cfcert.convergents import _blocks, _matrix_states, _recurrence_states

# any first quotient >= 0, later ones >= 1
expansions = st.tuples(
    st.integers(0, 50), st.lists(st.integers(1, 50), min_size=0, max_size=35)
).map(lambda t: [t[0]] + t[1])


def gauss_kuzmin_like(n: int, seed: int) -> list[int]:
    """Seeded quotients with P(a = k) = 1/k - 1/(k+1)."""
    rng = random.Random(seed)
    return [int(1 / (1 - rng.random())) for _ in range(n)]


def fraction_telescoping_sums(terms, upto: int):
    """The Fraction loop that ``telescoping_sums`` replaced: every partial
    sum is a reduced Fraction.  Kept as the reference."""
    total = Fraction(terms[0])
    yield total
    sign = 1
    states = _recurrence_states(islice(terms, upto + 1), None)
    for _, _, q, q_prev in islice(states, 1, None):
        total += Fraction(sign, q_prev * q)
        yield total
        sign = -sign


def fold_rational(terms) -> Fraction:
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


def recurrence_reference(terms) -> tuple[int, int]:
    """(p, q) of the whole expansion by the plain two-term recurrence."""
    p0, p1, q0, q1 = 0, 1, 1, 0
    for a in terms:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
    return p1, q1


def direct_check_determinant(seq) -> bool:
    """The determinant identity by two full products per pair."""
    for prev, cur in zip(seq, seq[1:]):
        det = cur.p * prev.q - prev.p * cur.q
        if det != (-1) ** (cur.n - 1):
            return False
    return True


# mostly 1, some 2-9, rarely a quotient of 61 to 300 bits that alone passes
# the block bound of 2^60 of both sequential final paths
mixed_quotients = st.integers(0, 39).flatmap(
    lambda k: st.just(1) if k < 24 else
    st.integers(2, 9) if k < 39 else st.integers(2 ** 60, 2 ** 300))


@st.composite
def blocked_streams(draw):
    """(terms, n) with a_0 in +-10^30 and up to 300 mixed quotients after it;
    n is often the last index, and a stream may end in a large quotient, so
    a block closes exactly there (with a_0 >= 1, every block's first entry
    is at least the quotient last folded into it)."""
    a0 = draw(st.integers(-10 ** 30, 10 ** 30))
    rest = draw(st.lists(mixed_quotients, max_size=300))
    if draw(st.booleans()):
        a0 = max(a0, 1)
        rest.append(draw(st.integers(2 ** 60, 2 ** 300)))
    terms = [a0] + rest
    n = draw(st.one_of(st.just(len(terms) - 1), st.integers(0, len(terms) - 1)))
    return terms, n


@st.composite
def convergent_sequences(draw):
    """Convergent runs, valid or with tampered values or indices."""
    terms = draw(expansions)
    seq = convergents_iter(terms, len(terms) - 1)
    seq = seq[draw(st.integers(0, len(seq) - 1)):]
    if draw(st.booleans()):  # renumber from 0, whatever the first index was
        seq = [Convergent(i, c.p, c.q) for i, c in enumerate(seq)]
    if draw(st.booleans()):  # shift every index
        shift = draw(st.integers(-4, 4))
        seq = [Convergent(c.n + shift, c.p, c.q) for c in seq]
    if draw(st.booleans()):  # a gap in the indices from some position on
        at, gap = draw(st.integers(0, len(seq) - 1)), draw(st.integers(-3, 3))
        seq = seq[:at] + [Convergent(c.n + gap, c.p, c.q) for c in seq[at:]]
    for _ in range(draw(st.integers(0, 2))):  # replace one p or one q
        i = draw(st.integers(0, len(seq) - 1))
        c = seq[i]
        if draw(st.booleans()):
            c = Convergent(c.n, draw(st.integers(-10**6, 10**6)), c.q)
        else:
            c = Convergent(c.n, c.p, draw(st.integers(1, 10**6)))
        seq[i] = c
    return seq


class TestIterEngine:
    def test_pi2_prefix(self):
        convs = convergents_iter([9, 1, 6, 1, 2, 47], 5)
        assert (convs[-1].p, convs[-1].q) == (10748, 1089)

    def test_fibonacci_ratios(self):
        convs = convergents_iter([1, 1, 1, 1, 1], 4)
        assert [(c.p, c.q) for c in convs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]

    @settings(max_examples=50, deadline=None)
    @given(expansions)
    def test_matches_exact_fold(self, terms):
        convs = convergents_iter(terms, len(terms) - 1)
        assert convs[-1].value == fold_rational(terms)

    def test_certified_bound_respected(self):
        q = expand(PiPower(2, 1), 10)
        with pytest.raises(IndexError):
            convergents_iter(q, len(q))


class TestMatrixEngine:
    def test_small_product(self):
        convs = convergents_matrix([9, 1, 6], 2)
        assert (convs[2].p, convs[2].q) == (69, 7)
        assert (convs[1].p, convs[1].q) == (10, 1)

    def test_single_quotient(self):
        convs = convergents_matrix([7], 0)
        assert (convs[0].p, convs[0].q) == (7, 1)
        m = Mat2.quotient(7)
        assert (m.m00, m.m01, m.m10, m.m11) == (7, 1, 1, 0)

    @settings(max_examples=50, deadline=None)
    @given(expansions)
    def test_identical_to_iter(self, terms):
        n = len(terms) - 1
        assert convergents_matrix(terms, n) == convergents_iter(terms, n)


class TestFastEngine:
    def test_all_ones_is_fibonacci(self):
        # p_n = F_n+2, q_n = F_n+1 with F_1 = F_2 = 1
        fib = [0, 1]
        for _ in range(70):
            fib.append(fib[-1] + fib[-2])
        c = convergents_fast([1] * 64, 63)
        assert (c.p, c.q) == (fib[65], fib[64])

    @settings(max_examples=50, deadline=None)
    @given(expansions)
    def test_identical_to_iter(self, terms):
        n = len(terms) - 1
        ref = convergents_iter(terms, n)[-1]
        fast = convergents_fast(terms, n)
        assert (fast.p, fast.q) == (ref.p, ref.q)

    def test_large_random_expansion(self):
        import random
        rng = random.Random(7)
        terms = [rng.randint(1, 9) for _ in range(10_000)]
        ref = final_convergent(terms, 9_999, "iter")
        fast = convergents_fast(terms, 9_999)
        assert (fast.p, fast.q) == (ref.p, ref.q)

    def test_work_counter_records(self):
        counter = WorkCounter()
        convergents_fast([1] * 32, 31, counter)
        assert counter.multiplications == 8 * 31
        assert counter.bits > 0

    def test_work_counter_pinned(self):
        # the tree keeps its merge order and its eight records per product
        rng = random.Random(7)
        terms = [rng.randint(1, 9) for _ in range(10_000)]
        counter = WorkCounter()
        convergents_fast(terms, 9_999, counter)
        assert (counter.bits, counter.multiplications) == (2_147_344, 79_992)


class TestWorkCounters:
    @pytest.mark.parametrize("terms, pinned, pinned_final", [
        (gauss_kuzmin_like(3_000, seed=3), 53_422_672, 934_926),
        ([1] * 3_000, 24_986_530, 822_086),
    ], ids=["gauss-kuzmin", "ones"])
    def test_matrix_records_eight_products_per_quotient(self, terms, pinned,
                                                        pinned_final):
        # eight per quotient after the first, as a_0's matrix is the first
        # state; the final path forms as many, most of them on small blocks
        n = len(terms) - 1
        final, listed = WorkCounter(), WorkCounter()
        final_convergent(terms, n, "matrix", final)
        convergents_matrix(terms, n, listed)
        assert (listed.bits, listed.multiplications) == (pinned, 8 * n)
        assert (final.bits, final.multiplications) == (pinned_final, 8 * n)
        assert final.bits < listed.bits / 10

    @pytest.mark.parametrize("terms, pinned, pinned_final, joins", [
        (gauss_kuzmin_like(3_000, seed=3), 13_366_143, 1_512_767, 72),
        ([1] * 3_000, 6_250_216, 491_585, 34),
    ], ids=["gauss-kuzmin", "ones"])
    def test_recurrence_records_two_products_per_quotient(self, terms, pinned,
                                                          pinned_final, joins):
        # a unit quotient takes no product but is still counted as two; the
        # final path adds eight per join of a block after the first, and
        # its blocks stay small
        n = len(terms) - 1
        final, listed = WorkCounter(), WorkCounter()
        final_convergent(terms, n, "iter", final)
        convergents_iter(terms, n, listed)
        assert (listed.bits, listed.multiplications) == (pinned, 2 * len(terms))
        assert (final.bits, final.multiplications) == (pinned_final,
                                                       2 * len(terms) + 8 * joins)
        assert final.bits < listed.bits / 5

    def test_mat2_mul_records_eight_products(self):
        x, y = Mat2(3, 5, 7, 11), Mat2(13, 17, 19, 23)
        counter = WorkCounter()
        product = x.mul(y, counter)
        assert product == x @ y == Mat2(134, 166, 300, 372)
        assert Mat2.identity() @ x == x @ Mat2.identity() == x
        # each entry of either factor takes part in two of the eight
        assert counter.multiplications == 8
        assert counter.bits == 2 * sum(v.bit_length() for v in (3, 5, 7, 11, 13, 17, 19, 23))


@lru_cache(maxsize=None)
def scale_case(stream: str) -> tuple[list[int], tuple[int, int]]:
    terms = gauss_kuzmin_like(20_001, seed=11) if stream == "gauss-kuzmin" else [1] * 20_001
    return terms, recurrence_reference(terms)


class TestAtScale:
    @pytest.mark.parametrize("engine", ["iter", "matrix", "fast"])
    @pytest.mark.parametrize("stream", ["gauss-kuzmin", "ones"])
    def test_final_convergent_matches_recurrence(self, stream, engine):
        terms, (p, q) = scale_case(stream)
        got = final_convergent(terms, 20_000, engine)
        assert (got.n, got.p, got.q) == (20_000, p, q)


class TestNegativeIndex:
    @pytest.mark.parametrize("call", [
        lambda t: convergents_iter(t, -1),
        lambda t: convergents_matrix(t, -1),
        lambda t: convergents_fast(t, -1),
        lambda t: final_convergent(t, -1, "iter"),
        lambda t: final_convergent(t, -1, "matrix"),
        lambda t: final_convergent(t, -1, "fast"),
        lambda t: telescoping_sum(t, -1),
        lambda t: list(telescoping_sums(t, -2)),
    ], ids=["iter", "matrix", "fast", "final-iter", "final-matrix",
            "final-fast", "telescoping", "telescoping-sums"])
    def test_every_engine_rejects_it(self, call):
        with pytest.raises(IndexError, match=r"index -\d+ is negative"):
            call([9, 1, 6])


class TestIndexIsAnInt:
    # True once ran as index 1 (two convergents, or Convergent(n=True, ...)),
    # and a float index raised an unnamed slice TypeError
    @pytest.mark.parametrize("index", [True, False, 1.0, 2.5, "1"])
    @pytest.mark.parametrize("call", [
        convergents_iter, convergents_matrix, convergents_fast,
        lambda t, i: final_convergent(t, i, "iter"),
        lambda t, i: final_convergent(t, i, "matrix"),
        lambda t, i: final_convergent(t, i, "fast"),
        telescoping_sum, lambda t, i: list(telescoping_sums(t, i)),
    ], ids=["iter", "matrix", "fast", "final-iter", "final-matrix",
            "final-fast", "telescoping", "telescoping-sums"])
    def test_every_engine_refuses_it_by_name(self, call, index):
        with pytest.raises(TypeError, match=f"^index must be an int, not {re.escape(repr(index))}$"):
            call([1, 2, 3], index)


class TestInvalidQuotients:
    every_entry_point = pytest.mark.parametrize("call", [
        lambda t: convergents_iter(t, len(t) - 1),
        lambda t: convergents_matrix(t, len(t) - 1),
        lambda t: convergents_fast(t, len(t) - 1),
        lambda t: final_convergent(t, len(t) - 1, "iter"),
        lambda t: final_convergent(t, len(t) - 1, "matrix"),
        lambda t: final_convergent(t, len(t) - 1, "fast"),
        lambda t: telescoping_sum(t, len(t) - 1),
        lambda t: list(telescoping_sums(t, len(t) - 1)),
    ], ids=["iter", "matrix", "fast", "final-iter", "final-matrix",
            "final-fast", "telescoping", "telescoping-sums"])

    @every_entry_point
    @pytest.mark.parametrize("terms, index, value", [
        ([1, 0, 2], 1, 0),
        ([1, -1, 2], 1, -1),
        ([0, 0], 1, 0),
        ([3, 1, 2, 0], 3, 0),
    ])
    def test_every_engine_rejects_a_quotient_below_one(self, call, terms,
                                                      index, value):
        with pytest.raises(ValueError, match=rf"^quotient {index} is {value};"):
            call(terms)

    @every_entry_point
    @pytest.mark.parametrize("terms, index, value", [
        ([1, 2.5, 3], 1, 2.5),
        ([1.0, 2], 0, 1.0),
        ([1, 2, Fraction(5, 2)], 2, Fraction(5, 2)),
        ([1, "2"], 1, "2"),
        ([1, True], 1, True),
    ], ids=["float", "float-a0", "fraction", "str", "bool"])
    def test_every_engine_rejects_a_quotient_that_is_not_an_int(self, call, terms,
                                                                index, value):
        message = rf"^quotient {index} is {re.escape(repr(value))}; quotients must be ints$"
        with pytest.raises(TypeError, match=message):
            call(terms)

    def test_only_the_used_prefix_is_checked(self):
        assert convergents_iter([1, 2, 0], 1)[-1] == Convergent(1, 3, 2)
        assert convergents_iter([1, 2, 2.5], 1)[-1] == Convergent(1, 3, 2)
        assert telescoping_sum([-4, 0], 0) == -4
        assert telescoping_sum([-4, 0.5], 0) == -4
        assert list(telescoping_sums([0, 1, 0], 1)) == [(0, 1), (1, 1)]


class TestFinalConvergent:
    @pytest.mark.parametrize("engine", ["iter", "matrix", "fast"])
    def test_matches_list_engines(self, engine):
        terms = [9, 1, 6, 1, 2, 47, 1, 8]
        ref = convergents_iter(terms, 7)[-1]
        got = final_convergent(terms, 7, engine)
        assert (got.p, got.q) == (ref.p, ref.q)

    @settings(max_examples=300, deadline=None)
    @given(blocked_streams())
    def test_blocked_matrix_product_matches_the_recurrence(self, stream):
        terms, n = stream
        assert final_convergent(terms, n, "matrix") == Convergent(
            n, *recurrence_reference(terms[:n + 1]))

    @settings(max_examples=300, deadline=None)
    @given(blocked_streams())
    def test_blocked_recurrence_matches_the_list_engine(self, stream):
        terms, n = stream
        assert final_convergent(terms, n, "iter") == convergents_iter(terms, n)[-1]

    @pytest.mark.parametrize("k", range(1, 18))
    @pytest.mark.parametrize("ones", ["none", "between", "trailing"])
    def test_matrix_tree_over_k_blocks(self, k, ones):
        # after a_0 = 3, each quotient past 2^60 closes a block, so k of them
        # make k blocks: a tree of every shape up to 5 levels, odd leaves
        # included; runs of 0-3 ones join the block that the next closes,
        # and a trailing run of ones makes the last block alone
        runs = [j % 4 if ones != "none" else 0 for j in range(k)]
        bigs = [2 ** (60 + j) + 7 * j + 1 for j in range(k - (ones == "trailing"))]
        terms = [3]
        for run, big in zip(runs, bigs):
            terms += [1] * run + [big]
        if ones == "trailing":
            terms += [1] * (runs[-1] + 1)
        n = len(terms) - 1
        assert len(list(_blocks(_matrix_states, iter(terms), None))) == k
        counter = WorkCounter()
        got = final_convergent(terms, n, "matrix", counter)
        assert got == convergents_fast(terms, n) == convergents_iter(terms, n)[-1]
        assert counter.multiplications == 8 * n

    @settings(max_examples=300, deadline=None)
    @given(blocked_streams())
    def test_both_streams_yield_the_same_whole_state(self, stream):
        # [[p_n, p_n-1], [q_n, q_n-1]] has determinant (-1)^(n+1)
        terms, _ = stream
        states = list(_recurrence_states(terms, None))
        assert states == list(_matrix_states(terms, None))
        for n, (p, p_prev, q, q_prev) in enumerate(states):
            assert p * q_prev - p_prev * q == (-1) ** (n + 1)


class TestIdentities:
    def test_determinant_table_rows(self):
        # display rows 3 and 4: 79*7 - 69*8 = 1
        convs = convergents_iter([9, 1, 6, 1], 3)
        assert convs[3].p * convs[2].q - convs[2].p * convs[3].q == 1
        assert check_determinant(convs)

    def test_determinant_fibonacci(self):
        convs = convergents_iter([1] * 5, 4)
        assert convs[4].p * convs[3].q - convs[3].p * convs[4].q == -1
        assert check_determinant(convs)

    def test_determinant_empty_and_singleton(self):
        assert check_determinant([])
        assert check_determinant([Convergent(0, 9, 1)])

    @settings(max_examples=60, deadline=None)
    @given(expansions)
    def test_determinant_coprime_monotone(self, terms):
        convs = convergents_iter(terms, len(terms) - 1)
        assert check_determinant(convs)
        assert all(c.is_reduced() for c in convs)
        for prev, cur in zip(convs[1:], convs[2:]):
            assert cur.q > prev.q

    @settings(max_examples=300, deadline=None)
    @given(convergent_sequences())
    def test_determinant_matches_direct_products(self, seq):
        assert check_determinant(seq) == direct_check_determinant(seq)

    def test_determinant_rejections(self):
        convs = convergents_iter(gauss_kuzmin_like(60, seed=2), 59)
        assert check_determinant(convs)
        tampered = list(convs)
        tampered[40] = Convergent(40, convs[40].p + 1, convs[40].q)
        assert not check_determinant(tampered)
        # indices start at 0 but the values are those of n = 1, 2, ...
        assert not check_determinant([Convergent(i, c.p, c.q)
                                      for i, c in enumerate(convs[1:])])
        # an index gap flips the expected sign halfway along
        gapped = convs[:30] + [Convergent(c.n + 1, c.p, c.q) for c in convs[30:]]
        assert not check_determinant(gapped)
        assert check_determinant([Convergent(c.n + 2, c.p, c.q) for c in convs])

    def test_determinant_candidate_off_by_one(self):
        # q_2 = 2^64 + 1 and q_3 = (2^64 - 1) q_2 + 1 = 2^128: cut to q_2's
        # top 64 bits, the quotient is 2^64, one past a_3, so the linked
        # pair falls back to its two products and still passes
        convs = convergents_iter([0, 1, 2 ** 64, 2 ** 64 - 1], 3)
        prev, cur = convs[2], convs[3]
        s = prev.q.bit_length() - 64
        assert (cur.q >> s) // (prev.q >> s) == 2 ** 64
        assert check_determinant(convs) and direct_check_determinant(convs)
        tampered = convs[:3] + [Convergent(3, cur.p, cur.q + prev.q)]
        assert not check_determinant(tampered)
        assert not direct_check_determinant(tampered)

    def test_telescoping_examples(self):
        assert telescoping_sum([9, 1, 6], 2) == Fraction(69, 7)
        assert telescoping_sum([1, 1, 1], 2) == Fraction(3, 2)
        assert telescoping_sum([9, 1, 6], 0) == 9

    @settings(max_examples=40, deadline=None)
    @given(expansions)
    def test_telescoping_equals_convergent(self, terms):
        n = len(terms) - 1
        if n < 1:
            return
        convs = convergents_iter(terms, n)
        assert telescoping_sum(terms, n) == convs[n].value

    @pytest.mark.parametrize("terms", [
        gauss_kuzmin_like(301, seed=5),
        [1] * 301,
    ], ids=["gauss-kuzmin", "ones"])
    def test_partial_sums_match_every_convergent(self, terms):
        sums = list(telescoping_sums(terms, 300))
        convs = convergents_iter(terms, 300)
        assert len(sums) == 301
        for n, (pair, c) in enumerate(zip(sums, convs)):
            assert Fraction(*pair) == telescoping_sum(terms, n) == Fraction(c.p, c.q)

    @pytest.mark.parametrize("n", sorted({1, 2, 3, 5, 7, 9, 15, 17, 31, 33,
                                          63, 65, 127, 129, 255, 257}))
    def test_split_at_odd_boundaries(self, n):
        # n = 1, 2, 3 and 2^k +- 1 leave unbalanced halves at every level
        for terms in (gauss_kuzmin_like(n + 1, seed=n), [1] * (n + 1),
                      [-7] + gauss_kuzmin_like(n, seed=n)):
            assert telescoping_sum(terms, n) == fold_rational(terms)

    @pytest.mark.parametrize("terms", [
        gauss_kuzmin_like(40_001, seed=13),
        [1] * 40_001,
    ], ids=["gauss-kuzmin", "ones"])
    def test_sum_at_depth_equals_the_tree(self, terms):
        total = telescoping_sum(terms, 40_000)
        fast = convergents_fast(terms, 40_000)
        assert (total.numerator, total.denominator) == (fast.p, fast.q)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(), st.lists(st.integers(min_value=1), max_size=40))
    def test_pairs_match_the_fraction_loop(self, a0, rest):
        # any integer a_0, later quotients >= 1
        terms = [a0] + rest
        n = len(terms) - 1
        expected = list(fraction_telescoping_sums(terms, n))
        pairs = list(telescoping_sums(terms, n))
        # each pair is its sum in lowest terms, so no division was inexact
        assert pairs == [(f.numerator, f.denominator) for f in expected]
        total = telescoping_sum(terms, n)
        assert type(total) is Fraction and total == expected[-1]


class TestFibPower:
    def test_tenth_power(self):
        m = fib_power(10)
        assert (m.m00, m.m01, m.m10, m.m11) == (89, 55, 55, 34)

    def test_base_cases(self):
        assert fib_power(1) == Mat2(1, 1, 1, 0)
        assert fib_power(0) == Mat2.identity()

    def test_power_200_against_linear_recurrence(self):
        fib = [0, 1]
        for _ in range(205):
            fib.append(fib[-1] + fib[-2])
        m = fib_power(200)
        assert m.m00 == fib[201]
        assert len(str(m.m00)) == 42
        assert (m.m01, m.m10, m.m11) == (fib[200], fib[200], fib[199])

    def test_determinant_alternates(self):
        assert fib_power(9).determinant() == -1
        assert fib_power(10).determinant() == 1
