"""Exact combinatorial numbers against brute-force enumeration oracles."""

from collections import Counter
from fractions import Fraction
import random
from itertools import islice, permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalspec import (
    ascending_factorial,
    bell,
    lah,
    set_partitions,
    stirling_first,
    stirling_second,
)
from coalspec import combinatorics
from coalspec.combinatorics import _factorial, _stirling_rows


def cycle_count(perm):
    """Number of cycles of a permutation given as a tuple (oracle helper)."""
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start in seen:
            continue
        cycles += 1
        k = start
        while k not in seen:
            seen.add(k)
            k = perm[k]
    return cycles


def count_perms_with_cycles(n, j):
    return sum(1 for p in permutations(range(n)) if cycle_count(p) == j)


def count_partitions_with_blocks(n, j):
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == j)


def test_stirling_first_frozen_and_oracle():
    # oracle: 11 permutations of 4 elements with 2 cycles
    assert count_perms_with_cycles(4, 2) == 11
    assert stirling_first(4, 2) == 11
    for n in range(7):
        for j in range(n + 2):
            assert stirling_first(n, j) == count_perms_with_cycles(n, j)


def test_stirling_second_frozen_and_oracle():
    assert count_partitions_with_blocks(4, 2) == 7
    assert stirling_second(4, 2) == 7
    for n in range(7):
        for j in range(n + 2):
            assert stirling_second(n, j) == count_partitions_with_blocks(n, j)


def test_lah_frozen_and_oracle():
    assert lah(3, 2) == 6
    assert lah(4, 1) == 24
    # oracle: sum over partitions into j blocks of prod |B|!; none for j > n
    for n in range(1, 7):
        for j in range(1, n + 2):
            total = 0
            for p in set_partitions(list(range(n))):
                if len(p) == j:
                    prod = 1
                    for b in p:
                        prod *= factorial(len(b))
                    total += prod
            assert lah(n, j) == total


def test_bell_sequence():
    assert [bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(7):
        assert bell(n) == sum(1 for _ in set_partitions(list(range(n))))


def test_bell_is_stirling_row_sum():
    for n in range(9):
        assert bell(n) == sum(stirling_second(n, i) for i in range(n + 1))


def test_ascending_factorial_values():
    assert ascending_factorial(Fraction(3), 0) == 1
    assert ascending_factorial(Fraction(-1, 2), 2) == Fraction(-1, 4)
    assert ascending_factorial(2, 3) == 2 * 3 * 4


def test_ascending_factorial_stirling_expansion():
    # x^(n ascending) = sum_k [n, k] x^k, exactly
    for n in range(1, 9):
        for x in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-3, 2)):
            lhs = ascending_factorial(x, n)
            rhs = sum(stirling_first(n, k) * x**k for k in range(1, n + 1))
            assert lhs == rhs


def test_stirling_first_partition_weight_identity():
    # [n, i] = sum over partitions into i blocks of prod (|B| - 1)!
    for n in range(1, 7):
        for i in range(1, n + 1):
            total = 0
            for p in set_partitions(list(range(n))):
                if len(p) == i:
                    w = 1
                    for b in p:
                        w *= factorial(len(b) - 1)
                    total += w
            assert stirling_first(n, i) == total


def integer_partitions(p, r, largest=None):
    """The partitions of p into r parts, largest first, none above ``largest``."""
    if r == 0:
        if p == 0:
            yield ()
        return
    for first in range(min(p - r + 1, p if largest is None else largest), 0, -1):
        for rest in integer_partitions(p - first, r - 1, first):
            yield (first, *rest)


def test_lumping_identities_at_key_level():
    # Above a π with p blocks, the ρ with r blocks whose restriction sizes are
    # the parts of λ number p! / (∏ λ_i! ∏ c_k!), c_k the parts equal to k.
    # Summed with that weight, each blockwise weight of the closed forms is a
    # number of (p, r) alone: the block triples and bs_block_green take these
    # sums in place of the blockwise products.  p runs past the lattice cap.
    for p in range(1, 27):
        for r in range(1, p + 1):
            first = second = lah_sum = 0
            coeffs = [0] * (p + 1)
            for lam in integer_partitions(p, r):
                w = factorial(p) // (
                    prod(map(factorial, lam)) * prod(map(factorial, Counter(lam).values()))
                )
                first += w * prod(factorial(s - 1) for s in lam)
                second += w
                lah_sum += w * prod(map(factorial, lam))
                if p <= 18:  # the coefficients of ∏_i z (z+1) … (z+λ_i-1)
                    poly = [1]
                    for a in (a for s in lam for a in range(s)):
                        poly = [a * c + below for c, below in zip(poly + [0], [0] + poly)]
                    for k, c in enumerate(poly):
                        coeffs[k] += w * c
            assert first == stirling_first(p, r)
            assert second == stirling_second(p, r)
            assert lah_sum == lah(p, r)
            if p <= 18:
                assert coeffs == [
                    stirling_first(p, k) * stirling_second(k, r) for k in range(p + 1)
                ]


@given(
    x=st.fractions(min_value=-10, max_value=10, max_denominator=50),
    n=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_ascending_factorial_expansion_property(x, n):
    assert ascending_factorial(x, n) == sum(
        stirling_first(n, k) * x**k for k in range(1, n + 1)
    )


@given(
    a=st.fractions(max_denominator=100),
    b=st.fractions(max_denominator=100),
    c=st.fractions(max_denominator=100),
)
@settings(max_examples=50, deadline=None)
def test_rational_arithmetic_sanity(a, b, c):
    # the exact arithmetic backbone: commutative, associative, reduced
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    for q in (a + b, a * b):
        assert q.denominator > 0
        from math import gcd

        assert gcd(q.numerator, q.denominator) == 1


def test_deeper_than_the_recursion_limit():
    # the triangles are filled from an explicit stack, not by recursion
    assert stirling_second(2000, 2) == 2**1999 - 1
    assert stirling_first(1100, 1099) == comb(1100, 2)
    assert stirling_first(1500, 1) == factorial(1499)


def bell_triangle(n):
    """Bell numbers B_0..B_n from Aitken's array: each row starts with the
    last entry of the row before, and each entry adds the one above-left."""
    bells, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


STIRLING_TOP = 200


def stirling_queries(order):
    """Every (i, j) with 0 <= j <= i <= STIRLING_TOP in the given order."""
    queries = [(i, j) for i in range(STIRLING_TOP + 1) for j in range(i + 1)]
    if order == "descending":
        queries.reverse()
    elif order == "shuffled":
        random.Random(40).shuffle(queries)
    return queries


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_stirling_rows_in_any_query_order(order, monkeypatch):
    # each order starts from empty memos, so it is the first to fill them
    monkeypatch.setattr(combinatorics, "_FIRST", {})
    monkeypatch.setattr(combinatorics, "_SECOND", {})
    first, second = {}, {}
    for i, j in stirling_queries(order):
        first[i, j], second[i, j] = stirling_first(i, j), stirling_second(i, j)
    bells = bell_triangle(STIRLING_TOP)
    for i in range(STIRLING_TOP + 1):
        assert sum(first[i, j] for j in range(i + 1)) == factorial(i), i
        assert sum(second[i, j] for j in range(i + 1)) == bells[i], i
        if i >= 1:
            assert first[i, 1] == factorial(i - 1), i
        if i >= 2:
            assert second[i, 2] == 2 ** (i - 1) - 1, i
    # out of range: 0 above the diagonal and off column 0, 1 at (0, 0)
    for i in (0, 1, 7, STIRLING_TOP):
        for j in (i + 1, i + 5):
            assert stirling_first(i, j) == stirling_second(i, j) == 0
        assert stirling_first(i, 0) == stirling_second(i, 0) == (i == 0)
    for f in (stirling_first, stirling_second):
        for i, j in ((-1, 0), (0, -1), (3, -2), (-5, 2), (-1, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                f(i, j)


def test_streamed_rows_are_the_memo_rows():
    for first, entry in ((True, stirling_first), (False, stirling_second)):
        rows = _stirling_rows(first)
        for i, row in enumerate(islice(rows, STIRLING_TOP), 1):
            assert row == [entry(i, j) for j in range(i + 1)], (first, i)


def test_factorial_memo():
    # asked out of order, it grows to the largest k and answers smaller k from the list
    for k in (5, 0, 1, 300, 7, 299, 301, 2):
        assert _factorial(k) == factorial(k)
    with pytest.raises(ValueError):
        _factorial(-1)


def test_domain_errors():
    with pytest.raises(ValueError):
        stirling_first(-1, 0)
    with pytest.raises(ValueError):
        stirling_second(2, -1)
    with pytest.raises(ValueError):
        lah(0, 1)
    with pytest.raises(ValueError):
        bell(-1)
    with pytest.raises(ValueError):
        ascending_factorial(1, -1)
