"""Exact combinatorial numbers against brute-force enumeration oracles."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

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
    # oracle: sum over partitions into j blocks of prod |B|!
    for n in range(1, 7):
        for j in range(1, n + 1):
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
