"""Transition probabilities, Green's matrices, hitting probabilities."""

import math
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import pytest

from coalspec import (
    PartitionLattice,
    SetPartition,
    ascending_factorial,
    bs_block_green,
    bs_green,
    bs_hitting,
    bs_transition,
    bs_transition_exact,
    coarsenings,
    pair_key,
    hitting_bruteforce,
    interval,
    kingman_block_triple,
    kingman_hitting,
    stirling_first,
    transition_via_triple,
)

from conftest import comparable_pairs

F = Fraction


def P(text):
    return SetPartition.from_string(text)


class TestBsTransition:
    def test_time_zero_is_identity(self, lattices):
        lat = lattices[4]
        for pi in lat:
            for rho in lat:
                expect = 1.0 if pi == rho else 0.0
                assert bs_transition(pi, rho, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_two_leaves_closed_form(self):
        pi, rho = P("1|2"), P("1,2")
        for t in (0.0, 0.3, 1.0, 4.5):
            assert bs_transition(pi, pi, t) == pytest.approx(math.exp(-t), rel=1e-13)
            assert bs_transition(pi, rho, t) == pytest.approx(1 - math.exp(-t), rel=1e-12, abs=1e-13)

    def test_rows_sum_to_one(self, lattices):
        for n in (2, 3, 4, 5):
            lat = lattices[n]
            for t in (0.1, 0.5, 1.0, 5.0):
                for pi in lat:
                    total = sum(bs_transition(pi, rho, t) for rho in lat)
                    assert total == pytest.approx(1.0, abs=1e-10)

    def test_support_matches_refinement(self, lattices):
        lat = lattices[4]
        for pi in lat:
            for rho in lat:
                p = bs_transition(pi, rho, 1.0)
                if pi.refines(rho):
                    assert p > 0
                else:
                    assert p == 0.0

    def test_matches_spectral_route(self, lattices, bs_triples):
        for n in (3, 4):
            lat = lattices[n]
            for t in (0.3, 1.7):
                M = transition_via_triple(bs_triples[n], t)
                for i, pi in enumerate(lat):
                    for j, rho in enumerate(lat):
                        assert M[i, j] == pytest.approx(
                            bs_transition(pi, rho, t), abs=1e-12
                        )

    def test_semigroup_property(self, bs_triples, kingman_triples):
        for triple in (bs_triples[4], kingman_triples[4]):
            Ps = transition_via_triple(triple, 0.4)
            Pt = transition_via_triple(triple, 0.8)
            Pst = transition_via_triple(triple, 1.2)
            assert np.max(np.abs(Ps @ Pt - Pst)) < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            bs_transition(P("1|2"), P("1,2"), -0.1)
        with pytest.raises(ValueError):
            bs_transition(P("1|2"), P("1,2,3"), 1.0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError):
                bs_transition(P("1|2"), P("1,2"), t)
            with pytest.raises(ValueError):
                transition_via_triple(kingman_block_triple(3), t)


def _keys_with_pairs(lattices, n_max=6):
    """One (key, π, ρ) for every distinct pair key with n <= n_max."""
    seen = {}
    for n in range(1, n_max + 1):
        el = lattices[n].elements
        for i, j, key in comparable_pairs(lattices[n]):
            seen.setdefault(key, (el[i], el[j]))
    return [(key, pi, rho) for key, (pi, rho) in seen.items()]


def _wide_pairs(p):
    """(key, π, ρ) from the singletons of [p] to ρ with 2 blocks and with 1."""
    pi = SetPartition.singletons(p)
    half = SetPartition([range(1, p // 2 + 1), range(p // 2 + 1, p + 1)])
    return [(pair_key(pi, rho), pi, rho) for rho in (half, SetPartition.whole(p))]


def _float_closed_form(key, t):
    """The BS closed form written out operation by operation in doubles."""
    p, r, sizes = key
    x = math.exp(-t)
    value = math.exp(t) * factorial(r - 1) / factorial(p - 1)
    for s in sizes:
        value *= ascending_factorial(-x, s)
    if r % 2:
        value = -value
    return value


def _exact_closed_form(key, x):
    p, r, sizes = key
    value = Fraction(factorial(r - 1), factorial(p - 1)) / x
    for s in sizes:
        value *= ascending_factorial(-x, s)
    return -value if r % 2 else value


_T_GRID = [k / 8 for k in range(41)] + [
    1e-12, 0.905, 0.96, 1.008, 7.3, 12.0, 30.0, 100.0, 300.0, 700.0, 705.0,
    709.78,
]


class TestBsTransitionFloatBits:
    def test_bits_match_the_closed_form(self, lattices):
        # every bit, wherever the operation-by-operation value is a probability;
        # elsewhere it is one rounding above 1 or an overflow.  170! is the
        # largest factorial a double holds, so p = 171 is the last float key
        for key, pi, rho in _keys_with_pairs(lattices) + _wide_pairs(171):
            for t in _T_GRID:
                expect = _float_closed_form(key, t)
                if 0.0 <= expect <= 1.0:
                    assert bs_transition(pi, rho, t) == expect, (key, t)
                else:
                    assert expect <= 1.0 + 2**-51 or t >= 700.0, (key, t)

    def test_exact_matches_the_closed_form(self, lattices):
        for key, pi, rho in _keys_with_pairs(lattices):
            for x in (F(1), F(2, 3), F(1, 7), F(-2), F(3), F(10**9 + 7, 10**9)):
                assert bs_transition_exact(pi, rho, x) == _exact_closed_form(key, x)

    def test_always_a_probability(self, lattices):
        # once e^t overflows, the value is the t -> inf limit
        for key, pi, rho in _keys_with_pairs(lattices) + _wide_pairs(200):
            for t in _T_GRID:
                assert 0.0 <= bs_transition(pi, rho, t) <= 1.0, (key, t)
            for t in (709.79, 800.0, 1e300):
                assert bs_transition(pi, rho, t) == (1.0 if len(rho) == 1 else 0.0)

    def test_past_the_largest_float_factorial(self):
        # (p-1)! has no double from p = 172 on; the exact route rounds once
        big, bigger = SetPartition.singletons(172), SetPartition.singletons(200)
        assert bs_transition(big, big, 0.0) == 1.0
        stay = bs_transition(bigger, bigger, 0.01)  # leaves at rate 199
        assert stay == pytest.approx(math.exp(-1.99), rel=1e-13)

    def test_past_the_largest_float_product(self):
        # e^t 170! overflows from t ≈ 3.21 while the value is still a double
        delta = SetPartition.singletons(171)
        for t in (3.0, 3.25):  # leaves at rate 170
            stay = math.exp(-170 * t)
            assert bs_transition(delta, delta, t) == pytest.approx(stay, rel=1e-13, abs=0)


class TestBsTransitionExact:
    def test_x_one_is_identity(self, lattices):
        lat = lattices[4]
        for pi in lat:
            for rho in lat:
                expect = F(1) if pi == rho else F(0)
                assert bs_transition_exact(pi, rho, 1) == expect

    def test_matches_float_version(self):
        pi, rho = P("1|2|3|4"), P("1,2,3|4")
        t = 0.9
        x = F(math.exp(-t)).limit_denominator(10**12)
        exact = bs_transition_exact(pi, rho, x)
        assert float(exact) == pytest.approx(bs_transition(pi, rho, t), rel=1e-9)

    def test_interval_sum_identity(self, lattices, bs_triples):
        # closed form == Σ_σ r(π, σ) x^(|σ|-1) l(σ, ρ) for any rational x
        lat, triple = lattices[4], bs_triples[4]
        for x in (F(1), F(1, 2), F(-2), F(3)):
            for pi in lat:
                i = lat.index_of(pi)
                for rho in coarsenings(pi):
                    j = lat.index_of(rho)
                    acc = F(0)
                    for sigma in interval(pi, rho):
                        k = lat.index_of(sigma)
                        acc += (
                            triple.R.get(i, k)
                            * x ** (len(sigma) - 1)
                            * triple.L.get(k, j)
                        )
                    assert bs_transition_exact(pi, rho, x) == acc

    def test_rows_sum_to_one_exactly(self, lattices):
        lat = lattices[4]
        for x in (F(1, 3), F(2, 5)):
            for pi in lat:
                total = sum(
                    (bs_transition_exact(pi, rho, x) for rho in lat), F(0)
                )
                assert total == 1

    def test_x_zero_rejected(self):
        with pytest.raises(ValueError):
            bs_transition_exact(P("1|2"), P("1,2"), 0)


def _stirling_product_green(key):
    """g at a key below the top as a sum over tuples (k_B) of cycle counts:
    (-1)^|ρ| ((|ρ|-1)!/(|π|-1)!) Σ (-1)^K/(K-1) ∏_B [m_B, k_B], K = Σ k_B ≥ 2."""
    p, r, sizes = key
    total = F(0)
    for ks in product(*(range(1, s + 1) for s in sizes)):
        ktot = sum(ks)
        if ktot >= 2:
            term = F(1, ktot - 1)
            for s, k in zip(sizes, ks):
                term *= stirling_first(s, k)
            total += -term if ktot % 2 else term
    value = F(factorial(r - 1), factorial(p - 1)) * total
    return -value if r % 2 else value


def _blocks_of(sizes):
    """(key, π, ρ) from the singletons to consecutive blocks of these sizes."""
    bounds = [sum(sizes[:b]) for b in range(len(sizes) + 1)]
    pi = SetPartition.singletons(bounds[-1])
    rho = SetPartition(range(lo + 1, hi + 1) for lo, hi in zip(bounds, bounds[1:]))
    return pair_key(pi, rho), pi, rho


class TestBsGreen:
    def test_matches_the_stirling_product_sum(self, lattices):
        pairs = {**{n: lattices[n] for n in range(1, 7)}, 7: PartitionLattice(7)}
        cases = _keys_with_pairs(pairs, n_max=7) + [
            _blocks_of(sizes)
            for sizes in ((5, 1), (3, 6), (7, 2, 1), (5, 5, 5, 5), (5, 6, 7))
        ]
        below_top = [(key, pi, rho) for key, pi, rho in cases if key[1] > 1]
        assert len(below_top) > 100
        for key, pi, rho in below_top:
            assert bs_green(pi, rho) == _stirling_product_green(key), key

    def test_frozen_values(self):
        assert bs_green(P("1|2|3"), P("1,2|3")) == F(1, 4)
        assert bs_green(P("1|2|3|4"), P("1,2|3,4")) == F(1, 18)
        assert bs_green(P("1|2|3|4"), P("1,2,3|4")) == F(5, 36)

    def test_time_in_start_state(self, lattices):
        # the chain sits in π for Exp(|π| - 1) time before the first jump
        for n in (3, 4, 5):
            for pi in lattices[n]:
                if len(pi) >= 2:
                    assert bs_green(pi, pi) == F(1, len(pi) - 1)

    def test_absorbing_column_diverges(self, lattices):
        top = SetPartition.whole(4)
        for pi in lattices[4]:
            assert bs_green(pi, top) == math.inf

    def test_zero_off_order(self):
        assert bs_green(P("1,2|3"), P("1,3|2")) == 0

    def test_matches_fundamental_matrix(self, lattices, bs_generators):
        from coalspec import fundamental_matrix

        for n in (3, 4):
            lat = lattices[n]
            N = fundamental_matrix(bs_generators[n])
            m = len(lat) - 1
            for i in range(m):
                for j in range(m):
                    assert bs_green(lat[i], lat[j]) == N.get(i, j)


class TestBsHitting:
    def test_frozen_values(self):
        assert bs_hitting(P("1|2|3"), P("1,2|3")) == F(1, 4)
        assert bs_hitting(P("1|2|3|4"), P("1,2|3,4")) == F(1, 18)
        assert bs_hitting(P("1|2|3|4"), P("1,2,3|4")) == F(5, 36)

    def test_self_hitting_is_one(self, lattices):
        for pi in lattices[4]:
            if len(pi) >= 2:
                assert bs_hitting(pi, pi) == 1

    def test_matches_jump_chain_recursion(self, lattices):
        for n in (3, 4):
            lat = lattices[n]
            for pi in lat:
                for rho in lat:
                    if len(rho) == 1:
                        continue
                    assert bs_hitting(pi, rho) == hitting_bruteforce("bs", pi, rho)

    def test_absorbing_target_certain(self):
        assert bs_hitting(P("1|2|3"), P("1,2,3")) == 1
        with pytest.raises(ValueError):
            bs_hitting(P("1|2"), P("1,2,3"))

    def test_top_agrees_with_kingman_and_oracle(self, lattices):
        for n in range(1, 6):
            top = SetPartition.whole(n)
            for pi in lattices[n]:
                assert (
                    bs_hitting(pi, top) == kingman_hitting(pi, top)
                    == hitting_bruteforce("bs", pi, top)
                    == hitting_bruteforce("kingman", pi, top) == 1
                )

    def test_green_hitting_relation(self, lattices):
        # g(π, ρ) = h(π, ρ) / (|ρ| - 1): each visit to ρ lasts Exp(|ρ| - 1)
        lat = lattices[5]
        for pi in lat:
            for rho in coarsenings(pi):
                if len(rho) >= 2:
                    assert bs_green(pi, rho) * (len(rho) - 1) == bs_hitting(pi, rho)


class TestBlockGreen:
    def test_frozen(self):
        assert bs_block_green(3, 2, 3) == F(3, 4)
        assert bs_block_green(2, 2, 4) == 1

    def test_aggregates_lattice_green(self, lattices):
        for n in (3, 4, 5):
            lat = lattices[n]
            for pi in lat:
                i = len(pi)
                for j in range(2, i + 1):
                    total = sum(
                        (bs_green(pi, rho) for rho in lat if len(rho) == j),
                        F(0),
                    )
                    assert total == bs_block_green(i, j, n)

    def test_deeper_than_the_recursion_limit(self):
        # one pair merger (rate i/2 of i - 1) then a holding time 1/(i - 2)
        i = 1100
        assert bs_block_green(i, i - 1, i) == F(i, 2 * (i - 1) * (i - 2))

    def test_errors(self):
        with pytest.raises(ValueError):
            bs_block_green(3, 1, 4)
        with pytest.raises(ValueError):
            bs_block_green(2, 3, 4)
        with pytest.raises(ValueError):
            bs_block_green(5, 2, 4)


class TestKingmanHitting:
    def test_frozen_values(self):
        assert kingman_hitting(P("1|2|3|4"), P("1,2|3,4")) == F(1, 9)
        assert kingman_hitting(P("1|2|3|4"), P("1,2,3|4")) == F(1, 6)
        assert kingman_hitting(P("1|2|3"), P("1,2|3")) == F(1, 3)

    def test_chain_count_ratio(self, lattices):
        # h(π, ρ) = m(π, ρ) m(ρ, top) / m(π, top): uniform pair mergers make
        # every maximal chain to the top equally likely
        from coalspec import count_maximal_chains

        for n in (3, 4, 5):
            lat = lattices[n]
            top = lat.top
            for pi in lat:
                if len(pi) < 2:
                    continue
                for rho in coarsenings(pi):
                    expect = F(
                        count_maximal_chains(pi, rho) * count_maximal_chains(rho, top),
                        count_maximal_chains(pi, top),
                    )
                    assert kingman_hitting(pi, rho) == expect

    def test_matches_jump_chain_recursion(self, lattices):
        lat = lattices[4]
        for pi in lat:
            for rho in lat:
                assert kingman_hitting(pi, rho) == hitting_bruteforce(
                    "kingman", pi, rho
                )

    def test_zero_off_order(self):
        assert kingman_hitting(P("1,2|3"), P("1,3|2")) == 0

    def test_top_hitting_certain(self, lattices):
        for pi in lattices[5]:
            assert kingman_hitting(pi, SetPartition.whole(5)) == 1


class TestTransitionViaTriple:
    def test_block_counting_rows_sum_to_one(self):
        t = kingman_block_triple(6)
        M = transition_via_triple(t, 0.7)
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)

    def test_kingman_pair_to_singleton(self):
        t = kingman_block_triple(2)
        for s in (0.2, 1.0, 3.0):
            M = transition_via_triple(t, s)
            assert M[1, 0] == pytest.approx(1 - math.exp(-s), rel=1e-12)
            assert M[1, 1] == pytest.approx(math.exp(-s), rel=1e-12)

    def test_negative_time_rejected(self):
        t = kingman_block_triple(3)
        with pytest.raises(ValueError):
            transition_via_triple(t, -1.0)
