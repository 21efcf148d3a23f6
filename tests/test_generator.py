"""Rate tables, lattice generators, block-counting generators, spectra."""

from fractions import Fraction

import pytest

from coalspec import (
    PartitionLattice,
    RateTable,
    SetPartition,
    bell,
    bs_block_generator,
    bs_rates,
    build_generator,
    characteristic_factorization,
    hitting_bruteforce,
    kingman_block_generator,
    kingman_rates,
    merge_covers,
    pair_covers,
)
from coalspec.matrices import _within_order

F = Fraction


class TestRateTable:
    def test_bs_values(self):
        r = bs_rates(4)
        assert r.rate(2, 2) == 1
        assert r.rate(3, 2) == F(1, 2)
        assert r.rate(3, 3) == F(1, 2)
        assert r.rate(4, 2) == F(1, 3)
        assert r.rate(4, 3) == F(1, 6)
        assert r.rate(4, 4) == F(1, 3)

    def test_bs_total_rate(self):
        r = bs_rates(8)
        for b in range(2, 9):
            assert r.total_rate(b) == b - 1
        assert r.total_rate(1) == 0

    def test_kingman_values(self):
        r = kingman_rates(5)
        for b in range(2, 6):
            assert r.rate(b, 2) == 1
            for k in range(3, b + 1):
                assert r.rate(b, k) == 0
            assert r.total_rate(b) == b * (b - 1) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RateTable(3, {(2, 2): -1})
        with pytest.raises(ValueError):
            RateTable(3, {(4, 2): 1})
        with pytest.raises(ValueError):
            RateTable(3, {(2, 1): 1})
        # a one-element coalescent has no mergers: empty tables, not errors
        assert bs_rates(1).items() == kingman_rates(1).items() == []
        with pytest.raises(ValueError):
            kingman_rates(0)
        r = RateTable(3, {(2, 2): "1/2"})
        assert r.rate(2, 2) == F(1, 2)
        with pytest.raises(ValueError):
            r.rate(3, 2)
        with pytest.raises(ValueError):
            r.total_rate(4)


class TestLatticeGenerator:
    def test_row_sums_zero(self, bs_generators, kingman_generators):
        for n in range(2, 7):
            for Q in (bs_generators[n], kingman_generators[n]):
                for i in range(len(Q.lattice)):
                    assert Q.row_sum(i) == 0

    def test_triangular_support(self, bs_generators, kingman_generators):
        for n in range(2, 7):
            for Q in (bs_generators[n], kingman_generators[n]):
                assert _within_order(Q.lattice, (Q,), [0] * Q.size)[0]

    def test_bs_offdiagonal_support(self, lattices, bs_generators):
        # every multiple merger has positive rate under this model
        for n in range(2, 6):
            lat, Q = lattices[n], bs_generators[n]
            for i, pi in enumerate(lat):
                targets = {j for j, _ in Q.row(i).items() if j != i}
                expected = {lat.index_of(s) for s in merge_covers(pi)}
                assert targets == expected

    def test_kingman_offdiagonal_support(self, lattices, kingman_generators):
        # only pair mergers occur
        for n in range(2, 6):
            lat, Q = lattices[n], kingman_generators[n]
            for i, pi in enumerate(lat):
                targets = {j for j, _ in Q.row(i).items() if j != i}
                expected = {lat.index_of(s) for s in pair_covers(pi)}
                assert targets == expected

    def test_bs_n3_frozen(self, lattices, bs_generators):
        lat, Q = lattices[3], bs_generators[3]
        top = lat.index_of(SetPartition.whole(3))
        assert Q.get(0, 0) == -2
        for j in range(1, 4):
            assert Q.get(0, j) == F(1, 2)
        assert Q.get(0, top) == F(1, 2)
        for i in range(1, 4):
            assert Q.get(i, i) == -1
            assert Q.get(i, top) == 1
        assert Q.get(top, top) == 0

    def test_kingman_n3_frozen(self, kingman_generators):
        Q = kingman_generators[3]
        assert Q.get(0, 0) == -3
        assert Q.get(0, 4) == 0  # no triple merger
        for j in range(1, 4):
            assert Q.get(0, j) == 1
            assert Q.get(j, j) == -1
            assert Q.get(j, 4) == 1

    def test_rate_entry_formula(self, lattices, bs_generators):
        rates = bs_rates(5)
        lat, Q = lattices[5], bs_generators[5]
        for i, pi in enumerate(lat):
            for sigma in merge_covers(pi):
                k = len(pi) - len(sigma) + 1
                assert Q.get(i, lat.index_of(sigma)) == rates.rate(len(pi), k)

    def test_n1_generator(self):
        lat = PartitionLattice(1)
        Q = build_generator(lat, RateTable(1, {}))
        assert Q.nnz() == 0
        assert characteristic_factorization(Q, RateTable(1, {})) == [(F(0), 1)]

    def test_n1_rate_tables_accepted(self):
        lat = PartitionLattice(1)
        top = lat.top
        for model, rates_for in (("bs", bs_rates), ("kingman", kingman_rates)):
            rates = rates_for(1)
            assert rates.n == 1 and rates.total_rate(1) == 0
            Q = build_generator(lat, rates)
            assert Q.nnz() == 0
            assert characteristic_factorization(Q, rates) == [(F(0), 1)]
            assert hitting_bruteforce(model, top, top) == 1

    def test_rate_table_too_small(self, lattices):
        with pytest.raises(ValueError):
            build_generator(lattices[4], bs_rates(3))

    def test_indicator_of_bottom_is_right_eigenvector(self, lattices, bs_generators,
                                                      kingman_generators):
        # Qe1 = -λ_n e1: the first column carries only its diagonal entry
        for n in range(2, 7):
            lat = lattices[n]
            for Q, rates in ((bs_generators[n], bs_rates(n)),
                             (kingman_generators[n], kingman_rates(n))):
                assert Q.get(0, 0) == -rates.total_rate(n)
                for i in range(1, len(lat)):
                    assert Q.get(i, 0) == 0

    def test_top_row_vanishes(self, bs_generators, kingman_generators):
        for n in range(2, 7):
            for Q in (bs_generators[n], kingman_generators[n]):
                top = len(Q.lattice) - 1
                assert Q.row(top) == {}


class TestBlockGenerators:
    def test_bs_entries(self):
        Q = bs_block_generator(5)
        for i in range(2, 6):
            assert Q.get(i - 1, i - 1) == 1 - i
            for j in range(1, i):
                d = i - j
                assert Q.get(i - 1, j - 1) == F(i, d * (d + 1))
            assert Q.row_sum(i - 1) == 0
        assert Q.row(0) == {}
        assert Q.is_lower()

    def test_kingman_entries(self):
        Q = kingman_block_generator(6)
        for i in range(2, 7):
            c = i * (i - 1) // 2
            assert Q.get(i - 1, i - 1) == -c
            assert Q.get(i - 1, i - 2) == c
            assert Q.row_sum(i - 1) == 0
        assert Q.nnz() == 10

    def test_block_count_lumping(self, lattices, bs_generators, kingman_generators):
        # summing q(π, ρ) over all ρ with j blocks reproduces the block
        # generator entry (i, j) for every π with i blocks
        for n in range(2, 6):
            lat = lattices[n]
            for Q, Qb in ((bs_generators[n], bs_block_generator(n)),
                          (kingman_generators[n], kingman_block_generator(n))):
                for idx, pi in enumerate(lat):
                    i = len(pi)
                    row = Q.row(idx)
                    for j in range(1, n + 1):
                        total = sum(
                            (v for col, v in row.items() if len(lat[col]) == j),
                            F(0),
                        )
                        assert total == Qb.get(i - 1, j - 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            bs_block_generator(0)
        with pytest.raises(ValueError):
            kingman_block_generator(-2)


class TestCharacteristicFactorization:
    def test_bs_n3(self, bs_generators):
        out = characteristic_factorization(bs_generators[3], bs_rates(3))
        assert out == [(F(0), 1), (F(-1), 3), (F(-2), 1)]

    def test_kingman_n4(self, kingman_generators):
        out = characteristic_factorization(kingman_generators[4], kingman_rates(4))
        assert out == [(F(0), 1), (F(-1), 7), (F(-3), 6), (F(-6), 1)]

    def test_multiplicities_sum_to_lattice_size(self, bs_generators):
        for n in range(2, 7):
            out = characteristic_factorization(bs_generators[n], bs_rates(n))
            assert sum(m for _, m in out) == bell(n)
            assert [v for v, _ in out] == [F(-(i - 1)) for i in range(1, n + 1)]

    def test_mismatched_rates_detected(self, bs_generators):
        with pytest.raises(ValueError):
            characteristic_factorization(bs_generators[3], kingman_rates(3))
