"""Exact R D L factorizations on the lattice and for block counts."""

from fractions import Fraction

import pytest

from coalspec import (
    RatMatrix,
    SpectralTriple,
    bs_block_generator,
    bs_block_triple,
    kingman_block_generator,
    kingman_block_triple,
    verify_triple,
)

F = Fraction


class TestLatticeTriples:
    def test_bs_verifies(self, bs_generators, bs_triples):
        for n in range(2, 7):
            report = verify_triple(bs_generators[n], bs_triples[n])
            assert report.all_pass, report.as_dict()

    def test_kingman_verifies(self, kingman_generators, kingman_triples):
        for n in range(2, 7):
            report = verify_triple(kingman_generators[n], kingman_triples[n])
            assert report.all_pass, report.as_dict()

    def test_eigenvector_equations(self, bs_generators, bs_triples,
                                   kingman_generators, kingman_triples):
        # columns of R solve Q v = d v, rows of L solve w Q = d w
        for n in (3, 4, 5):
            for Q, t in ((bs_generators[n], bs_triples[n]),
                         (kingman_generators[n], kingman_triples[n])):
                assert Q.matmul(t.R) == t.R.scaled_cols(t.D)
                diag = RatMatrix.identity(t.size).scaled_cols(t.D)
                assert t.L.matmul(Q) == diag.matmul(t.L)

    def test_bs_eigenvalues(self, lattices, bs_triples):
        for n in range(2, 7):
            expect = tuple(F(1 - len(pi)) for pi in lattices[n])
            assert bs_triples[n].D == expect
            assert bs_triples[n].D[0] == -(n - 1)
            assert bs_triples[n].D[-1] == 0

    def test_kingman_eigenvalues(self, lattices, kingman_triples):
        for n in range(2, 7):
            for pi, d in zip(lattices[n], kingman_triples[n].D):
                b = len(pi)
                assert d == -b * (b - 1) // 2

    def test_bs_n3_frozen_entries(self, lattices, bs_triples):
        lat, t = lattices[3], bs_triples[3]
        top = len(lat) - 1
        for j in range(1, 4):
            assert t.R.get(0, j) == F(1, 2)
            assert t.L.get(0, j) == F(-1, 2)
            assert t.R.get(j, top) == 1
            assert t.L.get(j, top) == -1
        assert t.R.get(0, top) == 1
        assert t.L.get(0, top) == F(1, 2)

    def test_last_column_of_r_is_all_ones(self, bs_triples, kingman_triples):
        # the 0-eigenvector: constants are harmonic for any generator
        for n in range(2, 7):
            for t in (bs_triples[n], kingman_triples[n]):
                top = t.size - 1
                for i in range(t.size):
                    assert t.R.get(i, top) == 1

    def test_first_column_and_last_row_trivial(self, bs_triples, kingman_triples):
        for n in range(2, 7):
            for t in (bs_triples[n], kingman_triples[n]):
                top = t.size - 1
                for i in range(1, t.size):
                    assert t.R.get(i, 0) == 0
                    assert t.L.get(i, 0) == 0
                assert t.R.row(top) == {top: F(1)}
                assert t.L.row(top) == {top: F(1)}

    def test_bs_r_entries_are_probabilities(self, lattices, bs_triples):
        for n in range(2, 6):
            for i, j, v in bs_triples[n].R.nonzeros():
                assert 0 < v <= 1

    def test_support_is_exactly_comparable_pairs(self, lattices, bs_triples,
                                                 kingman_triples):
        for n in (3, 4):
            lat = lattices[n]
            comparable = {
                (i, j)
                for i, pi in enumerate(lat)
                for j, rho in enumerate(lat)
                if pi.refines(rho)
            }
            for t in (bs_triples[n], kingman_triples[n]):
                assert {(i, j) for i, j, _ in t.R.nonzeros()} == comparable
                assert {(i, j) for i, j, _ in t.L.nonzeros()} == comparable

    def test_bs_l_depends_only_on_block_counts(self, lattices, bs_triples):
        from math import factorial

        lat, t = lattices[4], bs_triples[4]
        for i, j, v in t.L.nonzeros():
            p, r = len(lat[i]), len(lat[j])
            expect = F(factorial(r - 1), factorial(p - 1))
            assert v == (expect if (p - r) % 2 == 0 else -expect)

    def test_kingman_entries_match_maximal_chains(self, lattices, kingman_triples):
        # r and l are m(π, ρ) 2^(p-r) times (2r-1)!/((p-r)!(p+r-1)!) and
        # (-1)^(p-r) (p+r-2)!/((2p-2)!(p-r)!), m the maximal-chain count
        from math import factorial

        from coalspec import coarsenings, count_maximal_chains

        for n in range(2, 7):
            lat, t = lattices[n], kingman_triples[n]
            pairs = 0
            for i, pi in enumerate(lat):
                for rho in coarsenings(pi):
                    j = lat.index_of(rho)
                    p, r = len(pi), len(rho)
                    weight = count_maximal_chains(pi, rho) << (p - r)
                    rv = F(weight * factorial(2 * r - 1),
                           factorial(p - r) * factorial(p + r - 1))
                    lv = F(weight * factorial(p + r - 2),
                           factorial(2 * p - 2) * factorial(p - r))
                    assert t.R.get(i, j) == rv, (n, pi, rho)
                    assert t.L.get(i, j) == (-lv if (p - r) % 2 else lv), (n, pi, rho)
                    pairs += 1
            assert t.R.nnz() == t.L.nnz() == pairs


class TestBlockTriples:
    def test_verify_against_block_generators(self):
        for n in range(1, 9):
            rep = verify_triple(bs_block_generator(n), bs_block_triple(n))
            assert rep.all_pass, (n, rep.as_dict())
            rep = verify_triple(kingman_block_generator(n), kingman_block_triple(n))
            assert rep.all_pass, (n, rep.as_dict())

    def test_bs_row4_frozen(self):
        t = bs_block_triple(4)
        assert [t.R.get(3, j) for j in range(4)] == [1, F(11, 6), 2, 1]
        assert [t.L.get(3, j) for j in range(4)] == [F(-1, 6), F(7, 6), -2, 1]
        assert t.D == (F(0), F(-1), F(-2), F(-3))

    def test_kingman_row4_frozen(self):
        t = kingman_block_triple(4)
        assert [t.R.get(3, j) for j in range(4)] == [1, F(9, 5), 2, 1]
        assert [t.L.get(3, j) for j in range(4)] == [F(-1, 5), F(6, 5), -2, 1]
        assert t.D == (F(0), F(-1), F(-3), F(-6))

    def test_lumping_from_lattice_triples(self, lattices, bs_triples,
                                          kingman_triples):
        # summing lattice eigenvector entries over targets with a fixed
        # block count reproduces the block-counting triples
        for n in range(2, 6):
            lat = lattices[n]
            for t, tb in ((bs_triples[n], bs_block_triple(n)),
                          (kingman_triples[n], kingman_block_triple(n))):
                for idx, pi in enumerate(lat):
                    i = len(pi)
                    row_r = t.R.row(idx)
                    row_l = t.L.row(idx)
                    for j in range(1, n + 1):
                        sum_r = sum(
                            (v for col, v in row_r.items() if len(lat[col]) == j),
                            F(0),
                        )
                        sum_l = sum(
                            (v for col, v in row_l.items() if len(lat[col]) == j),
                            F(0),
                        )
                        assert sum_r == tb.R.get(i - 1, j - 1)
                        assert sum_l == tb.L.get(i - 1, j - 1)

    def test_unit_first_column(self):
        # r'(i, 1) = 1 for both models: one-block absorption is certain
        for n in (5, 12):
            for t in (bs_block_triple(n), kingman_block_triple(n)):
                for i in range(n):
                    assert t.R.get(i, 0) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            bs_block_triple(0)
        with pytest.raises(ValueError):
            kingman_block_triple(-1)


class TestTripleType:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SpectralTriple(RatMatrix(2), (F(0),), RatMatrix(2))

    def test_verify_size_mismatch(self):
        t = bs_block_triple(3)
        with pytest.raises(ValueError):
            verify_triple(bs_block_generator(4), t)

    def test_verify_flags_wrong_triple(self):
        Q = bs_block_generator(4)
        t = kingman_block_triple(4)
        rep = verify_triple(Q, t)
        assert not rep.q_equals_rdl
        assert rep.lr_identity and rep.rl_identity
        assert not rep.all_pass


class TestInverseProducts:
    """R L = I, which ``verify_triple`` reports from the L R product alone."""

    def test_rl_identity_on_lattice_triples(self, bs_triples, kingman_triples):
        for n in range(2, 7):
            for t in (bs_triples[n], kingman_triples[n]):
                assert t.R.matmul(t.L).is_identity()

    @pytest.mark.parametrize("build", [bs_block_triple, kingman_block_triple])
    def test_rl_identity_on_block_triples(self, build):
        for n in range(1, 31):
            t = build(n)
            assert t.R.matmul(t.L).is_identity(), n

    def test_rl_flag_is_the_rl_product(self, bs_generators, bs_triples,
                                       kingman_generators, kingman_triples):
        n = 4
        bs, km = bs_triples[n], kingman_triples[n]
        doubled = SpectralTriple(bs.R, bs.D, bs.L.scaled_cols([F(2)] * bs.size))
        mixed = SpectralTriple(bs.R, bs.D, km.L)
        cases = [
            (bs_generators[n], bs),
            (kingman_generators[n], km),
            (bs_generators[n], km),  # the wrong model's triple
            (bs_generators[n], doubled),  # L scaled by 2
            (bs_generators[n], mixed),
            (bs_block_generator(6), bs_block_triple(6)),
            (bs_block_generator(6), kingman_block_triple(6)),
        ]
        inverse = []
        for Q, t in cases:
            report = verify_triple(Q, t)
            assert report.rl_identity == report.lr_identity
            assert report.rl_identity == t.R.matmul(t.L).is_identity()
            inverse.append(report.rl_identity)
        assert inverse == [True, True, True, False, False, True, True]

    @pytest.mark.parametrize("block", [False, True])
    def test_two_products(self, block, bs_generators, kingman_triples, monkeypatch):
        calls = []
        matmul = RatMatrix.matmul

        def counted(self, other):
            calls.append(1)
            return matmul(self, other)

        monkeypatch.setattr(RatMatrix, "matmul", counted)
        if block:
            Q, t = kingman_block_generator(8), kingman_block_triple(8)
        else:
            Q, t = bs_generators[5], kingman_triples[5]  # a failing pair
        verify_triple(Q, t)
        assert len(calls) == 2
