"""Exact R D L factorizations on the lattice and for block counts."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from coalspec import (
    PartitionLattice,
    RatMatrix,
    SetPartition,
    SpectralTriple,
    TriMatrix,
    VerificationReport,
    bs_block_generator,
    bs_block_triple,
    bs_rates,
    bs_triple,
    build_generator,
    kingman_block_generator,
    kingman_block_triple,
    kingman_rates,
    kingman_triple,
    verify_triple,
)
from coalspec.cli import main
from coalspec.matrices import _product_is, _within_order

from conftest import is_identity, rdl, verify_by_products

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


class TestValueClasses:
    """The triple and the report behave as the frozen dataclasses they were:
    the same repr, equality, hashing, errors and pickle bytes."""

    # VerificationReport(True, False, True, False, True) pickled by protocols
    # 0 to 5: the state is the instance dict, fields in order
    REPORT_PICKLES = (
        b'ccopy_reg\n_reconstructor\np0\n(ccoalspec.spectral\nVerificationReport\np1'
        b'\nc__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVq_equals_rdl\np6\nI01\nsVlr_id'
        b'entity\np7\nI00\nsVrl_identity\np8\nI01\nsVunit_diagonals\np9\nI00\nsVtriang'
        b'ular_support\np10\nI01\nsb.',
        b'ccopy_reg\n_reconstructor\nq\x00(ccoalspec.spectral\nVerificationReport\nq'
        b'\x01c__builtin__\nobject\nq\x02Ntq\x03Rq\x04}q\x05(X\x0c\x00\x00\x00q_equals'
        b'_rdlq\x06I01\nX\x0b\x00\x00\x00lr_identityq\x07I00\nX\x0b\x00\x00\x00rl_iden'
        b'tityq\x08I01\nX\x0e\x00\x00\x00unit_diagonalsq\tI00\nX\x12\x00\x00\x00triang'
        b'ular_supportq\nI01\nub.',
        b'\x80\x02ccoalspec.spectral\nVerificationReport\nq\x00)\x81q\x01}q\x02(X'
        b'\x0c\x00\x00\x00q_equals_rdlq\x03\x88X\x0b\x00\x00\x00lr_identityq\x04\x89X'
        b'\x0b\x00\x00\x00rl_identityq\x05\x88X\x0e\x00\x00\x00unit_diagonalsq'
        b'\x06\x89X\x12\x00\x00\x00triangular_supportq\x07\x88ub.',
        b'\x80\x03ccoalspec.spectral\nVerificationReport\nq\x00)\x81q\x01}q\x02(X'
        b'\x0c\x00\x00\x00q_equals_rdlq\x03\x88X\x0b\x00\x00\x00lr_identityq\x04\x89X'
        b'\x0b\x00\x00\x00rl_identityq\x05\x88X\x0e\x00\x00\x00unit_diagonalsq'
        b'\x06\x89X\x12\x00\x00\x00triangular_supportq\x07\x88ub.',
        b'\x80\x04\x95\x8a\x00\x00\x00\x00\x00\x00\x00\x8c\x11coalspec.spectral'
        b'\x94\x8c\x12VerificationReport\x94\x93\x94)\x81\x94}\x94(\x8c\x0cq_equals_rd'
        b'l\x94\x88\x8c\x0blr_identity\x94\x89\x8c\x0brl_identity\x94\x88\x8c\x0eunit_'
        b'diagonals\x94\x89\x8c\x12triangular_support\x94\x88ub.',
        b'\x80\x05\x95\x8a\x00\x00\x00\x00\x00\x00\x00\x8c\x11coalspec.spectral'
        b'\x94\x8c\x12VerificationReport\x94\x93\x94)\x81\x94}\x94(\x8c\x0cq_equals_rd'
        b'l\x94\x88\x8c\x0blr_identity\x94\x89\x8c\x0brl_identity\x94\x88\x8c\x0eunit_'
        b'diagonals\x94\x89\x8c\x12triangular_support\x94\x88ub.',
    )

    # bs_block_triple(1) pickled by protocols 0 to 5
    TRIPLE_PICKLES = (
        None,  # RatMatrix has slots and no __getstate__
        None,  # RatMatrix has slots and no __getstate__
        b'\x80\x02ccoalspec.spectral\nSpectralTriple\nq\x00)\x81q\x01}q\x02(X'
        b'\x01\x00\x00\x00Rq\x03ccoalspec.matrices\nRatMatrix\nq\x04)\x81q\x05N}q\x06('
        b'X\x04\x00\x00\x00sizeq\x07K\x01X\x05\x00\x00\x00_rowsq\x08}q\tK\x00K\x01K'
        b'\x00\x85q\nK\x01\x85q\x0b\x87q\x0csu\x86q\rbX\x01\x00\x00\x00Dq\x0ecfraction'
        b's\nFraction\nq\x0fK\x00K\x01\x86q\x10Rq\x11\x85q\x12X\x01\x00\x00\x00Lq\x13h'
        b'\x04)\x81q\x14N}q\x15(h\x07K\x01h\x08}q\x16K\x00K\x01h\nK\x01\x85q\x17\x87q'
        b'\x18su\x86q\x19bub.',
        b'\x80\x03ccoalspec.spectral\nSpectralTriple\nq\x00)\x81q\x01}q\x02(X'
        b'\x01\x00\x00\x00Rq\x03ccoalspec.matrices\nRatMatrix\nq\x04)\x81q\x05N}q\x06('
        b'X\x04\x00\x00\x00sizeq\x07K\x01X\x05\x00\x00\x00_rowsq\x08}q\tK\x00K\x01K'
        b'\x00\x85q\nK\x01\x85q\x0b\x87q\x0csu\x86q\rbX\x01\x00\x00\x00Dq\x0ecfraction'
        b's\nFraction\nq\x0fK\x00K\x01\x86q\x10Rq\x11\x85q\x12X\x01\x00\x00\x00Lq\x13h'
        b'\x04)\x81q\x14N}q\x15(h\x07K\x01h\x08}q\x16K\x00K\x01h\nK\x01\x85q\x17\x87q'
        b'\x18su\x86q\x19bub.',
        b'\x80\x04\x95\xd0\x00\x00\x00\x00\x00\x00\x00\x8c\x11coalspec.spectral'
        b'\x94\x8c\x0eSpectralTriple\x94\x93\x94)\x81\x94}\x94(\x8c\x01R\x94\x8c\x11co'
        b'alspec.matrices\x94\x8c\tRatMatrix\x94\x93\x94)\x81\x94N}\x94(\x8c\x04size'
        b'\x94K\x01\x8c\x05_rows\x94}\x94K\x00K\x01K\x00\x85\x94K\x01\x85\x94\x87\x94s'
        b'u\x86\x94b\x8c\x01D\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x00K'
        b'\x01\x86\x94R\x94\x85\x94\x8c\x01L\x94h\x08)\x81\x94N}\x94(h\x0bK\x01h\x0c}'
        b'\x94K\x00K\x01h\x0eK\x01\x85\x94\x87\x94su\x86\x94bub.',
        b'\x80\x05\x95\xd0\x00\x00\x00\x00\x00\x00\x00\x8c\x11coalspec.spectral'
        b'\x94\x8c\x0eSpectralTriple\x94\x93\x94)\x81\x94}\x94(\x8c\x01R\x94\x8c\x11co'
        b'alspec.matrices\x94\x8c\tRatMatrix\x94\x93\x94)\x81\x94N}\x94(\x8c\x04size'
        b'\x94K\x01\x8c\x05_rows\x94}\x94K\x00K\x01K\x00\x85\x94K\x01\x85\x94\x87\x94s'
        b'u\x86\x94b\x8c\x01D\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x00K'
        b'\x01\x86\x94R\x94\x85\x94\x8c\x01L\x94h\x08)\x81\x94N}\x94(h\x0bK\x01h\x0c}'
        b'\x94K\x00K\x01h\x0eK\x01\x85\x94\x87\x94su\x86\x94bub.',
    )

    def test_report(self):
        report = VerificationReport(True, False, True, False, True)
        assert repr(report) == (
            "VerificationReport(q_equals_rdl=True, lr_identity=False, rl_identity=True,"
            " unit_diagonals=False, triangular_support=True)"
        )
        assert list(report.as_dict().items()) == [
            ("q_equals_rdl", True), ("lr_identity", False), ("rl_identity", True),
            ("unit_diagonals", False), ("triangular_support", True),
        ]
        assert not report.all_pass and VerificationReport(*[True] * 5).all_pass
        twin = VerificationReport(
            triangular_support=True, unit_diagonals=False, rl_identity=True,
            lr_identity=False, q_equals_rdl=True,
        )
        assert twin == report and hash(twin) == hash(report)
        assert hash(report) == hash((True, False, True, False, True))
        assert report != VerificationReport(*[True] * 5)
        assert report.__eq__(tuple(report.as_dict().values())) is NotImplemented

    def test_triple(self):
        t = bs_block_triple(3)
        assert repr(t) == (
            "SpectralTriple(R=<RatMatrix 3x3, 6 nonzero>, D=(Fraction(0, 1),"
            " Fraction(-1, 1), Fraction(-2, 1)), L=<RatMatrix 3x3, 6 nonzero>)"
        )
        assert t == bs_block_triple(3) and t != kingman_block_triple(3)
        assert SpectralTriple(L=t.L, D=t.D, R=t.R) == t
        assert t.__eq__((t.R, t.D, t.L)) is NotImplemented
        assert t.size == 3 and rdl(t) == bs_block_generator(3)
        with pytest.raises(TypeError, match="unhashable type: 'RatMatrix'"):
            hash(t)
        with pytest.raises(ValueError, match="R, D, L dimensions disagree"):
            SpectralTriple(t.R, t.D[:2], t.L)

    @pytest.mark.parametrize("field", ["R", "D", "L", "lr_identity", "other"])
    def test_frozen(self, field):
        t = bs_block_triple(2)
        value = t if field in ("R", "D", "L", "other") else verify_triple(
            bs_block_generator(2), t)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        if field != "other":
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(value, field)
            assert getattr(value, field) is not None

    def test_pickle_bytes(self):
        report = VerificationReport(True, False, True, False, True)
        triple = bs_block_triple(1)
        for protocol, data in enumerate(self.REPORT_PICKLES):
            assert pickle.dumps(report, protocol) == data, protocol
            assert pickle.loads(data) == report
        for protocol, data in enumerate(self.TRIPLE_PICKLES):
            if data is None:
                with pytest.raises(TypeError):
                    pickle.dumps(triple, protocol)
                continue
            assert pickle.dumps(triple, protocol) == data, protocol
            assert pickle.loads(data) == triple
        for value in (report, triple):
            for twin in (copy.copy(value), copy.deepcopy(value)):
                assert type(twin) is type(value) and twin == value
                assert vars(twin) == vars(value)


class TestInverseProducts:
    """R L = I, which ``verify_triple`` reports from the L R product alone."""

    def test_rl_identity_on_lattice_triples(self, bs_triples, kingman_triples):
        for n in range(2, 7):
            for t in (bs_triples[n], kingman_triples[n]):
                assert is_identity(t.R.matmul(t.L))

    @pytest.mark.parametrize("build", [bs_block_triple, kingman_block_triple])
    def test_rl_identity_on_block_triples(self, build):
        for n in range(1, 31):
            t = build(n)
            assert is_identity(t.R.matmul(t.L)), n

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
        inverse, rdl = [], []
        for Q, t in cases:
            report = verify_triple(Q, t)
            assert report == verify_by_products(Q, t)
            assert report.rl_identity == report.lr_identity
            assert report.rl_identity == is_identity(t.R.matmul(t.L))
            inverse.append(report.rl_identity)
            rdl.append(report.q_equals_rdl)
        assert inverse == [True, True, True, False, False, True, True]
        assert rdl == [True, True, False, False, False, True, False]

    @staticmethod
    def lattice_cases(n):
        lat = PartitionLattice(n)
        bs, km = bs_triple(lat), kingman_triple(lat)
        triples = {
            "bs": bs,
            "kingman": km,
            "doubled": SpectralTriple(bs.R, bs.D, bs.L.scaled_cols([F(2)] * bs.size)),
            "mixed": SpectralTriple(bs.R, bs.D, km.L),
        }
        generators = {"bs": build_generator(lat, bs_rates(n)),
                      "kingman": build_generator(lat, kingman_rates(n))}
        return generators, triples

    # flags that fail, by (Q, triple) and n; a pair or n not named passes all five
    RDL, INV, UNIT = {"q_equals_rdl"}, {"lr_identity", "rl_identity"}, {"unit_diagonals"}
    DOUBLED = {1: INV | UNIT, **dict.fromkeys(range(2, 6), RDL | INV | UNIT)}  # D = 0 at n = 1
    LATTICE_FAILS = {
        ("bs", "kingman"): {3: RDL, 4: RDL, 5: RDL},
        ("kingman", "bs"): {3: RDL, 4: RDL, 5: RDL},
        ("bs", "doubled"): DOUBLED,
        ("kingman", "doubled"): DOUBLED,
        ("bs", "mixed"): {4: RDL | INV, 5: RDL | INV},
        ("kingman", "mixed"): {3: RDL, 4: RDL | INV, 5: RDL | INV},
    }

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lattice_flags(self, n):
        generators, triples = self.lattice_cases(n)
        for q, Q in generators.items():
            for name, t in triples.items():
                fails = self.LATTICE_FAILS.get((q, name), {}).get(n, set())
                report = verify_triple(Q, t)
                assert report == verify_by_products(Q, t), (q, name)
                assert {k for k, ok in report.as_dict().items() if not ok} == fails, (q, name)

    def test_block_flags(self):
        builds = {"bs": (bs_block_generator, bs_block_triple),
                  "kingman": (kingman_block_generator, kingman_block_triple)}
        for n in range(1, 31):
            for q, (generator, _) in builds.items():
                for name, (_, triple) in builds.items():
                    Q, t = generator(n), triple(n)
                    report, where = verify_triple(Q, t), (q, name, n)
                    assert report == verify_by_products(Q, t), where
                    fails = self.RDL if q != name and n >= 3 else set()
                    assert {k for k, ok in report.as_dict().items() if not ok} == fails, where

    def test_inverse_pair_skips_rdl(self, monkeypatch):
        """Once L R = I, Q = R D L is checked as Q R = R D, without R D L."""
        def refuse(self, other):
            raise AssertionError("R D L was formed")

        monkeypatch.setattr(RatMatrix, "matmul", refuse)
        generators, triples = self.lattice_cases(5)
        for model in ("bs", "kingman"):
            assert verify_triple(generators[model], triples[model]).all_pass
        assert verify_triple(bs_block_generator(20), bs_block_triple(20)).all_pass
        assert verify_triple(kingman_block_generator(20), kingman_block_triple(20)).all_pass

    @pytest.mark.parametrize("block", [False, True])
    def test_two_products(self, block, monkeypatch):
        # each product read is one pass of product rows, and no product matrix
        # is made: Q R and L Q decide a passing triple, and a failing one takes
        # at most one pass more
        passes, calls = [], []
        product_rows, matmul = RatMatrix._product_rows, RatMatrix.matmul

        def counted_rows(self, other, rows=None):
            passes.append((self, other))
            return product_rows(self, other, rows)

        def counted(self, other):
            calls.append(1)
            return matmul(self, other)

        if block:
            n = 8
            Q, wrong = bs_block_generator(n), kingman_block_generator(n)
            t = bs_block_triple(n)
        else:
            lat = PartitionLattice(5)
            Q, wrong = build_generator(lat, bs_rates(5)), build_generator(lat, kingman_rates(5))
            t = bs_triple(lat)

        def read(Q, t):
            passes.clear()
            monkeypatch.setattr(RatMatrix, "_product_rows", counted_rows)
            monkeypatch.setattr(RatMatrix, "matmul", counted)
            report = verify_triple(Q, t)
            monkeypatch.undo()
            assert not calls
            names = {id(Q): "Q", id(t.R): "R", id(t.L): "L"}
            return report, ["".join(names.get(id(m), "RD") for m in pair) for pair in passes]

        assert read(Q, t) == (verify_by_products(Q, t), ["QR", "LQ"])
        assert verify_by_products(Q, t).all_pass
        # the wrong model's generator fails Q R = R D, so L R is read
        report, products = read(wrong, t)
        assert products == ["QR", "LR"]
        assert report == verify_by_products(wrong, t)
        assert report.lr_identity and not report.q_equals_rdl
        # once L R != I as well, Q = R D L is read as (R D) L
        t.L.set(0, 0, 2)
        report, products = read(wrong, t)
        assert products == ["QR", "LR", "RDL"]
        assert report == verify_by_products(wrong, t)
        assert not (report.lr_identity or report.q_equals_rdl)


def key_free_scaling(size):
    """c with c_j = j mod 3 + 1, which varies inside key classes, and diag(1/c)."""
    c = [F(j % 3 + 1) for j in range(size)]
    return c, RatMatrix.identity(size).scaled_cols([1 / x for x in c])


class TestKeyedProducts:
    """On the model triples each product reads one row per block count."""

    @staticmethod
    def product_rows_read(Q, t, monkeypatch):
        read = []
        product_rows = RatMatrix._product_rows

        def counted_rows(self, other, rows=None):
            read.append(None if rows is None else tuple(rows))
            return product_rows(self, other, rows)

        monkeypatch.setattr(RatMatrix, "_product_rows", counted_rows)
        report = verify_triple(Q, t)
        monkeypatch.undo()
        return report, read

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_model_triples_read_n_rows(self, n, monkeypatch):
        lat = PartitionLattice(n)
        firsts = tuple(sorted({len(pi): i for i, pi in reversed(list(enumerate(lat)))}.values()))
        for rates, triple in ((bs_rates, bs_triple), (kingman_rates, kingman_triple)):
            report, read = self.product_rows_read(
                build_generator(lat, rates(n)), triple(lat), monkeypatch)
            assert report.all_pass
            assert read == [firsts, firsts], triple.__name__
            assert len(firsts) == n

    def test_rescaled_triple_reads_every_row(self, bs_generators, bs_triples, monkeypatch):
        # R's column j times c_j and L's row j over c_j: L R = I and
        # Q = R D L still hold, the diagonals do not
        t = bs_triples[5]
        c, inverse = key_free_scaling(t.size)
        rescaled = SpectralTriple(t.R.scaled_cols(c), t.D, inverse.matmul(t.L))
        report, read = self.product_rows_read(bs_generators[5], rescaled, monkeypatch)
        assert {k for k, ok in report.as_dict().items() if not ok} == {"unit_diagonals"}
        assert read == [None, None]

    def test_unkeyed_triple_reads_every_row(self, lattices, bs_generators, bs_triples,
                                            monkeypatch):
        # C^-1 Q C, C^-1 R C, C^-1 L C with C = diag(c) is a valid triple with
        # unit diagonals
        n = 5
        Q, t = bs_generators[n], bs_triples[n]
        c, inverse = key_free_scaling(t.size)
        conj = [inverse.matmul(m).scaled_cols(c) for m in (Q, t.R, t.L)]
        moved = TriMatrix(lattices[n])
        for i, j, v in conj[0].nonzeros():
            moved.set(i, j, v)
        assert _within_order(lattices[n], (moved, *conj[1:]), t.D) == (True, None)
        report, read = self.product_rows_read(
            moved, SpectralTriple(conj[1], t.D, conj[2]), monkeypatch)
        assert report.all_pass
        assert read == [None, None]


class TestStreamedChecks:
    """The row-at-a-time checks of ``verify_triple`` on broken triples, flag by
    flag against the materialised products they replace."""

    @staticmethod
    def builds():
        """(label, make) with make() a fresh (Q, R, D, L) to break."""
        def lattice(n, rates, triple):
            lat = PartitionLattice(n)
            t = triple(lat)
            return build_generator(lat, rates(n)), t.R, t.D, t.L

        def block(n, generator, triple):
            t = triple(n)
            return generator(n), t.R, t.D, t.L

        def rescaled(n, rates, triple):
            # R's column j times c_j and L's row j over c_j: a valid triple whose
            # entries are not functions of the pair key, so no row is skipped
            Q, R, D, L = lattice(n, rates, triple)
            c, inverse = key_free_scaling(R.size)
            return Q, R.scaled_cols(c), D, inverse.matmul(L)

        for n in range(1, 6):
            for rates, triple in ((bs_rates, bs_triple), (kingman_rates, kingman_triple)):
                yield f"{triple.__name__} {n}", lambda a=(n, rates, triple): lattice(*a)
        for n in range(3, 6):
            for rates, triple in ((bs_rates, bs_triple), (kingman_rates, kingman_triple)):
                yield f"rescaled {triple.__name__} {n}", lambda a=(n, rates, triple): rescaled(*a)
        for n in range(1, 21):
            for generator, triple in ((bs_block_generator, bs_block_triple),
                                      (kingman_block_generator, kingman_block_triple)):
                yield f"{triple.__name__} {n}", lambda a=(n, generator, triple): block(*a)

    @staticmethod
    def breaks(Q, R, D, L):
        """(name, apply) for each break that applies; apply edits the
        matrices in place and returns the broken D."""
        def bump(m, i, j):
            def apply():
                m.set(i, j, m.get(i, j) + 1)
                return D
            return apply

        def empty_row(m, i):
            def apply():
                for j in m.row(i):
                    m.set(i, j, 0)
                return D
            return apply

        # on a lattice, the last row of a block count is never the first
        lattice = getattr(Q, "lattice", None)
        if lattice is not None and lattice.n >= 3:
            last = {len(pi): i for i, pi in enumerate(lattice)}
            for p in {2, lattice.n - 1}:
                i, where = last[p], f"last row with {p} blocks"
                for name, m in (("Q", Q), ("R", R), ("L", L)):
                    j = max(m.row(i))
                    yield f"{name}{(i, j)} changed, {where}", bump(m, i, j)
                yield f"D[{i}] changed, {where}", lambda i=i: D[:i] + (D[i] + 1,) + D[i + 1:]
        off = [(i, j) for i, j, _ in R.nonzeros() if i != j]
        for k in {0, len(off) - 1} if off else ():
            yield f"R{off[k]} changed", bump(R, *off[k])
        entries = [(i, j) for i, j, _ in L.nonzeros()]
        for k in {0, len(entries) // 2, len(entries) - 1}:
            yield f"L{entries[k]} changed", bump(L, *entries[k])
        spare = next((i, j) for i in range(Q.size) for j in range(Q.size)
                     if Q.get(i, j) == 0)
        yield f"Q{spare} added", bump(Q, *spare)
        live = [i for i, x in enumerate(D) if x]
        if live:
            yield f"R row {live[0]} deleted", empty_row(R, live[0])
            yield f"Q row {live[-1]} deleted", empty_row(Q, live[-1])
        # a row of L R that never comes up: L's last row meets only R's last row
        yield f"L row {L.size - 1} deleted", empty_row(L, L.size - 1)
        for i in {0, len(D) - 1}:
            yield f"D[{i}] changed", lambda i=i: D[:i] + (D[i] + 1,) + D[i + 1:]

    def test_flags_match_the_materialised_products(self):
        seen = 0
        for label, make in self.builds():
            for name, _ in self.breaks(*make()):
                Q, R, D, L = make()
                D = dict(self.breaks(Q, R, D, L))[name]()
                report = verify_triple(Q, SpectralTriple(R, D, L))
                inverse = is_identity(L.matmul(R))
                right = Q.matmul(R) == R.scaled_cols(D)
                where = (label, name)
                ones = (1,) * Q.size
                assert _product_is(L, R, RatMatrix.identity(Q.size), ones) == inverse, where
                assert _product_is(Q, R, R, D) == right, where
                assert _product_is(R.scaled_cols(D), L, Q, ones) == (
                    R.scaled_cols(D).matmul(L) == Q
                ), where
                assert report.lr_identity == inverse, where
                assert report.rl_identity == is_identity(R.matmul(L)), where
                assert report.q_equals_rdl == (
                    right if inverse else R.scaled_cols(D).matmul(L) == Q
                ), where
                # R is invertible, so every break shows in one of the two
                assert not (inverse and right), where
                seen += 1
        assert seen > 400


class TestEigenEquations:
    """``verify_triple`` reads L R = I off Q R = R D and L Q = D L when the
    support holds, R and L have unit diagonals and D is distinct on every
    comparable pair; on every triple here its flags are those of the L·R-first
    oracle, ``verify_by_products``."""

    @staticmethod
    def bases():
        """(label, (Q, R, D, L)) for each model triple: lattice n <= 5, block n <= 12."""
        for n in range(1, 6):
            lat = PartitionLattice(n)
            for rates, triple in ((bs_rates, bs_triple), (kingman_rates, kingman_triple)):
                t = triple(lat)
                yield f"{triple.__name__} {n}", (build_generator(lat, rates(n)), t.R, t.D, t.L)
        for n in range(1, 13):
            for generator, triple in ((bs_block_generator, bs_block_triple),
                                      (kingman_block_generator, kingman_block_triple)):
                t = triple(n)
                yield f"{triple.__name__} {n}", (generator(n), t.R, t.D, t.L)

    @staticmethod
    def places(Q, m):
        """Entries of m to change: three on the diagonal, the first, middle
        and last off it, both corners, and on a lattice a pair off the order."""
        size = m.size
        off = [(i, j) for i, j, _ in m.nonzeros() if i != j]
        places = {(i, i) for i in (0, size // 2, size - 1)}
        places |= {off[k] for k in {0, len(off) // 2, len(off) - 1}} if off else set()
        places |= {(0, size - 1), (size - 1, 0)}
        lattice = getattr(Q, "lattice", None)
        if lattice is not None:
            places |= set(itertools.islice(
                ((i, j) for i in range(size) for j in range(i + 1, size)
                 if not lattice[i].refines(lattice[j])), 1))
        return sorted(places)

    @classmethod
    def perturbed(cls, Q, R, D, L):
        """(name, Q, R, D, L) for each single-entry change of Q, R, L or D."""
        for name, k in (("Q", 0), ("R", 1), ("L", 3)):
            for i, j in cls.places(Q, (Q, R, D, L)[k]):
                mats = list(copy.deepcopy((Q, R, D, L)))
                mats[k].set(i, j, mats[k].get(i, j) + 1)
                yield f"{name}{(i, j)} + 1", *mats
        size = len(D)
        for i in sorted({0, size // 2, size - 1}):
            yield f"D[{i}] + 1", Q, R, D[:i] + (D[i] + 1,) + D[i + 1:], L
        # the first and last states are comparable: D[0] = D[size - 1]
        yield "D[0] = D[-1]", Q, R, (D[-1],) + D[1:], L

    def test_single_entry_changes(self):
        seen = 0
        for label, base in self.bases():
            for name, Q, R, D, L in [("unchanged", *base), *self.perturbed(*base)]:
                t = SpectralTriple(R, D, L)
                assert verify_triple(Q, t) == verify_by_products(Q, t), (label, name)
                seen += 1
        assert seen > 800

    @staticmethod
    def equal_eigenvalue_cases():
        """(label, Q, triple, L R = I): c I, and R, D = c and L; R D L = Q
        then holds when L R = I or c = 0."""
        lat = PartitionLattice(4)
        bs, km = bs_triple(lat), kingman_triple(lat)
        n = 6
        bs_block, km_block = bs_block_triple(n), kingman_block_triple(n)
        for c in (0, -1):
            scaled = TriMatrix(lat)
            for i in range(len(lat)):
                scaled.set(i, i, c)
            block = RatMatrix.identity(n).scaled_cols([c] * n)
            for label, Q, R, L, inverse in (("lattice, BS", scaled, bs.R, bs.L, True),
                                            ("lattice, mixed", scaled, km.R, bs.L, False),
                                            ("block, BS", block, bs_block.R, bs_block.L, True),
                                            ("block, mixed", block, km_block.R, bs_block.L, False)):
                yield f"{label}, c = {c}", Q, SpectralTriple(R, (F(c),) * Q.size, L), inverse

    def test_equal_eigenvalues_take_the_lr_fallback(self, monkeypatch):
        # Q = c I and D = c give Q R = R D and L Q = D L for any R and L, so
        # those two cannot decide L R = I: L R is read
        for label, Q, t, inverse in self.equal_eigenvalue_cases():
            read = []
            product_rows = RatMatrix._product_rows

            def counted_rows(self, other, rows=None):
                read.append((self, other))
                return product_rows(self, other, rows)

            monkeypatch.setattr(RatMatrix, "_product_rows", counted_rows)
            report = verify_triple(Q, t)
            monkeypatch.undo()
            assert report == verify_by_products(Q, t), label
            assert report.lr_identity == inverse, label
            assert report.q_equals_rdl == (inverse or not Q.nnz()), label
            assert report.unit_diagonals and report.triangular_support, label
            assert any(a is t.L and b is t.R for a, b in read), label


class TestSupportFlag:
    """``triangular_support`` takes its rule from Q: on a lattice, Q, R and L
    are checked against one walk, whatever R and L are stored as."""

    @staticmethod
    def bs4_with_off_order_pair(lattices):
        lat = lattices[4]
        i = lat.index_of(SetPartition.from_string("1,2|3|4"))
        j = lat.index_of(SetPartition.from_string("1,3|2,4"))
        assert i < j and not lat[i].refines(lat[j])
        return build_generator(lat, bs_rates(4)), bs_triple(lat), i, j

    def test_holds_for_every_model_and_size(self):
        for n in range(1, 8):
            lat = PartitionLattice(n)
            for rates, triple in ((bs_rates, bs_triple),
                                  (kingman_rates, kingman_triple)):
                Q, t = build_generator(lat, rates(n)), triple(lat)
                assert all(_within_order(lat, (m,), t.D)[0] for m in (Q, t.R, t.L)), n
                assert verify_triple(Q, t).triangular_support, n
        for n in range(1, 31):
            for gen, triple in ((bs_block_generator, bs_block_triple),
                                (kingman_block_generator, kingman_block_triple)):
                assert verify_triple(gen(n), triple(n)).triangular_support, n

    @pytest.mark.parametrize("which", ["Q", "R", "L"])
    def test_off_order_entry(self, lattices, which):
        Q, t, i, j = self.bs4_with_off_order_pair(lattices)
        assert verify_triple(Q, t).triangular_support
        {"Q": Q, "R": t.R, "L": t.L}[which].set(i, j, F(1, 3))
        assert not verify_triple(Q, t).triangular_support

    def test_off_order_entry_in_a_plain_matrix(self, lattices):
        Q, t, i, j = self.bs4_with_off_order_pair(lattices)
        t.L.set(i, j, F(1, 3))
        plain = t.L.scaled_cols([1] * t.size)
        assert type(plain) is RatMatrix and plain.is_upper()
        report = verify_triple(Q, SpectralTriple(t.R, t.D, plain))
        assert not report.triangular_support

    def test_block_entry_above_diagonal(self):
        t = bs_block_triple(5)
        assert verify_triple(bs_block_generator(5), t).triangular_support
        t.L.set(1, 3, F(1))
        assert not verify_triple(bs_block_generator(5), t).triangular_support

    def test_non_unit_diagonal(self, lattices):
        Q, t, _, _ = self.bs4_with_off_order_pair(lattices)
        assert verify_triple(Q, t).unit_diagonals
        t.R.set(3, 3, F(2))
        report = verify_triple(Q, t)
        assert not report.unit_diagonals and report.triangular_support

    def test_missing_diagonal_entry(self, lattices):
        # BS R at n = 2 is [[1, 1], [0, 1]]: without its diagonal entry, row
        # 0's first stored entry is a 1 in the next column
        Q, t = build_generator(lattices[2], bs_rates(2)), bs_triple(lattices[2])
        assert verify_triple(Q, t).unit_diagonals
        t.R.set(0, 0, F(0))
        assert t.R.row(0) == {1: F(1)}
        assert not verify_triple(Q, t).unit_diagonals

    @pytest.mark.parametrize("job, walks", [
        ("verify", 1), ("verify-block", 0), ("generator", 1), ("triple", 1), ("table", 1),
        ("spectral-bs", 1), ("spectral-kingman", 1),
        ("verify-command", 4),  # verify --n-max 5: one lattice per n = 2..5
    ])
    def test_one_walk(self, job, walks, monkeypatch, capsys):
        # every lattice consumer reads its pairs from one walk: the walks made
        # are counted, on fresh lattices, so a walk kept by an earlier test
        # or an earlier consumer cannot hide a second one
        walked = []
        walk = PartitionLattice._walk

        def counted(self):
            walked.append(self)
            return walk(self)

        lat = PartitionLattice(5)
        if job == "verify":
            # a deep copy leaves behind the walk that built Q and the triple
            Q, t = copy.deepcopy((build_generator(lat, bs_rates(5)), bs_triple(lat)))
        monkeypatch.setattr(PartitionLattice, "_walk", counted)
        if job == "verify":
            assert verify_triple(Q, t).all_pass
        elif job == "verify-block":
            verify_triple(bs_block_generator(8), bs_block_triple(8))
        elif job == "generator":
            build_generator(lat, bs_rates(5))
        elif job == "triple":
            kingman_triple(lat)
        else:
            argv = {"table": "green --n 5", "verify-command": "verify --n-max 5",
                    "spectral-bs": "spectral --n 5", "spectral-kingman":
                    "spectral --n 5 --model kingman"}[job]
            assert main(argv.split()) == 0 and capsys.readouterr().out
        assert len(walked) == walks
        assert len({id(lattice) for lattice in walked}) == walks
        # a matrix build keeps the walk on its lattice; a pair table streams it
        assert all(("_kept" in vars(lattice)) == (job != "table") for lattice in walked)
