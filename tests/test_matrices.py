"""Exact sparse products and support checks in the matrices module."""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalspec import (
    RatMatrix,
    SetPartition,
    TriMatrix,
    bs_block_triple,
    bs_rates,
    build_generator,
    kingman_block_triple,
)
from coalspec.matrices import _diagonal_counts, _product_is, _within_order

from conftest import is_identity, with_entries

F = Fraction


def reference_matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Product by a plain Fraction loop over i, k, j."""
    sums: dict[tuple[int, int], Fraction] = {}
    for i, k, x in a.nonzeros():
        for j, y in b.row(k).items():
            sums[(i, j)] = sums.get((i, j), F(0)) + x * y
    return with_entries(RatMatrix(a.size), sums)


def assert_same_product(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    got = a.matmul(b)
    assert got == reference_matmul(a, b)
    assert all(type(v) is Fraction and v != 0 for _, _, v in got.nonzeros())
    return got


def from_entries(size: int, entries) -> RatMatrix:
    return with_entries(RatMatrix(size), entries)


# small, mixed and very large denominators, with signs
denominators = st.one_of(
    st.integers(1, 12),
    st.sampled_from([720, 5040, 3628800, 2**61 - 1, 10**30 + 57]),
    st.integers(1, 10**40),
)
rationals = st.builds(
    F, st.integers(-(10**30), 10**30), denominators
).filter(bool)


@st.composite
def sparse_pairs(draw, max_size=7):
    size = draw(st.integers(0, max_size))
    if size == 0:
        return RatMatrix(0), RatMatrix(0)
    index = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    a = draw(st.dictionaries(index, rationals, max_size=3 * size))
    b = draw(st.dictionaries(index, rationals, max_size=3 * size))
    return from_entries(size, a), from_entries(size, b)


class TestMatmulAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(sparse_pairs())
    def test_random_sparse(self, pair):
        a, b = pair
        assert_same_product(a, b)
        assert_same_product(b, a)

    @settings(max_examples=100, deadline=None)
    @given(sparse_pairs(max_size=5))
    def test_products_that_cancel_to_zero(self, pair):
        # A' = [A A] against B' = [B; -B]: every sum cancels exactly
        a, b = pair
        s = a.size
        a2 = with_entries(RatMatrix(2 * s), {
            at: v for i, k, v in a.nonzeros() for at in ((i, k), (i, k + s))
        })
        b2 = with_entries(RatMatrix(2 * s), {
            at: w for k, j, v in b.nonzeros() for at, w in (((k, j), v), ((k + s, j), -v))
        })
        got = assert_same_product(a2, b2)
        assert got == RatMatrix(2 * s) and got.nnz() == 0

    def test_partial_cancellation_across_denominators(self):
        # row 0: 1/3 * 1/2 + 1/6 * (-1) = 0 in column 0; column 1 survives
        a = from_entries(3, {(0, 0): F(1, 3), (0, 1): F(1, 6), (2, 2): F(5, 7)})
        b = from_entries(3, {(0, 0): F(1, 2), (1, 0): F(-1), (1, 1): F(4, 9)})
        got = assert_same_product(a, b)
        assert got.row(0) == {1: F(2, 27)}
        assert got.row(2) == {}  # row 2 of b is empty
        assert got.nnz() == 1

    def test_identity_and_empty(self):
        a = from_entries(4, {(0, 3): F(-7, 10**25), (3, 1): F(2**70, 3)})
        assert a.matmul(RatMatrix.identity(4)) == a
        assert RatMatrix.identity(4).matmul(a) == a
        assert a.matmul(RatMatrix(4)) == RatMatrix(4)
        assert RatMatrix(0).matmul(RatMatrix(0)) == RatMatrix(0)
        # a missing row is a zero row, not the identity's
        assert not is_identity(RatMatrix.from_rows(2, [(0, 1, {0: 1})]))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            RatMatrix(3).matmul(RatMatrix(4))
        with pytest.raises(ValueError):
            RatMatrix.identity(2).matmul(RatMatrix.identity(1))


@st.composite
def product_cases(draw):
    """(A, B, C, d): sparse square matrices of size 0-5, often with empty rows,
    and a diagonal with zeros among its entries; C is random, A·B' for
    B' = B diag(d), or that plus entries in columns where d is 0."""
    size = draw(st.integers(0, 5))
    index = st.tuples(st.integers(0, max(size - 1, 0)), st.integers(0, max(size - 1, 0)))
    entries = st.dictionaries(index, rationals, max_size=2 * size)
    a, b, c = (from_entries(size, draw(entries)) for _ in range(3))
    d = draw(st.lists(st.one_of(st.just(F(0)), rationals, st.integers(-3, 3)),
                      min_size=size, max_size=size))
    kind = draw(st.sampled_from(["random", "product", "product plus dead columns"]))
    if kind != "random":
        b, c = b.scaled_cols(d), a.matmul(b)
        if kind == "product plus dead columns":
            c = with_entries(c, {(i, j): v for (i, j), v in draw(entries).items() if not d[j]})
    return a, b, c, d


class TestProductIs:
    """The streamed kernel against the materialised product it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(product_cases())
    def test_matches_the_materialised_product(self, case):
        a, b, c, d = case
        assert _product_is(a, b, c, d) == (a.matmul(b) == c.scaled_cols(d))
        n, ones = a.size, (1,) * a.size
        eye = RatMatrix.identity(n)
        assert _product_is(a, b, eye, ones) == (a.matmul(b) == eye)
        assert _product_is(a, b, eye, d) == (a.matmul(b) == eye.scaled_cols(d))
        # against C = I the kernel holds exactly when the product is diag(d)
        diag = eye.scaled_cols(d)
        assert _product_is(diag, eye, eye, d) and _product_is(eye, diag, eye, d)
        assert _product_is(a, eye, eye, d) == (a == diag)
        # scale_rows: the target is diag(d) · C
        assert _product_is(a, b, c, d, scale_rows=True) == (a.matmul(b) == diag.matmul(c))
        assert _product_is(a, eye, eye, d, scale_rows=True) == (a == diag)

    @settings(max_examples=200, deadline=None)
    @given(product_cases(), st.data())
    def test_on_a_subset_of_rows(self, case, data):
        a, b, c, d = case
        rows = data.draw(st.lists(st.sampled_from(range(a.size)), unique=True)) if a.size else []
        product, target = a.matmul(b), c.scaled_cols(d)
        assert _product_is(a, b, c, d, rows) == all(
            product.row(i) == target.row(i) for i in rows
        )
        assert _product_is(a, b, c, d, range(a.size)) == _product_is(a, b, c, d)
        scaled = RatMatrix.identity(a.size).scaled_cols(d).matmul(c)
        assert _product_is(a, b, c, d, rows, scale_rows=True) == all(
            product.row(i) == scaled.row(i) for i in rows
        )

    def test_sizes_must_agree(self):
        three, four = RatMatrix.identity(3), RatMatrix.identity(4)
        for args in ((three, four, three, (1,) * 3), (three, three, four, (1,) * 3),
                     (four, three, three, (1,) * 3), (three, three, three, (1,) * 4),
                     (three, three, three, (1,) * 2)):
            with pytest.raises(ValueError):
                _product_is(*args)

    def test_target_row_no_product_row_meets(self):
        # row 1 of A is empty, so row 1 of C must vanish under d
        a = from_entries(2, {(0, 0): F(1)})
        c = from_entries(2, {(0, 0): F(2), (1, 1): F(5)})
        assert _product_is(a, RatMatrix.identity(2), c, (F(1, 2), 0))
        assert not _product_is(a, RatMatrix.identity(2), c, (F(1, 2), 1))
        # scaled by rows, row 0 of C is 2 · 1/2 and row 1 vanishes under d[1] = 0
        assert _product_is(a, RatMatrix.identity(2), c, (F(1, 2), 0), scale_rows=True)
        assert not _product_is(a, RatMatrix.identity(2), c, (F(1, 2), 1), scale_rows=True)
        assert not _product_is(a, RatMatrix.identity(2), c, (1, 0), scale_rows=True)


class TestTripleProducts:
    """The three products verify_triple forms, on all four triple families."""

    @staticmethod
    def check(t):
        assert_same_product(t.R.scaled_cols(t.D), t.L)
        assert_same_product(t.L, t.R)
        assert_same_product(t.R, t.L)

    def test_lattice_triples(self, bs_triples, kingman_triples):
        for n in range(2, 7):
            self.check(bs_triples[n])
            self.check(kingman_triples[n])

    def test_block_triples(self):
        for n in (1, 2, 5, 12, 30):
            self.check(bs_block_triple(n))
            self.check(kingman_block_triple(n))


class TestDiagonalCounts:
    def test_matches_get(self, bs_generators, kingman_triples):
        for m in (bs_generators[5], kingman_triples[5].R, kingman_triples[5].L,
                  bs_block_triple(9).R, RatMatrix(0)):
            expected = Counter(m.get(i, i) for i in range(m.size))
            assert _diagonal_counts(m) == expected
            assert list(map(type, _diagonal_counts(m))) == [F] * len(expected)

    def test_missing_entry_reads_zero(self):
        # no row has a diagonal entry: row 0's lies right of it, row 2's left
        m = RatMatrix.from_rows(3, [(0, 1, {1: 1}), (2, 1, {0: 1, 1: 1})])
        assert _diagonal_counts(m) == {F(0): 3}
        m = with_entries(m, {(1, 1): F(1, 2)})
        assert _diagonal_counts(m) == {F(0): 2, F(1, 2): 1}

    def test_equal_values_over_different_denominators_merge(self):
        # 1/2 as 1 over 2, and as 3 over 6 in a row with a 1/6 entry
        m = RatMatrix.from_rows(2, [(0, 2, {0: 1}), (1, 6, {0: 1, 1: 3})])
        assert m._rows[1][0] == 6
        assert _diagonal_counts(m) == {F(1, 2): 2}


class TestWithinOrder:
    def test_rejects_non_comparable_pair(self, lattices):
        lat = lattices[4]
        i = lat.index_of(SetPartition.from_string("1,2|3|4"))
        j = lat.index_of(SetPartition.from_string("1,3|2,4"))
        assert i < j and not lat[i].refines(lat[j])
        Q, zeros = build_generator(lat, bs_rates(4)), [0] * len(lat)
        assert _within_order(lat, (Q,), zeros)[0]
        Q = with_entries(Q, {(i, j): F(1, 3)})
        assert _within_order(lat, (Q,), zeros) == (False, None)

    def test_rejects_entry_below_diagonal(self, lattices):
        lat = lattices[4]
        fine = lat.index_of(SetPartition.from_string("1|2|3,4"))
        coarse = lat.index_of(SetPartition.from_string("1,2|3,4"))
        assert fine < coarse and lat[fine].refines(lat[coarse])
        m = with_entries(TriMatrix(lat), {(fine, coarse): F(2)})
        assert _within_order(lat, (m,), [0] * len(lat)) == (True, None)
        m = with_entries(m, {(coarse, fine): F(-1, 5)})
        assert _within_order(lat, (m,), [0] * len(lat)) == (False, None)

    @staticmethod
    def firsts(lat):
        """The first row of each block count, ascending."""
        return tuple(sorted({len(pi): i for i, pi in reversed(list(enumerate(lat)))}.values()))

    def test_certifies_keyed_matrices(self, lattices, bs_generators, kingman_generators,
                                      bs_triples, kingman_triples):
        for n in range(2, 7):
            lat = lattices[n]
            for Q, t in ((bs_generators[n], bs_triples[n]),
                         (kingman_generators[n], kingman_triples[n])):
                assert _within_order(lat, (Q, t.R, t.L), t.D) == (True, self.firsts(lat))
                assert _within_order(lat, (Q,), t.D) == (True, self.firsts(lat))
        assert _within_order(lattices[1], (RatMatrix.identity(1),), (0,)) == (True, (0,))

    def test_entries_off_the_key_are_not_keyed(self, lattices):
        lat = lattices[5]
        Q, D = build_generator(lat, bs_rates(5)), [F(1 - len(pi)) for pi in lat]
        at = lambda text: lat.index_of(SetPartition.from_string(text))
        first, later = at("1|2|3|4,5"), at("1,2|3|4|5")  # rows with 4 blocks
        assert first in self.firsts(lat) and later not in self.firsts(lat)
        cases = {
            "an entry of a first row": (first, at("1,2|3|4,5"), F(1)),
            "an entry of a later row": (later, at("1,2,3|4|5"), F(1)),
            "a zero of a later row": (later, at("1,2,3|4,5"), F(1, 7)),
            # sizes (1, 4) come in one order only on the bottom row, (4, 1) in four
            "one order of the sizes": (0, at("1|2,3,4,5"), F(1, 7)),
        }
        assert _within_order(lat, (Q,), D) == (True, self.firsts(lat))
        for name, (i, j, v) in cases.items():
            broken = with_entries(Q, {(i, j): Q.get(i, j) + v})
            assert _within_order(lat, (broken,), D) == (True, None), name
        # a later row doubled keeps its numerators over half the denominator
        doubled = with_entries(Q, {(later, j): 2 * v for j, v in Q.row(later).items()})
        assert doubled._rows[later][1:] == Q._rows[later][1:]
        assert _within_order(lat, (doubled,), D) == (True, None)
        for i in (first, later):  # D moved on a first row and on a later row
            moved = D[:i] + [D[i] + 1] + D[i + 1:]
            assert _within_order(lat, (Q,), moved) == (True, None), i


def reference_entries(m: RatMatrix) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries as a plain dict, built through ``get``."""
    return {
        (i, j): m.get(i, j)
        for i in range(m.size)
        for j in range(m.size)
        if m.get(i, j) != 0
    }


@st.composite
def sparse_entries(draw, max_size=7, values=rationals):
    size = draw(st.integers(1, max_size))
    index = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    return size, draw(st.dictionaries(index, values, max_size=3 * size))


class TestStorage:
    """Reduced integer rows: one representation per matrix, Fractions on read."""

    @settings(max_examples=200, deadline=None)
    @given(sparse_entries())
    def test_four_constructions_agree(self, drawn):
        size, entries = drawn
        forward = from_entries(size, entries)
        backward = from_entries(size, dict(reversed(list(entries.items()))))
        rows: dict[int, dict[int, Fraction]] = {}
        for (i, j), v in entries.items():
            rows.setdefault(i, {})[j] = v
        bulk_rows = []
        for i, row in rows.items():
            d = 6 * lcm(*[v.denominator for v in row.values()])  # not yet reduced
            bulk_rows.append((i, d, {j: int(v * d) for j, v in row.items()}))
        bulk = RatMatrix.from_rows(size, bulk_rows)
        # every entry first set to a decoy, then overwritten; one extra
        # entry set and then cleared again
        edited = with_entries(from_entries(size, {k: F(7, 3) for k in entries}), entries)
        spare = next(
            ((i, j) for i in range(size) for j in range(size) if (i, j) not in entries),
            None,
        )
        if spare is not None:
            edited = with_entries(with_entries(edited, {spare: F(-5, 11)}), {spare: 0})
        assert forward == backward == bulk == edited
        assert forward._rows == bulk._rows == edited._rows
        assert reference_entries(bulk) == entries

    def test_rows_are_stored_reduced(self):
        m = RatMatrix.from_rows(
            3, [(0, 12, {2: -8, 0: 4}), (1, -6, {1: 3, 0: 0}), (2, 5, {0: 0})]
        )
        # (d, ascending columns, their numerators)
        assert m._rows == {0: (3, (0, 2), (1, -2)), 1: (2, (1,), (-1,))}
        assert all(type(x) is tuple for row in m._rows.values() for x in row[1:])

    @settings(max_examples=200, deadline=None)
    @given(sparse_entries())
    def test_reads_match_a_fraction_reference(self, drawn):
        size, entries = drawn
        m = from_entries(size, entries)
        want = sorted((i, j, v) for (i, j), v in entries.items())
        got = list(m.nonzeros())
        assert got == want
        assert all(type(v) is Fraction for _, _, v in got)
        for i in range(size):
            row = {j: v for (k, j), v in entries.items() if k == i}
            assert m.row(i) == row
            assert all(type(v) is Fraction for v in m.row(i).values())
            total = m.row_sum(i)
            assert total == sum(row.values(), F(0)) and type(total) is Fraction
            for j in range(size):
                v = m.get(i, j)
                assert v == entries.get((i, j), 0) and type(v) is Fraction
        assert m.nnz() == len(entries)

    @settings(max_examples=200, deadline=None)
    @given(
        sparse_entries(
            values=st.builds(
                F, st.integers(-(10**45), 10**45), st.integers(10**39, 10**40)
            ).filter(bool)
        )
    )
    def test_to_float_is_bit_identical_to_float_of_fraction(self, drawn):
        size, entries = drawn
        got = from_entries(size, entries).to_float()
        for i in range(size):
            for j in range(size):
                want = float(entries.get((i, j), 0))
                assert float(got[i, j]).hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(
        sparse_entries(),
        st.lists(st.one_of(st.just(F(0)), rationals, st.integers(-3, 3)), min_size=7),
    )
    def test_diagonal_scaling_matches_a_fraction_loop(self, drawn, diag):
        size, entries = drawn
        diag = diag[:size]
        m = from_entries(size, entries)
        cols = {(i, j): v * diag[j] for (i, j), v in entries.items() if diag[j]}
        assert m.scaled_cols(diag) == from_entries(size, cols)
        assert reference_entries(m.scaled_cols(diag)) == cols

    def test_public_members_only_read(self):
        # built once and then only read: no public member changes an entry
        public = lambda cls: {name for name in dir(cls) if not name.startswith("_")}
        read_only = {"size", "identity", "from_rows", "get", "nonzeros", "nnz", "row",
                     "row_sum", "matmul", "scaled_cols", "is_upper", "is_lower", "to_float"}
        assert public(RatMatrix) == read_only
        assert public(TriMatrix) == read_only | {"lattice"}

    def test_attributes_not_rebound(self, lattices):
        # a verified triple's R keeps its size, a generator its lattice
        t, Q = bs_block_triple(5), build_generator(lattices[4], bs_rates(4))
        with pytest.raises(AttributeError):
            t.R.size = 4
        with pytest.raises(AttributeError):
            Q.lattice = None
        for m, name in ((t.R, "size"), (Q, "lattice"), (Q, "_rows")):
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert (t.R.size, Q.lattice) == (5, lattices[4])
        assert t.R.get(4, 4) == bs_block_triple(5).R.get(4, 4)

    def test_identity_on_each_shape(self, lattices):
        for n in range(1, 5):
            eye = TriMatrix.identity(lattices[n])
            assert type(eye) is TriMatrix and eye.lattice is lattices[n]
            assert eye == RatMatrix.identity(len(lattices[n]))

    def test_unhashable(self, lattices):
        # defining __eq__ leaves RatMatrix, and TriMatrix with it, unhashable
        for m in (RatMatrix.identity(3), TriMatrix(lattices[3])):
            with pytest.raises(TypeError):
                hash(m)

    def test_bulk_constructor_checks_indices(self):
        for rows in (
            [(3, 1, {0: 1})],
            [(-1, 1, {0: 1})],
            [(0, 1, {3: 1})],
            [(0, 1, {-1: 1})],
            [(1, 1, {0: 1, 2: 1, 5: 1})],
            [(4, 1, {})],
        ):
            with pytest.raises(IndexError, match=r"outside 3x3"):
                RatMatrix.from_rows(3, rows)
        with pytest.raises(IndexError, match=r"outside 0x0"):
            RatMatrix.from_rows(0, [(0, 1, {})])
        with pytest.raises(IndexError, match=r"index \(0, 3\) outside 3x3"):
            RatMatrix.from_rows(3, [(0, 1, {3: 1})])
        with pytest.raises(ZeroDivisionError):
            RatMatrix.from_rows(3, [(0, 0, {1: 1})])
        # a repeated row would silently replace the first
        for i, rows in (
            (0, [(0, 1, {0: 1}), (0, 2, {1: 1})]),
            (2, [(2, 1, {}), (1, 1, {1: 1}), (2, 1, {2: 3})]),
        ):
            with pytest.raises(ValueError, match=rf"row {i} is given twice"):
                RatMatrix.from_rows(3, rows)
