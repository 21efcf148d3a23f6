"""Sparse square matrices over exact rationals.

``RatMatrix`` stores a dict of sparse rows, each as ``(d, cols, nums)`` in
Python ints: ``cols`` is a strictly ascending tuple of column indices and
``nums`` the tuple of their numerators, so entry (i, cols[k]) is
nums[k] / d.  Every stored row is reduced, meaning d > 0, gcd(d, all
numerators) = 1, no zero numerator and no empty row.  A row therefore has
one representation, so ``==`` is dict equality and stays exact.  This module
is the only one that stores, reads or compares rows.

Rows come in one form: the lattice builders (the generator and the spectral
triples) stream (i, d, cols, nums) rows, cols ascending, to
``_from_columns``, with d the natural denominator the closed forms give a
row (a factorial in the block count, which the triples reduce first) and
one numerator tuple shared by the rows of equal pair keys; the
public ``from_rows`` takes {j: num} rows in any column order and sorts them
into that form.  They go out in one form as well: ``_row_entries()`` yields
(i, d, cols, nums) per stored row, rows ascending, ``nonzeros()`` turns its
entries into ``Fraction``s, and the command line formats from it.  ``get``
(which bisects ``cols``), ``row`` and ``row_sum`` build ``Fraction``s on
request, and ``to_float`` divides numerator by denominator in int true
division, which is correctly rounded, as ``float(Fraction)`` is.

Products have one kernel, ``_product_rows``: it yields each row of
left · right accumulated in ints over one denominator, unreduced, on every
row or on a given subset.  ``matmul`` reduces each such row with one
multi-argument gcd, and ``_product_is(left, right, target, diag, rows)``
decides left · right = target · diag(diag), or diag(diag) · target with
``scale_rows``, on ``rows`` or on all rows, by comparing the rows as they
come with target's stored rows, without forming a product matrix;
``spectral.verify_triple`` decides every identity of a triple with it.

``TriMatrix`` ties a matrix to a ``PartitionLattice`` and carries generator
and eigenvector matrices, whose support lies on pairs π ≤ ρ (upper triangular
in the lattice's linear extension); ``_within_order`` checks any number of
them against the lattice's row walk, which has each π's up-set as one row
with the pair key of every entry.  It reads the walk the lattice keeps
(``PartitionLattice._kept_rows``), the one the generator and the triples
were built from, so no pass walks the lattice again.  Over the same rows it
certifies, given a diagonal, that every entry is a function of its pair key,
which lets ``verify_triple`` decide its products on one row per block count.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import _EXPORTS
from .partitions import PartitionLattice, _Frozen

if TYPE_CHECKING:
    import numpy as np

__all__ = list(_EXPORTS["matrices"])

_ZERO = Fraction(0)
_EMPTY = (1, (), ())

_Row = tuple[int, tuple[int, ...], tuple[int, ...]]


def _over_lcm(row: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    """A row of ``Fraction``s as (d, {j: numerator over d}), d their lcm denominator."""
    d = lcm(*[v.denominator for v in row.values()])
    return d, {j: v.numerator * (d // v.denominator) for j, v in row.items()}


def _by_column(nums: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A {j: numerator} row as (cols, nums) with cols ascending."""
    cols = tuple(sorted(nums))
    return cols, tuple(map(nums.__getitem__, cols))


def _reduced(d: int, cols: tuple[int, ...], nums: tuple[int, ...]) -> _Row | None:
    """Numerators over d on ascending cols as a reduced row; None when every
    numerator is 0.  Tuples that need no change are stored as given."""
    g = gcd(d, *nums)
    if d < 0:
        g = -g
    if 0 in nums:
        kept = [(j, v) for j, v in zip(cols, nums) if v]
        if not kept:
            return None
        cols, nums = map(tuple, zip(*kept))
    elif not nums:
        return None
    if g != 1:
        nums = tuple(v // g for v in nums)
    return d // g, cols, nums


class RatMatrix:
    """Square sparse matrix of exact rationals, stored as reduced integer rows: built
    once, by the constructor, ``identity`` or ``from_rows``, and then only read.
    Its slots are set once, by the constructor or by ``__setstate__``;
    assigning or deleting an attribute raises ``AttributeError``, as on the
    ``_Frozen`` values, but equality is by entries, across the two classes."""

    __slots__ = ("size", "_rows")
    __setattr__ = _Frozen.__setattr__
    __delattr__ = _Frozen.__delattr__

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("matrix size must be nonnegative")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_rows", {})

    def __getstate__(self) -> tuple:
        # the state a slotted object pickles by at protocol 2 and above, made
        # here so that protocols 0 and 1 take it too
        return None, {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in cls.__dict__.get("__slots__", ())
        }

    def __setstate__(self, state: tuple) -> None:
        # (None, {slot: value}), the state a slotted object pickles and copies by
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls, shape) -> "RatMatrix":
        """The identity ``cls(shape)``: a size, or a ``TriMatrix``'s lattice."""
        out = cls(shape)
        for i in range(out.size):
            out._rows[i] = (1, (i,), (1,))
        return out

    @classmethod
    def from_rows(
        cls, shape, rows: Iterable[tuple[int, int, dict[int, int]]]
    ) -> "RatMatrix":
        """The matrix ``cls(shape)`` with row i = {j: num / d} per (i, d, {j: num}).

        ``shape`` is what the class takes: a size, or a ``TriMatrix``'s
        lattice.  Row indices are distinct, d is a nonzero int and the
        numerators are ints, in any column order; zero numerators are
        dropped and each row is reduced.  An index outside the matrix raises
        ``IndexError``, a repeated row index ``ValueError``.
        """
        return cls._from_columns(shape, ((i, d, *_by_column(nums)) for i, d, nums in rows))

    @classmethod
    def _from_columns(
        cls, shape, rows: Iterable[tuple[int, int, tuple[int, ...], tuple[int, ...]]]
    ) -> "RatMatrix":
        """``from_rows`` on (i, d, cols, nums) rows, cols strictly ascending."""
        out = cls(shape)
        seen = set()
        for i, d, cols, nums in rows:
            for j in (cols[0], cols[-1]) if cols else (0,):
                out._check_index(i, j)
            if i in seen:
                raise ValueError(f"row {i} is given twice")
            seen.add(i)
            if d == 0:
                raise ZeroDivisionError(f"row {i} has denominator 0")
            row = _reduced(d, cols, nums)
            if row is not None:
                out._rows[i] = row
        return out

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"index ({i}, {j}) outside {self.size}x{self.size}")

    def get(self, i: int, j: int) -> Fraction:
        self._check_index(i, j)
        d, cols, nums = self._rows.get(i, _EMPTY)
        k = bisect_left(cols, j)
        return Fraction(nums[k], d) if k < len(cols) and cols[k] == j else _ZERO

    def _row_entries(self) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
        """Yield (row, row denominator, cols, numerators) per nonzero row,
        rows ascending and cols ascending."""
        rows = self._rows
        for i in sorted(rows):
            yield i, *rows[i]

    def nonzeros(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (row, col, value) sorted by (row, col)."""
        for i, d, cols, nums in self._row_entries():
            for j, v in zip(cols, nums):
                yield i, j, Fraction(v, d)

    def nnz(self) -> int:
        return sum(len(cols) for _, cols, _ in self._rows.values())

    def row(self, i: int) -> dict[int, Fraction]:
        d, cols, nums = self._rows.get(i, _EMPTY)
        return {j: Fraction(v, d) for j, v in zip(cols, nums)}

    def row_sum(self, i: int) -> Fraction:
        d, _, nums = self._rows.get(i, _EMPTY)
        return Fraction(sum(nums), d)

    def _product_rows(
        self, other: "RatMatrix", rows: Iterable[int] | None = None
    ) -> Iterator[tuple[int, int, dict[int, int]]]:
        """Yield (i, scale, acc) per row i of self that meets a stored row of
        ``other``, over ``rows`` (all stored rows when None): row i of
        self · other is {j: acc[j] / scale}, unreduced.

        The row is accumulated in ints over scale = d_i · M, where d_i is the
        denominator of row i and M the lcm of the denominators of the rows
        of ``other`` that row i touches; scale > 0, and acc may hold zeros.
        """
        if self.size != other.size:
            raise ValueError("matrix sizes differ")
        left, right = self._rows, other._rows
        for i in left if rows is None else filter(left.__contains__, rows):
            d_i, cols, nums = left[i]
            touched = [(a, right[k]) for k, a in zip(cols, nums) if k in right]
            if not touched:
                continue
            m = lcm(*[d_k for _, (d_k, _, _) in touched])
            acc: dict[int, int] = {}
            get = acc.get
            for a, (d_k, ocols, onums) in touched:
                s = a * (m // d_k)
                for j, b in zip(ocols, onums):
                    acc[j] = get(j, 0) + s * b
            yield i, d_i * m, acc

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        """The exact product self · other: each row of ``_product_rows``
        reduced with one gcd."""
        out = RatMatrix(self.size)
        for i, scale, acc in self._product_rows(other):
            reduced = _reduced(scale, *_by_column(acc))
            if reduced is not None:
                out._rows[i] = reduced
        return out

    def scaled_cols(self, diag: Sequence[Fraction]) -> "RatMatrix":
        """Right-multiplication by diag(d): entry (i, j) scaled by d[j]."""
        if len(diag) != self.size:
            raise ValueError("diagonal length differs from matrix size")
        diag = [Fraction(x) for x in diag]
        tops, bottoms = [x.numerator for x in diag], [x.denominator for x in diag]
        out = RatMatrix(self.size)
        for i, (d, cols, nums) in self._rows.items():
            m = lcm(*[bottoms[j] for j in cols])
            scaled = tuple(v * tops[j] * (m // bottoms[j]) for j, v in zip(cols, nums))
            row = _reduced(d * m, cols, scaled)
            if row is not None:
                out._rows[i] = row
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.size == other.size and self._rows == other._rows

    def is_upper(self) -> bool:
        return all(i <= cols[0] for i, (_, cols, _) in self._rows.items())

    def is_lower(self) -> bool:
        return all(i >= cols[-1] for i, (_, cols, _) in self._rows.items())

    def to_float(self) -> np.ndarray:
        """The matrix in doubles, each entry correctly rounded."""
        import numpy as np

        out = np.zeros((self.size, self.size))
        for i, (d, cols, nums) in self._rows.items():
            for j, v in zip(cols, nums):
                out[i, j] = v / d
        return out

    def __repr__(self) -> str:
        return f"<RatMatrix {self.size}x{self.size}, {self.nnz()} nonzero>"


def _diagonal_counts(m: RatMatrix) -> Counter[Fraction]:
    """The diagonal of m as {value: number of rows}, a missing entry read as 0.

    Each row's diagonal entry is found by bisecting its columns and counted
    as (numerator, row denominator); each distinct pair becomes one
    ``Fraction``, so equal values over different denominators merge.
    """
    raw: Counter[tuple[int, int]] = Counter()
    for i in range(m.size):
        d, cols, nums = m._rows.get(i, _EMPTY)
        k = bisect_left(cols, i)
        raw[(nums[k], d) if k < len(cols) and cols[k] == i else (0, 1)] += 1
    out: Counter[Fraction] = Counter()
    for (v, d), count in raw.items():
        out[Fraction(v, d)] += count
    return out


class TriMatrix(RatMatrix):
    """A RatMatrix indexed by a partition lattice; its intended support is π ≤ ρ."""

    __slots__ = ("lattice",)

    def __init__(self, lattice: PartitionLattice):
        super().__init__(len(lattice))
        object.__setattr__(self, "lattice", lattice)


def _within_order(
    lattice: PartitionLattice, mats: Sequence[RatMatrix], diag: Sequence
) -> tuple[bool, tuple[int, ...] | None]:
    """(within, keyed), read from the lattice's kept walk, ``_kept_rows()``.

    ``within`` is True iff row i of every matrix lies in the up-set of
    lattice[i].  ``keyed`` is the first row of each block count, ascending,
    when every entry of every matrix, zeros included, and every diag[i] are
    functions of the pair key alone; otherwise None.
    A key's class is its (|ρ|, sorted sizes).  The first row with p blocks
    gives each class of p blocks a value per matrix, and every row with p
    blocks, that one included, must read those values back through its keys,
    under the same row denominator (rows of equal values reduce alike), with
    diag[i] equal to diag at the first row.  What a row must read is worked
    out once per keys tuple, which the rows of equal keys share.
    """
    keyed = True
    first: dict[int, tuple] = {}  # p -> (row, key -> class, per matrix (d, class -> value))
    expected: dict[tuple, list] = {}  # keys -> [diag, per matrix (d, values along keys)]
    for i, js, keys in lattice._kept_rows():
        dense = [diag[i]]
        for m in mats:
            d, cols, nums = m._rows.get(i, _EMPTY)
            if cols != js:  # fill in the zeros; a column off js adds a key
                full = dict.fromkeys(js, 0)
                full.update(zip(cols, nums))
                if len(full) != len(js):
                    return False, None
                nums = tuple(full.values())
            dense.append((d, nums))
        if not keyed:
            continue
        want = expected.get(keys)
        if want is None:
            p = keys[0][0]
            if p not in first:
                sorted_keys: dict[tuple, int] = {}
                classes = {k: sorted_keys.setdefault((k[1], *sorted(k[2])), len(sorted_keys))
                           for k in keys}
                at = list(map(classes.__getitem__, keys))
                first[p] = i, classes, [(d, dict(zip(at, nums))) for d, nums in dense[1:]]
            i0, classes, values = first[p]
            at = list(map(classes.__getitem__, keys))
            want = expected[keys] = [diag[i0], *(
                (d0, tuple(map(by_class.__getitem__, at))) for d0, by_class in values
            )]
        keyed = dense == want
    return True, (tuple(sorted(i0 for i0, _, _ in first.values())) if keyed else None)


def _product_is(
    left: RatMatrix, right: RatMatrix, target: RatMatrix, diag: Sequence[Fraction],
    rows: Sequence[int] | None = None, scale_rows: bool = False,
) -> bool:
    """True iff left · right = target · diag(diag), or diag(diag) · target when
    ``scale_rows``, on ``rows`` (every row when None), no product matrix formed.

    Each row of ``left._product_rows(right, rows)`` is compared, as it
    comes, with the stored row of target: entry j is acc[j] / scale on the
    left and v diag[j] / d on the right (v diag[i] / d when ``scale_rows``),
    for target's row i (d, cols, nums), and the two are compared
    cross-multiplied.  A row of target among ``rows`` that meets no product
    row must vanish under diag.  Sizes or the diag length that disagree raise
    ``ValueError``.
    """
    if not (left.size == right.size == target.size == len(diag)):
        raise ValueError("matrix sizes or diagonal length differ")
    # an int or a Fraction has its numerator and denominator already
    diag = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in diag]
    tops, bottoms = [x.numerator for x in diag], [x.denominator for x in diag]
    ones = [1] * len(diag)
    # target's row i is scaled by row_tops[i] / row_bottoms[i], its column j by
    # tops[j] / bottoms[j]
    if scale_rows:
        row_tops, row_bottoms, tops, bottoms = tops, bottoms, ones, ones
    else:
        row_tops = row_bottoms = ones
    stored, met = target._rows, set()
    for i, scale, acc in left._product_rows(right, rows):
        d, cols, nums = stored.get(i, _EMPTY)
        d, scale = d * row_bottoms[i], scale * row_tops[i]
        for j, v in zip(cols, nums):
            if acc.pop(j, 0) * d * bottoms[j] != scale * v * tops[j]:
                return False
        if any(acc.values()):
            return False
        met.add(i)
    unmet = stored.keys() - met if rows is None else set(rows) - met
    return all(not any(row_tops[i] * tops[j] for j in stored.get(i, _EMPTY)[1])
               for i in unmet)
