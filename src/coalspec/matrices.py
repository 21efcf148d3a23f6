"""Sparse square matrices over exact rationals.

``RatMatrix`` stores a dict of sparse rows, each as ``(d, {col: numerator})``
in Python ints: entry (i, j) is numerator / d.  Every stored row is reduced,
meaning d > 0, gcd(d, all numerators) = 1, no zero numerator and no empty row.
A row therefore has one representation, so ``==`` is dict equality and
stays exact.  The closed forms give every row a natural denominator (a
factorial in the block count), and the builders hand rows over in that form
through ``from_rows``.

``Fraction``s are built only on read: ``get``, ``row``, ``row_sum`` and
``nonzeros`` return reduced ``Fraction``s made on request.  ``matmul`` works
on the integer rows directly: an output row is accumulated in ints over one
denominator and reduced with one multi-argument gcd.  ``to_float`` divides
numerator by denominator in int true division, which is correctly rounded,
so it gives the same bits as ``float(Fraction)``.

``TriMatrix`` ties a matrix to a ``PartitionLattice`` and carries generator
and eigenvector matrices, whose support lies on pairs π ≤ ρ (upper triangular
in the lattice's linear extension); ``_within_order`` checks any number of
them against one pass of the lattice's row walk, ``comparable_rows()``, which
yields each π's up-set as one row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .partitions import PartitionLattice

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RatMatrix", "TriMatrix"]

_ZERO = Fraction(0)


def _over_lcm(row: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    """A row of ``Fraction``s as (d, {j: numerator over d}), d their lcm denominator."""
    d = lcm(*[v.denominator for v in row.values()])
    return d, {j: v.numerator * (d // v.denominator) for j, v in row.items()}


def _reduced(d: int, nums: dict[int, int]) -> tuple[int, dict[int, int]] | None:
    """Row numerators over d as a reduced row; None when every numerator is 0."""
    g = gcd(d, *nums.values())
    if d < 0:
        g = -g
    if g == 1:
        row = {j: v for j, v in nums.items() if v}
    else:
        row = {j: v // g for j, v in nums.items() if v}
    return (d // g, row) if row else None


class RatMatrix:
    """Square sparse matrix of exact rationals, stored as reduced integer rows."""

    __slots__ = ("size", "_rows")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("matrix size must be nonnegative")
        self.size = size
        self._rows: dict[int, tuple[int, dict[int, int]]] = {}

    @classmethod
    def identity(cls, size: int) -> "RatMatrix":
        out = cls(size)
        for i in range(size):
            out._rows[i] = (1, {i: 1})
        return out

    @classmethod
    def from_rows(
        cls, shape, rows: Iterable[tuple[int, int, dict[int, int]]]
    ) -> "RatMatrix":
        """The matrix ``cls(shape)`` with row i = {j: num / d} per (i, d, {j: num}).

        ``shape`` is what the class takes: a size, or a ``TriMatrix``'s
        lattice.  Row indices are distinct, d is a nonzero int and the
        numerators are ints; zero numerators are dropped and each row is
        reduced.  An index outside the matrix raises ``IndexError``, a
        repeated row index ``ValueError``.
        """
        out = cls(shape)
        seen = set()
        for i, d, nums in rows:
            for j in (min(nums), max(nums)) if nums else (0,):
                out._check_index(i, j)
            if i in seen:
                raise ValueError(f"row {i} is given twice")
            seen.add(i)
            if d == 0:
                raise ZeroDivisionError(f"row {i} has denominator 0")
            row = _reduced(d, nums)
            if row is not None:
                out._rows[i] = row
        return out

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"index ({i}, {j}) outside {self.size}x{self.size}")

    def set(self, i: int, j: int, value) -> None:
        """Set entry (i, j), re-reducing its row (O(row length) per call)."""
        self._check_index(i, j)
        row = self.row(i)
        row[j] = Fraction(value)
        self._rows.pop(i, None)
        reduced = _reduced(*_over_lcm(row))
        if reduced is not None:
            self._rows[i] = reduced

    def get(self, i: int, j: int) -> Fraction:
        self._check_index(i, j)
        d, nums = self._rows.get(i, (1, {}))
        v = nums.get(j)
        return _ZERO if v is None else Fraction(v, d)

    def nonzeros(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (row, col, value) sorted by (row, col)."""
        for i in sorted(self._rows):
            d, nums = self._rows[i]
            for j in sorted(nums):
                yield i, j, Fraction(nums[j], d)

    def nnz(self) -> int:
        return sum(len(nums) for _, nums in self._rows.values())

    def row(self, i: int) -> dict[int, Fraction]:
        d, nums = self._rows.get(i, (1, {}))
        return {j: Fraction(v, d) for j, v in nums.items()}

    def row_sum(self, i: int) -> Fraction:
        d, nums = self._rows.get(i, (1, {}))
        return Fraction(sum(nums.values()), d)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        """The exact product self · other.

        Output row i is accumulated in ints over d_i · M, where d_i is the
        denominator of row i and M the lcm of the denominators of the rows
        of ``other`` that row i touches, then reduced with one gcd.
        """
        if self.size != other.size:
            raise ValueError("matrix sizes differ")
        out = RatMatrix(self.size)
        right = other._rows
        for i, (d_i, row) in self._rows.items():
            touched = [(a, right[k]) for k, a in row.items() if k in right]
            if not touched:
                continue
            m = lcm(*[d_k for _, (d_k, _) in touched])
            acc: dict[int, int] = {}
            get = acc.get
            for a, (d_k, orow) in touched:
                s = a * (m // d_k)
                for j, b in orow.items():
                    acc[j] = get(j, 0) + s * b
            reduced = _reduced(d_i * m, acc)
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
        for i, (d, nums) in self._rows.items():
            m = lcm(*[bottoms[j] for j in nums])
            scaled = {j: v * tops[j] * (m // bottoms[j]) for j, v in nums.items()}
            row = _reduced(d * m, scaled)
            if row is not None:
                out._rows[i] = row
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.size == other.size and self._rows == other._rows

    def is_identity(self) -> bool:
        if len(self._rows) != self.size:
            return False
        return all(row == (1, {i: 1}) for i, row in self._rows.items())

    def is_upper(self) -> bool:
        return all(i <= j for i, (_, nums) in self._rows.items() for j in nums)

    def is_lower(self) -> bool:
        return all(i >= j for i, (_, nums) in self._rows.items() for j in nums)

    def to_float(self) -> np.ndarray:
        """The matrix in doubles, each entry correctly rounded."""
        import numpy as np

        out = np.zeros((self.size, self.size))
        for i, (d, nums) in self._rows.items():
            for j, v in nums.items():
                out[i, j] = v / d
        return out

    def __repr__(self) -> str:
        return f"<RatMatrix {self.size}x{self.size}, {self.nnz()} nonzero>"


class TriMatrix(RatMatrix):
    """A RatMatrix indexed by a partition lattice; its intended support is π ≤ ρ."""

    __slots__ = ("lattice",)

    def __init__(self, lattice: PartitionLattice):
        super().__init__(len(lattice))
        self.lattice = lattice

    def support_respects_order(self) -> bool:
        """True iff every nonzero entry sits on a pair with π ≤ ρ."""
        return _within_order(self.lattice, (self,))


def _within_order(lattice: PartitionLattice, mats: Sequence[RatMatrix]) -> bool:
    """True iff row i of every matrix lies in the up-set of lattice[i], read a
    row at a time from one pass of ``comparable_rows()``."""
    for i, js, _ in lattice.comparable_rows():
        up = set(js)
        if any(i in m._rows and not m._rows[i][1].keys() <= up for m in mats):
            return False
    return True
