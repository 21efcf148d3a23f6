"""Sparse square matrices over exact rationals.

``RatMatrix`` stores a dict of sparse rows of ``fractions.Fraction`` entries;
zero entries are never stored, so equality, identity tests and products are
exact.  Products do not add Fractions, though: ``matmul`` takes each row over
its common denominator and accumulates the sums of an output row as Python
ints over one denominator, then reduces each nonzero sum once.  That is one
gcd per output entry instead of two per product (one for the multiply, one
for the add), and the result is the same exact Fractions.  The integer rows
live only for the duration of a call.

``TriMatrix`` ties a matrix to a ``PartitionLattice`` and is the carrier for
generator and eigenvector matrices, whose support lives on
refinement-comparable pairs (hence upper triangular in the lattice's linear
extension).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

import numpy as np

from .partitions import PartitionLattice

__all__ = ["RatMatrix", "TriMatrix"]

_ZERO = Fraction(0)


def _integer_rows(
    rows: dict[int, dict[int, Fraction]],
) -> dict[int, tuple[int, dict[int, int]]]:
    """Each row as (common denominator d, {col: integer numerator over d})."""
    out = {}
    for i, row in rows.items():
        d = lcm(*[v.denominator for v in row.values()])
        out[i] = (d, {j: v.numerator * (d // v.denominator) for j, v in row.items()})
    return out


class RatMatrix:
    """Square sparse matrix with Fraction entries (dict-of-rows storage)."""

    __slots__ = ("size", "_rows")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("matrix size must be nonnegative")
        self.size = size
        self._rows: dict[int, dict[int, Fraction]] = {}

    @classmethod
    def identity(cls, size: int) -> "RatMatrix":
        out = cls(size)
        for i in range(size):
            out._rows[i] = {i: Fraction(1)}
        return out

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"index ({i}, {j}) outside {self.size}x{self.size}")

    def set(self, i: int, j: int, value) -> None:
        self._check_index(i, j)
        value = Fraction(value)
        row = self._rows.get(i)
        if value == 0:
            if row is not None:
                row.pop(j, None)
                if not row:
                    del self._rows[i]
            return
        if row is None:
            row = self._rows[i] = {}
        row[j] = value

    def get(self, i: int, j: int) -> Fraction:
        self._check_index(i, j)
        row = self._rows.get(i)
        if row is None:
            return _ZERO
        return row.get(j, _ZERO)

    def nonzeros(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (row, col, value) sorted by (row, col)."""
        for i in sorted(self._rows):
            row = self._rows[i]
            for j in sorted(row):
                yield i, j, row[j]

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows.values())

    def row(self, i: int) -> dict[int, Fraction]:
        return dict(self._rows.get(i, {}))

    def row_sum(self, i: int) -> Fraction:
        return sum(self._rows.get(i, {}).values(), _ZERO)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        """The exact product self · other.

        Output row i is accumulated in ints over d_i · M, where d_i is the
        common denominator of row i and M the lcm of the denominators of the
        rows of ``other`` that row i touches.
        """
        if self.size != other.size:
            raise ValueError("matrix sizes differ")
        out = RatMatrix(self.size)
        right = _integer_rows(other._rows)
        for i, (d_i, row) in _integer_rows(self._rows).items():
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
            den = d_i * m
            cleaned = {j: Fraction(v, den) for j, v in acc.items() if v}
            if cleaned:
                out._rows[i] = cleaned
        return out

    def scaled_cols(self, diag: Sequence[Fraction]) -> "RatMatrix":
        """Right-multiplication by diag(d): entry (i, j) scaled by d[j]."""
        if len(diag) != self.size:
            raise ValueError("diagonal length differs from matrix size")
        out = RatMatrix(self.size)
        for i, row in self._rows.items():
            cleaned = {}
            for j, v in row.items():
                w = v * diag[j]
                if w != 0:
                    cleaned[j] = w
            if cleaned:
                out._rows[i] = cleaned
        return out

    def scaled_rows(self, diag: Sequence[Fraction]) -> "RatMatrix":
        """Left-multiplication by diag(d): entry (i, j) scaled by d[i]."""
        if len(diag) != self.size:
            raise ValueError("diagonal length differs from matrix size")
        out = RatMatrix(self.size)
        for i, row in self._rows.items():
            d = diag[i]
            if d == 0:
                continue
            out._rows[i] = {j: v * d for j, v in row.items()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.size == other.size and self._rows == other._rows

    def __hash__(self):
        raise TypeError("RatMatrix is mutable and unhashable")

    def is_identity(self) -> bool:
        if len(self._rows) != self.size:
            return False
        return all(row == {i: 1} for i, row in self._rows.items())

    def is_upper(self) -> bool:
        return all(i <= j for i, j, _ in self.nonzeros())

    def is_lower(self) -> bool:
        return all(i >= j for i, j, _ in self.nonzeros())

    def to_float(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        for i, row in self._rows.items():
            for j, v in row.items():
                out[i, j] = float(v)
        return out

    def __repr__(self) -> str:
        return f"<RatMatrix {self.size}x{self.size}, {self.nnz()} nonzero>"


class TriMatrix(RatMatrix):
    """A RatMatrix indexed by a partition lattice.

    The intended support is refinement-comparable pairs (π, ρ) with π ≤ ρ,
    which the lattice's linear extension makes upper triangular.
    """

    __slots__ = ("lattice",)

    def __init__(self, lattice: PartitionLattice):
        super().__init__(len(lattice))
        self.lattice = lattice

    def support_respects_order(self) -> bool:
        """True iff every nonzero entry sits on a pair with π ≤ ρ.

        Each partition is labelled by the block owning each element of [n];
        π ≤ ρ iff the pairs (owner_π(e), owner_ρ(e)) number exactly |π|,
        that is, iff no block of π meets two blocks of ρ.
        """
        labels = self.lattice.owner_labels()
        for i, row in self._rows.items():
            p, owner_pi = len(self.lattice[i]), labels[i]
            for j in row:
                if len(set(zip(owner_pi, labels[j]))) != p:
                    return False
        return True
