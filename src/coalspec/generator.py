"""Generator matrices of exchangeable n-coalescents on the partition lattice.

A coalescent with merger rates λ(b, k) (k of b blocks merge) has generator

    q(π, ρ) = λ(|π|, |π| - |ρ| + 1)   when ρ is a single merger of π,
    q(π, π) = -λ_|π|                  with λ_b = Σ_k C(b, k) λ(b, k),

zero elsewhere; rows sum to zero by construction.  Two rate families are
built in: the Bolthausen-Sznitman coalescent λ(b, k) = (k-2)!(b-k)!/(b-1)!
and the Kingman coalescent (pair mergers at rate 1).  Block-counting
projections (the process |Π(t)|) get their own small dense generators.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import compress
from math import comb, factorial, lcm
from typing import Mapping

from . import _EXPORTS
from .combinatorics import stirling_second
from .matrices import RatMatrix, TriMatrix, _diagonal_counts, _over_lcm
from .partitions import PartitionLattice

__all__ = list(_EXPORTS["generator"])


class RateTable:
    """Merger rates λ(b, k) for 2 ≤ k ≤ b ≤ n, all exact and nonnegative.

    ``total_rate(b)`` is the total jump rate λ_b = Σ_{k=2}^{b} C(b, k) λ(b, k)
    out of a state with b blocks (the empty sum, zero, for b = 1).
    """

    def __init__(self, n: int, rates: Mapping[tuple[int, int], object]):
        if n < 1:
            raise ValueError("rate table needs n >= 1")
        table: dict[tuple[int, int], Fraction] = {}
        for (b, k), value in rates.items():
            if not (2 <= k <= b <= n):
                raise ValueError(f"rate index ({b}, {k}) outside 2 <= k <= b <= {n}")
            v = Fraction(value)
            if v < 0:
                raise ValueError(f"rate λ({b}, {k}) = {v} is negative")
            table[(b, k)] = v
        self.n = n
        self._rates = table
        self._totals: dict[int, Fraction] = {}

    def rate(self, b: int, k: int) -> Fraction:
        try:
            return self._rates[(b, k)]
        except KeyError:
            raise ValueError(f"no rate defined for ({b}, {k})") from None

    def total_rate(self, b: int) -> Fraction:
        """λ_b, the total merger rate from b blocks."""
        if b < 1 or b > self.n:
            raise ValueError(f"block count {b} outside 1..{self.n}")
        if b not in self._totals:
            self._totals[b] = sum(
                (comb(b, k) * self.rate(b, k) for k in range(2, b + 1)), Fraction(0)
            )
        return self._totals[b]

    def items(self):
        return sorted(self._rates.items())

    def __repr__(self) -> str:
        return f"RateTable(n={self.n}, {len(self._rates)} rates)"


def bs_rates(n: int) -> RateTable:
    """Bolthausen-Sznitman rates λ(b, k) = (k-2)! (b-k)! / (b-1)!.

    Equivalently ∫ x^(k-2) (1-x)^(b-k) dx with the uniform merger measure.
    The total rate from b blocks is b - 1; the table is empty for n = 1.
    """
    rates = {
        (b, k): Fraction(factorial(k - 2) * factorial(b - k), factorial(b - 1))
        for b in range(2, n + 1)
        for k in range(2, b + 1)
    }
    return RateTable(n, rates)


def kingman_rates(n: int) -> RateTable:
    """Kingman rates: each pair of blocks merges at rate 1; empty for n = 1."""
    rates = {
        (b, k): Fraction(1) if k == 2 else Fraction(0)
        for b in range(2, n + 1)
        for k in range(2, b + 1)
    }
    return RateTable(n, rates)


def build_generator(lattice: PartitionLattice, rates: RateTable) -> TriMatrix:
    """Assemble the generator Q on the lattice from a rate table.

    Rows sum to zero exactly; off-diagonal support consists of the single
    mergers with nonzero rate.  Filled a row at a time from the lattice's
    kept walk, ``lattice._kept_rows()``: ρ is a single merger of π iff one
    restriction size, k = |π| - |ρ| + 1, exceeds 1 (k = 1 on the diagonal).
    """
    if rates.n < lattice.n:
        raise ValueError(
            f"rate table covers b <= {rates.n} but the lattice needs b <= {lattice.n}"
        )
    # per block count p, the row denominator and the numerators over it of
    # q(π, ρ) for k = p - |ρ| + 1 (k = 1 on the diagonal)
    per_p = {}
    for p in range(1, lattice.n + 1):
        values = {k: rates.rate(p, k) for k in range(2, p + 1)}
        values[1] = -rates.total_rate(p)
        per_p[p] = _over_lcm(values)

    @cache
    def row_pattern(keys):
        """(d, mask, numerators) of a row with these keys: mask[k] is whether
        keys[k] is the diagonal or a single merger at a nonzero rate."""
        p = keys[0][0]
        d, nums = per_p[p]
        # Σ (size - 1) = k - 1, so a single merger has every other size 1
        at = [nums[p - r + 1] if r == p or p - r + 1 in sizes else 0 for _, r, sizes in keys]
        return d, tuple(map(bool, at)), tuple(filter(None, at))

    def rows():
        for i, js, keys in lattice._kept_rows():  # equal keys, one keys tuple
            d, mask, nums = row_pattern(keys)
            yield i, d, tuple(compress(js, mask)), nums

    return TriMatrix._from_columns(lattice, rows())


def bs_block_generator(n: int) -> RatMatrix:
    """Generator of the Bolthausen-Sznitman block-counting process |Π(t)|.

    Entry (i, j), 1-indexed by block count and stored 0-based, equals
    i / ((i-j)(i-j+1)) for i > j and 1 - i on the diagonal.  Lower
    triangular, zero row sums.
    """
    if n < 1:
        raise ValueError("block generator needs n >= 1")
    rows = []
    for i in range(2, n + 1):
        den = lcm(*[d * (d + 1) for d in range(1, i)])
        row = {j - 1: i * den // ((i - j) * (i - j + 1)) for j in range(1, i)}
        row[i - 1] = (1 - i) * den
        rows.append((i - 1, den, row))
    return RatMatrix.from_rows(n, rows)


def kingman_block_generator(n: int) -> RatMatrix:
    """Generator of the Kingman block-counting process: pure death at C(i, 2)."""
    if n < 1:
        raise ValueError("block generator needs n >= 1")
    rates = ((i - 1, comb(i, 2)) for i in range(2, n + 1))
    return RatMatrix.from_rows(n, ((i, 1, {i: -c, i - 1: c}) for i, c in rates))


def characteristic_factorization(
    Q: TriMatrix, rates: RateTable
) -> list[tuple[Fraction, int]]:
    """Eigenvalues of Q with multiplicities: (-λ_i, S(n, i)) for i = 1..n.

    Q is triangular, so its spectrum is its diagonal; the diagonal entry at π
    is -λ_|π| and P([n]) has S(n, i) elements with i blocks (Stirling second
    kind).  The multiset of diagonal entries is checked exactly against the
    rate table before returning.
    """
    n = Q.lattice.n
    lam = {i: rates.total_rate(i) for i in range(1, n + 1)}
    expected = Counter()
    for i in range(1, n + 1):
        expected[-lam[i]] += stirling_second(n, i)
    if _diagonal_counts(Q) != expected:
        raise ValueError("diagonal of Q does not match the rate table's total rates")
    return [(-lam[i], stirling_second(n, i)) for i in range(1, n + 1)]
