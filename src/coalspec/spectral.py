"""Exact eigenvector factorizations Q = R D L of coalescent generators.

Both the Bolthausen-Sznitman and the Kingman generator on P([n]) are upper
triangular in the refinement order, and both diagonalize with closed-form
right and left eigenvector matrices whose entries factor over the blocks of
the coarser partition.  With p = |π|, r = |ρ| and m_B = |restrict(π, B)|:

Bolthausen-Sznitman (diagonal -(p - 1)):
    r(π, ρ) = ((r-1)!/(p-1)!) ∏_B (m_B - 1)!
    l(π, ρ) = (-1)^(p-r) (r-1)!/(p-1)!

Kingman (diagonal -C(p, 2)):
    r(π, ρ) = ((2r-1)!/(p+r-1)!) ∏_B m_B!
    l(π, ρ) = (-1)^(p-r) ((p+r-2)!/(2p-2)!) ∏_B m_B!

The Kingman entries are also proportional to the number of maximal chains in
[π, ρ]; the test suite checks every entry against that route.  L is the
exact inverse of R in all cases, with unit diagonals; ``verify_triple``
reports R L = I from the L R product, since for square exact matrices one
identity implies the other.

Block-counting analogues (n x n, lower triangular in the block count) use
Stirling and Lah numbers in place of the blockwise products.  One builder
fills all four triples.  A model gives it an entry function and one function
of a row's block count b: the eigenvalue and the R and L row denominators,
(b-1)! for BS R and L, (2b-1)! for Kingman R and (2b-2)! for Kingman L.  The
entry functions give integer numerators over those denominators.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial

from .combinatorics import lah, stirling_first, stirling_second
from .matrices import RatMatrix, TriMatrix
from .partitions import PartitionLattice

__all__ = [
    "SpectralTriple",
    "VerificationReport",
    "bs_triple",
    "kingman_triple",
    "bs_block_triple",
    "kingman_block_triple",
    "verify_triple",
]


@dataclass(frozen=True)
class SpectralTriple:
    """A factorization Q = R diag(D) L with L = R^-1, all entries exact."""

    R: RatMatrix
    D: tuple[Fraction, ...]
    L: RatMatrix

    def __post_init__(self):
        if not (self.R.size == self.L.size == len(self.D)):
            raise ValueError("R, D, L dimensions disagree")

    @property
    def size(self) -> int:
        return self.R.size

    def rdl(self) -> RatMatrix:
        """The exact product R diag(D) L."""
        return self.R.scaled_cols(self.D).matmul(self.L)


@dataclass(frozen=True)
class VerificationReport:
    """Exact pass/fail flags for the defining identities of a triple."""

    q_equals_rdl: bool
    lr_identity: bool
    rl_identity: bool
    unit_diagonals: bool
    triangular_support: bool

    @property
    def all_pass(self) -> bool:
        return all(self.as_dict().values())

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


def _lattice_triple(pairs, counts, build, entries, per_row) -> SpectralTriple:
    """R and L over ``pairs``, and D from ``per_row`` per block count.

    ``pairs`` yields (i, j, key) over the support, ``counts`` is each state's
    block count in index order and ``build(rows)`` makes a matrix from
    (i, d, {j: numerator}) rows.  ``per_row(b)`` gives (eigenvalue, R row
    denominator, L row denominator) of a row with b blocks, and
    ``entries(*key)`` the (r, l) numerators over those denominators; the
    lattice triples pass it through ``cache``, since many pairs share a key.
    """
    counts = tuple(counts)
    R: dict[int, dict[int, int]] = defaultdict(dict)
    L: dict[int, dict[int, int]] = defaultdict(dict)
    for i, j, key in pairs:
        R[i][j], L[i][j] = entries(*key)
    facts = {b: per_row(b) for b in set(counts)}
    return SpectralTriple(
        build((i, facts[counts[i]][1], row) for i, row in R.items()),
        tuple(Fraction(facts[b][0]) for b in counts),
        build((i, facts[counts[i]][2], row) for i, row in L.items()),
    )


def _on_lattice(lattice: PartitionLattice):
    """(pairs, counts, build) on the lattice, keyed (|π|, |ρ|, restriction sizes)."""
    return (
        lattice.comparable_pairs(),
        map(len, lattice),
        partial(TriMatrix.from_rows, lattice),
    )


def _on_chain(n: int):
    """(pairs, counts, build) on the block counts 1..n, keyed (i, j) for j <= i."""
    if n < 1:
        raise ValueError("block triple needs n >= 1")
    pairs = ((i - 1, j - 1, (i, j)) for i in range(1, n + 1) for j in range(1, i + 1))
    return pairs, range(1, n + 1), partial(RatMatrix.from_rows, n)


def _bs_row(b: int) -> tuple[int, int, int]:
    """Eigenvalue 1 - b; R and L row denominators (b-1)! and (b-1)!."""
    return 1 - b, factorial(b - 1), factorial(b - 1)


def _kingman_row(b: int) -> tuple[int, int, int]:
    """Eigenvalue -C(b, 2); R and L row denominators (2b-1)! and (2b-2)!."""
    return -comb(b, 2), factorial(2 * b - 1), factorial(2 * b - 2)


def _bs_entries(p: int, r: int, sizes) -> tuple[int, int]:
    base = factorial(r - 1)
    rv = base
    for s in sizes:
        rv *= factorial(s - 1)
    return rv, (base if (p - r) % 2 == 0 else -base)


def _kingman_entries(p: int, r: int, sizes) -> tuple[int, int]:
    prod = 1
    for s in sizes:
        prod *= factorial(s)
    rv = factorial(2 * r - 1) * prod * (factorial(2 * p - 1) // factorial(p + r - 1))
    lv = factorial(p + r - 2) * prod
    return rv, (-lv if (p - r) % 2 else lv)


def _bs_block_entries(i: int, j: int) -> tuple[int, int]:
    base = factorial(j - 1)
    lv = base * stirling_second(i, j)
    return base * stirling_first(i, j), (-lv if (i - j) % 2 else lv)


def _kingman_block_entries(i: int, j: int) -> tuple[int, int]:
    lij = lah(i, j)
    rv = factorial(2 * j - 1) * lij * (factorial(2 * i - 1) // factorial(i + j - 1))
    lv = factorial(i + j - 2) * lij
    return rv, (-lv if (i - j) % 2 else lv)


def bs_triple(lattice: PartitionLattice) -> SpectralTriple:
    """Spectral triple of the Bolthausen-Sznitman generator on the lattice.

    The right eigenvector entries are probabilities (they are containment
    probabilities of random recursive trees), the left entries alternate in
    sign, and the eigenvalues are -(|π| - 1).
    """
    return _lattice_triple(*_on_lattice(lattice), cache(_bs_entries), _bs_row)


def kingman_triple(lattice: PartitionLattice) -> SpectralTriple:
    """Spectral triple of the Kingman generator on the lattice.

    Entries come from the blockwise product form; they equal the
    maximal-chain route m(π, ρ) 2^(p-r) (2r-1)! / ((p-r)! (p+r-1)!) for R and
    (-1)^(p-r) m(π, ρ) 2^(p-r) (p+r-2)! / ((2p-2)! (p-r)!) for L.
    """
    return _lattice_triple(*_on_lattice(lattice), cache(_kingman_entries), _kingman_row)


def bs_block_triple(n: int) -> SpectralTriple:
    """Block-counting Bolthausen-Sznitman triple (n x n, lower triangular).

    r'(i, j) = ((j-1)!/(i-1)!) [i, j] and l'(i, j) = (-1)^(i-j)
    ((j-1)!/(i-1)!) {i, j} with Stirling numbers of the first and second
    kind; eigenvalues 1 - i.
    """
    return _lattice_triple(*_on_chain(n), _bs_block_entries, _bs_row)


def kingman_block_triple(n: int) -> SpectralTriple:
    """Block-counting Kingman triple (n x n, lower triangular).

    r'(i, j) = ((2j-1)!/(i+j-1)!) L(i, j) and l'(i, j) = (-1)^(i-j)
    ((i+j-2)!/(2i-2)!) L(i, j) with Lah numbers; eigenvalues -C(i, 2).
    """
    return _lattice_triple(*_on_chain(n), _kingman_block_entries, _kingman_row)


def _support_ok(triple: SpectralTriple, Q: RatMatrix) -> bool:
    mats = (Q, triple.R, triple.L)
    if all(isinstance(m, TriMatrix) for m in mats):
        return all(m.support_respects_order() for m in mats)
    upper = all(m.is_upper() for m in mats)
    lower = all(m.is_lower() for m in mats)
    return upper or lower


def verify_triple(Q: RatMatrix, triple: SpectralTriple) -> VerificationReport:
    """Exact verification of Q = R D L, L R = I, R L = I, diagonals, support."""
    if Q.size != triple.size:
        raise ValueError("generator and triple dimensions disagree")
    unit = all(
        triple.R.get(i, i) == 1 and triple.L.get(i, i) == 1 for i in range(Q.size)
    )
    return VerificationReport(
        q_equals_rdl=(triple.rdl() == Q),
        # R and L are square and exact, so L R = I iff R L = I: one product decides both
        lr_identity=(inverse := triple.L.matmul(triple.R).is_identity()),
        rl_identity=inverse,
        unit_diagonals=unit,
        triangular_support=_support_ok(triple, Q),
    )
