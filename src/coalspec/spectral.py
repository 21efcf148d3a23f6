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
exact inverse of R in all cases, with unit diagonals.

``verify_triple`` decides every identity with one streamed kernel,
``matrices._product_is``, and forms no product matrix.  It reads Q R = R D
first.  If that holds, the support holds, R and L have unit diagonals and
D_i != D_j on every comparable pair i != j, it reads L Q = D L, which then
holds iff L R = I.  Given both equations,
D_i (L R)_ij = (L Q R)_ij = (L R)_ij D_j, so (L R)_ij = 0 on comparable
pairs i != j; the support puts every other entry off the diagonal of L R
at 0, and makes (L R)_ii = L_ii R_ii = 1.  Conversely L R = I makes
L = R^-1 and L Q = L R D L = D L.  On a keyed lattice (below) D is a
function of the block count and any two block counts meet on a comparable
pair, so the condition reads: the n block-count eigenvalues are distinct;
otherwise all of D must be.  When any of this fails, it reads L R = I
itself.  Given L R = I, Q = R D L iff Q R = R D; otherwise it reads
R D L = Q.  So a passing triple takes two products, Q R and L Q, and a
failing one at most three.  R L = I is reported from L R = I, since for
square exact matrices one implies the other.

On the lattice each product is decided on n rows, one per block count, by
this lemma.  Call a matrix M keyed when M(π, ρ) = 0 unless π ≤ ρ, and
otherwise depends only on |π|, |ρ| and the sorted restriction sizes m_B.
If A and B are keyed, so is A B: (A B)(π, σ) sums A(π, ρ) B(ρ, σ) over
[π, σ] ≅ ∏_B P(m_B), and an isomorphism between two such intervals with
equal sorted sizes matches the blocks B of equal m_B, so it maps the pairs
(π, ρ) and (ρ, σ) to pairs with the same sorted sizes.  The identity is
keyed, and so are R D and D L when D(π) depends only on |π|.  Two keyed
matrices agree as soon as they agree on the first row with p blocks, for
each p: every row with p blocks meets the same pair keys, one per grouping
of its p blocks, so that row meets every key an entry of such a row can
have.
The support check (``matrices._within_order``) certifies Q, R, L and D
keyed, zeros included, over the rows that check their support; without the
certificate (block triples, hand-built or broken matrices) every row is
read.  The generator, the triple and that check read one walk of the
lattice, which the lattice keeps (``PartitionLattice._kept_rows``), so a
lattice is walked once however many of them run on it.

The block-counting triples (n x n, lower triangular in the block count) are
the lattice triples lumped by block count: summed over the ρ with j blocks,
the blockwise weights ∏_B (m_B - 1)!, 1 and ∏_B m_B! become the Stirling
numbers [i, j], {i, j} and the Lah number L(i, j) of i = |π| and j.  So each
model has one entry function of (p, r) and its weights, and one builder fills
all four triples.  A model gives it that function and one function of a row's
block count b: the eigenvalue and the R and L row denominators, (b-1)! for BS
R and L, (2b-1)! for Kingman R and (2b-2)! for Kingman L.  The entry
functions give integer numerators over those denominators.  The chain's
keys carry the weights: row i of the BS triple is made from rows i of both
Stirling triangles as ``combinatorics._stirling_rows`` makes them, and no
triangle is kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import count, repeat, starmap
from math import comb, gcd, prod

from . import _EXPORTS
from .combinatorics import _factorial, _stirling_rows, lah
from .matrices import RatMatrix, TriMatrix, _diagonal_counts, _product_is, _within_order
from .partitions import PartitionLattice, _Frozen

__all__ = list(_EXPORTS["spectral"])


class SpectralTriple(_Frozen):
    """A factorization Q = R diag(D) L with L = R^-1, all entries exact.

    Unhashable, as R and L are.
    """

    __match_args__ = ("R", "D", "L")

    def __init__(self, R: RatMatrix, D: tuple[Fraction, ...], L: RatMatrix) -> None:
        if not (R.size == L.size == len(D)):
            raise ValueError("R, D, L dimensions disagree")
        self.__dict__.update(R=R, D=D, L=L)

    @property
    def size(self) -> int:
        return self.R.size


class VerificationReport(_Frozen):
    """Exact pass/fail flags for the defining identities of a triple."""

    __match_args__ = (
        "q_equals_rdl", "lr_identity", "rl_identity", "unit_diagonals", "triangular_support",
    )

    def __init__(
        self,
        q_equals_rdl: bool,
        lr_identity: bool,
        rl_identity: bool,
        unit_diagonals: bool,
        triangular_support: bool,
    ) -> None:
        self.__dict__.update(
            q_equals_rdl=q_equals_rdl,
            lr_identity=lr_identity,
            rl_identity=rl_identity,
            unit_diagonals=unit_diagonals,
            triangular_support=triangular_support,
        )

    @property
    def all_pass(self) -> bool:
        return all(self._values())

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.__match_args__, self._values()))


def _lowest(d: int, nums: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Numerators over d > 0, and d, divided by their gcd."""
    g = gcd(d, *nums)
    return (d, nums) if g == 1 else (d // g, tuple(v // g for v in nums))


def _row_values(entries, per_row):
    """A triple's row function: keys -> (eigenvalue, R row denominator, R
    numerators, L row denominator, L numerators), each row reduced.

    ``per_row(b)`` gives (eigenvalue, R row denominator, L row denominator)
    of a row with b blocks, b the first component of every key of the row,
    and ``entries(*key)`` the (r, l) numerators over those denominators; the
    lattice triples pass it through ``cache``, since many pairs share a key.
    """

    def values(keys):
        eigenvalue, r_den, l_den = per_row(keys[0][0])
        rs, ls = zip(*starmap(entries, keys))
        return Fraction(eigenvalue), *_lowest(r_den, rs), *_lowest(l_den, ls)

    return values


def _lattice_triple(rows, build, values) -> SpectralTriple:
    """R, D and L over ``rows``, from ``values(keys)`` per row (``_row_values``).

    ``rows`` yields (i, js, keys) over the support, a row at a time, i
    ascending and every state once, and ``build(rows)`` makes a matrix from
    (i, d, js, numerators) rows, js ascending.  The lattice triples pass
    ``values`` through ``cache``: the lattice's rows of equal keys share one
    keys tuple, so each distinct row is computed once and its eigenvalue and
    numerator tuples are shared.  R takes its rows as the walk yields them;
    L's rows wait in a list as the same tuples that L then stores, with js
    shared with R.
    """
    D, L = [], []

    def r_rows():
        for i, js, keys in rows:
            eigenvalue, r_den, rs, l_den, ls = values(keys)
            D.append(eigenvalue)
            L.append((i, l_den, js, ls))
            yield i, r_den, js, rs

    R = build(r_rows())
    return SpectralTriple(R, tuple(D), build(L))


def _on_lattice(lattice: PartitionLattice):
    """(rows, build) on the lattice's kept walk, keyed (|π|, |ρ|, restriction sizes)."""
    return lattice._kept_rows(), partial(TriMatrix._from_columns, lattice)


def _on_chain(n: int, *weights):
    """(rows, build) on the block counts 1..n, keyed (i, j, *w) for j <= i:
    row i of each iterable in ``weights`` holds its weights of (i, j) for
    j = 1..i, and is read when row i is made."""
    if n < 1:
        raise ValueError("block triple needs n >= 1")
    rows = (
        (i - 1, tuple(range(i)), tuple(zip(repeat(i), range(1, i + 1), *ws)))
        for i, *ws in zip(range(1, n + 1), *weights)
    )
    return rows, partial(RatMatrix._from_columns, n)


def _bs_row(b: int) -> tuple[int, int, int]:
    """Eigenvalue 1 - b; R and L row denominators (b-1)! and (b-1)!."""
    return 1 - b, _factorial(b - 1), _factorial(b - 1)


def _kingman_row(b: int) -> tuple[int, int, int]:
    """Eigenvalue -C(b, 2); R and L row denominators (2b-1)! and (2b-2)!."""
    return -comb(b, 2), _factorial(2 * b - 1), _factorial(2 * b - 2)


def _bs_entries(p: int, r: int, r_weight: int, l_weight: int) -> tuple[int, int]:
    base = _factorial(r - 1)
    lv = base * l_weight
    return base * r_weight, (-lv if (p - r) % 2 else lv)


def _kingman_entries(p: int, r: int, weight: int) -> tuple[int, int]:
    f = _factorial
    rv = f(2 * r - 1) * weight * (f(2 * p - 1) // f(p + r - 1))
    lv = f(p + r - 2) * weight
    return rv, (-lv if (p - r) % 2 else lv)


def bs_triple(lattice: PartitionLattice) -> SpectralTriple:
    """Spectral triple of the Bolthausen-Sznitman generator on the lattice.

    The right eigenvector entries are probabilities (they are containment
    probabilities of random recursive trees), the left entries alternate in
    sign, and the eigenvalues are -(|π| - 1).
    """
    entries = cache(
        lambda p, r, sizes: _bs_entries(p, r, prod(_factorial(s - 1) for s in sizes), 1)
    )
    return _lattice_triple(*_on_lattice(lattice), cache(_row_values(entries, _bs_row)))


def kingman_triple(lattice: PartitionLattice) -> SpectralTriple:
    """Spectral triple of the Kingman generator on the lattice.

    Entries come from the blockwise product form; they equal the
    maximal-chain route m(π, ρ) 2^(p-r) (2r-1)! / ((p-r)! (p+r-1)!) for R and
    (-1)^(p-r) m(π, ρ) 2^(p-r) (p+r-2)! / ((2p-2)! (p-r)!) for L.
    """
    entries = cache(lambda p, r, sizes: _kingman_entries(p, r, prod(map(_factorial, sizes))))
    return _lattice_triple(*_on_lattice(lattice), cache(_row_values(entries, _kingman_row)))


def bs_block_triple(n: int) -> SpectralTriple:
    """Block-counting Bolthausen-Sznitman triple (n x n, lower triangular).

    r'(i, j) = ((j-1)!/(i-1)!) [i, j] and l'(i, j) = (-1)^(i-j)
    ((j-1)!/(i-1)!) {i, j} with Stirling numbers of the first and second
    kind; eigenvalues 1 - i.
    """
    first, second = ((row[1:] for row in _stirling_rows(kind)) for kind in (True, False))
    return _lattice_triple(*_on_chain(n, first, second), _row_values(_bs_entries, _bs_row))


def kingman_block_triple(n: int) -> SpectralTriple:
    """Block-counting Kingman triple (n x n, lower triangular).

    r'(i, j) = ((2j-1)!/(i+j-1)!) L(i, j) and l'(i, j) = (-1)^(i-j)
    ((i+j-2)!/(2i-2)!) L(i, j) with Lah numbers; eigenvalues -C(i, 2).
    """
    weights = (map(partial(lah, i), range(1, i + 1)) for i in count(1))
    return _lattice_triple(*_on_chain(n, weights), _row_values(_kingman_entries, _kingman_row))


def _support(triple: SpectralTriple, Q: RatMatrix) -> tuple[bool, tuple[int, ...] | None]:
    """(support holds, the representative rows when the triple is keyed, else None)."""
    mats = (Q, triple.R, triple.L)
    if isinstance(Q, TriMatrix):
        return _within_order(Q.lattice, mats, triple.D)
    return all(m.is_upper() for m in mats) or all(m.is_lower() for m in mats), None


def verify_triple(Q: RatMatrix, triple: SpectralTriple) -> VerificationReport:
    """Exact verification of Q = R D L, L R = I, R L = I, diagonals and support;
    for support, a ``TriMatrix`` Q has Q, R and L checked against the walk its
    lattice keeps, the one they were built from (walked here if none is
    kept), any other Q has all three upper or all three lower triangular.

    One kernel, ``_product_is``, decides every identity a product row at a
    time against stored rows, so no product matrix is formed.  Q R = R D is
    read first; L R = I is then read off L Q = D L when the support holds,
    R and L have unit diagonals and D is distinct on comparable pairs (see
    the module docstring), and from the L R product otherwise; Q = R D L is
    Q R = R D given L R = I, and R D L = Q otherwise.  A passing triple takes
    two products, a failing one at most three.  When the support walk
    certifies that Q, R, L and D are keyed, the kernel reads only the first
    row of each block count; otherwise it reads every row.
    """
    n = Q.size
    if n != triple.size:
        raise ValueError("generator and triple dimensions disagree")
    R, D, L = triple.R, triple.D, triple.L
    support, rows = _support(triple, Q)
    unit = _diagonal_counts(R).keys() | _diagonal_counts(L).keys() <= {1}
    # a keyed D is a function of the block count, one per representative row
    eigenvalues = D if rows is None else [D[i] for i in rows]
    separated = len(set(eigenvalues)) == len(eigenvalues)
    ones = (1,) * n
    right = _product_is(Q, R, R, D, rows)
    if right and support and unit and separated:
        # then L Q = D L iff L R = I (module docstring), and L R = I iff R L = I
        inverse = _product_is(L, Q, L, D, rows, scale_rows=True)
    else:
        inverse = _product_is(L, R, RatMatrix.identity(n), ones, rows)
    # given L = R^-1, Q = R D L iff Q R = R D
    rdl = right if inverse else _product_is(R.scaled_cols(D), L, Q, ones, rows)
    return VerificationReport(
        q_equals_rdl=rdl,
        lr_identity=inverse,
        rl_identity=inverse,
        unit_diagonals=unit,
        triangular_support=support,
    )
