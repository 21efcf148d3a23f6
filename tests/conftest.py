import pytest

from coalspec import (
    PartitionLattice,
    RatMatrix,
    TriMatrix,
    VerificationReport,
    bs_rates,
    bs_triple,
    build_generator,
    kingman_rates,
    kingman_triple,
)


# Materialised oracles: the library checks these facts without forming them.


def rdl(triple):
    """The exact product R diag(D) L of a ``SpectralTriple``."""
    return triple.R.scaled_cols(triple.D).matmul(triple.L)


def is_identity(m):
    """Whether the ``RatMatrix`` m is the identity; a missing row is a zero row."""
    return m == RatMatrix.identity(m.size)


def verify_by_products(Q, triple):
    """``verify_triple``'s five flags from materialised products, L R first.

    L R = I decides both inverse flags; given it, Q = R D L is read as
    Q R = R D, and otherwise as R D L = Q.  On a lattice Q, R and L must lie
    on its comparable pairs; otherwise all three are upper or all lower
    triangular.  Unit diagonals are read entry by entry.
    """
    R, D, L = triple.R, triple.D, triple.L
    inverse = is_identity(L.matmul(R))
    rdl_holds = Q.matmul(R) == R.scaled_cols(D) if inverse else rdl(triple) == Q
    mats = (Q, R, L)
    if isinstance(Q, TriMatrix):
        up = {i: set(js) for i, js, _ in Q.lattice.comparable_rows()}
        support = all(j in up[i] for m in mats for i, j, _ in m.nonzeros())
    else:
        support = all(m.is_upper() for m in mats) or all(m.is_lower() for m in mats)
    unit = all(m.get(i, i) == 1 for m in (R, L) for i in range(R.size))
    return VerificationReport(rdl_holds, inverse, inverse, unit, support)


def comparable_pairs(lattice):
    """Yield (i, j, key) for every lattice[i] <= lattice[j], i then j
    ascending: ``comparable_rows()`` flattened, one pair at a time."""
    for i, js, keys in lattice.comparable_rows():
        for j, key in zip(js, keys):
            yield i, j, key


def to_json(tree):
    """An ``IncreasingTree`` as block labels plus the parent map, as strings."""
    label = lambda b: ",".join(str(e) for e in b)
    return {
        "labels": [label(b) for b in tree.nodes],
        "parent": {label(c): label(p) for c, p in sorted(tree.parent.items())},
    }


@pytest.fixture(scope="session")
def lattices():
    """Full lattices for n = 1..6, shared across the suite."""
    return {n: PartitionLattice(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def bs_generators(lattices):
    return {n: build_generator(lattices[n], bs_rates(n)) for n in range(2, 7)}


@pytest.fixture(scope="session")
def kingman_generators(lattices):
    return {n: build_generator(lattices[n], kingman_rates(n)) for n in range(2, 7)}


@pytest.fixture(scope="session")
def bs_triples(lattices):
    return {n: bs_triple(lattices[n]) for n in range(2, 7)}


@pytest.fixture(scope="session")
def kingman_triples(lattices):
    return {n: kingman_triple(lattices[n]) for n in range(2, 7)}
