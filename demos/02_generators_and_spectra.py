"""
Coalescent generators and their exact spectral factorizations
=============================================================

Two classical exchangeable coalescents on the partition lattice:

  * Bolthausen-Sznitman: any k of b blocks merge at rate
    (k-2)!(b-k)!/(b-1)!, total jump rate b - 1;
  * Kingman: each pair of blocks merges at rate 1, total rate C(b, 2).

Both generators factor as Q = R D L with closed-form rational entries,
L = R^(-1), and eigenvalues read off the diagonal.
"""

from fractions import Fraction

from coalspec import (
    PartitionLattice,
    bs_block_triple,
    bs_rates,
    bs_triple,
    build_generator,
    characteristic_factorization,
    kingman_rates,
    kingman_triple,
    verify_triple,
)

n = 4
lattice = PartitionLattice(n)

# Rates: lambda(b, k) is the rate at which a specific set of k blocks merges
# when b are present.
rates = bs_rates(n)
print("Bolthausen-Sznitman rates for n = 4:")
for (b, k), v in rates.items():
    print(f"  lambda({b},{k}) = {v}")
print("total rates:", [str(rates.total_rate(b)) for b in range(2, n + 1)])
print()

# The generator is upper triangular in lattice order with zero row sums.
Q = build_generator(lattice, rates)
print(f"generator on P([{n}]): {Q.size}x{Q.size}, {Q.nnz()} nonzero entries")
print("row of the singletons:")
for j, v in sorted(Q.row(0).items()):
    print(f"  -> {lattice[j].to_string():10s} {v}")
print()

# Spectral triple: R holds right eigenvectors in its columns, L left
# eigenvectors in its rows, and the five defining identities are checked
# in exact rational arithmetic.
triple = bs_triple(lattice)
report = verify_triple(Q, triple)
print("verification of Q = R D L for the Bolthausen-Sznitman model:")
for name, ok in report.as_dict().items():
    print(f"  {name:20s} {ok}")
print()

# Same factorization for Kingman.  The eigenvector entries come from
# blockwise factorials; the test suite checks each one against the
# maximal-chain count of its interval.
K = build_generator(lattice, kingman_rates(n))
ktriple = kingman_triple(lattice)
print("Kingman triple verifies:", verify_triple(K, ktriple).all_pass)
print()

# Eigenvalues come with Stirling-number multiplicities: -lambda_i appears
# once per partition with i blocks.
print("characteristic factorization (eigenvalue, multiplicity):")
for model, gen, rt in (("bs", Q, rates), ("kingman", K, kingman_rates(n))):
    spectrum = characteristic_factorization(gen, rt)
    pretty = ", ".join(f"({ev}, {m})" for ev, m in spectrum)
    print(f"  {model:8s} {pretty}")
print()

# The block-counting process |Pi(t)| has its own n x n lower-triangular
# triple; the lattice triple lumps onto it by summing columns with a fixed
# block count.
bt = bs_block_triple(n)
print("block-counting R' for the Bolthausen-Sznitman model (rows i = 1..4):")
for i in range(n):
    row = [bt.R.get(i, j) for j in range(n)]
    print("  ", [str(v) for v in row])

lump = [
    sum((v for col, v in triple.R.row(0).items() if len(lattice[col]) == j), Fraction(0))
    for j in range(1, n + 1)
]
print("lattice row of the singletons, summed by target block count:")
print("  ", [str(v) for v in lump])
print("equals the last row of R' above, as it must.")
