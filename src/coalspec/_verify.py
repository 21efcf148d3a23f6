"""The exact invariant suite behind ``coalspec verify``.

Every closed form, oracle and builder the suite calls is read from this
module's globals when it is called, so a test that replaces one of them here
sees the replacement used.  Only the ``verify`` command imports this module,
so no other command loads the oracles or the trees.
"""

from __future__ import annotations

from fractions import Fraction

from .dynamics import bs_green, bs_hitting, bs_transition, kingman_hitting
from .generator import (
    bs_block_generator,
    bs_rates,
    build_generator,
    characteristic_factorization,
    kingman_block_generator,
    kingman_rates,
)
from .oracles import (
    enumerate_maximal_chains,
    fundamental_matrix,
    hitting_bruteforce,
    matexp_series,
)
from .partitions import PartitionLattice, count_maximal_chains
from .rrt import contains, count_trees_containing, enumerate_increasing_trees
from .spectral import (
    bs_block_triple,
    bs_triple,
    kingman_block_triple,
    kingman_triple,
    verify_triple,
)


def checks(n: int, tol: float):
    """Yield (name, ok) pairs for the invariant suite at one n."""
    lattice = PartitionLattice(n)
    el = lattice.elements
    models = (
        ("bs", bs_rates, bs_triple, bs_block_generator, bs_block_triple),
        ("kingman", kingman_rates, kingman_triple, kingman_block_generator,
         kingman_block_triple),
    )
    for model, model_rates, triple_of, block_generator, block_triple in models:
        rates = model_rates(n)
        Q = build_generator(lattice, rates)
        yield f"{model}-row-sums-zero", all(
            Q.row_sum(i) == 0 for i in range(len(lattice))
        )
        triple = triple_of(lattice)
        if model == "bs":
            Qbs, bsT = Q, triple
        report = verify_triple(Q, triple)
        yield f"{model}-triple", report.all_pass
        try:
            characteristic_factorization(Q, rates)
            yield f"{model}-spectrum", True
        except ValueError:
            yield f"{model}-spectrum", False
        yield f"{model}-block-triple", verify_triple(
            block_generator(n), block_triple(n)
        ).all_pass
        # closed-form semigroup against the series exponential
        if model == "bs" and n <= 5:
            size = len(lattice)
            Q_float = [[0.0] * size for _ in range(size)]
            for i, row in enumerate(Q_float):
                for j, v in Q.row(i).items():
                    row[j] = float(v)
            P_series = matexp_series(Q_float, 1.0)
            closed = {
                (i, j): bs_transition(el[i], el[j], 1.0)
                for i, js, _ in lattice._kept_rows() for j in js
            }
            yield "bs-transition-vs-matexp", all(
                abs(closed.get((i, j), 0.0) - v) < tol
                for i, row in enumerate(P_series) for j, v in enumerate(row)
            )
    if n > 5:
        return
    # each closed form against its oracle
    pairs = [
        (el[i], el[j], i, j, key)
        for i, js, keys in lattice._kept_rows() for j, key in zip(js, keys)
    ]
    N = fundamental_matrix(Qbs)
    transient = range(len(lattice) - 1)
    yield "bs-green-vs-fundamental", all(
        bs_green(el[i], el[j]) == N.get(i, j) for i in transient for j in transient
    )
    yield "bs-hitting-vs-bruteforce", all(
        bs_hitting(pi, rho) == hitting_bruteforce("bs", pi, rho)
        for pi, rho, *_ in pairs if len(rho) > 1
    )
    yield "kingman-hitting-vs-bruteforce", all(
        kingman_hitting(pi, rho) == hitting_bruteforce("kingman", pi, rho)
        for pi, rho, *_ in pairs
    )
    # [π, ρ] is a product of partition lattices, one per block of ρ, so its
    # chains depend only on the key: they are listed for one pair per key
    chains, ok = {}, True
    for pi, rho, _, _, (p, r, sizes) in pairs:
        key = (p, r, tuple(sorted(sizes)))
        if key not in chains:
            chains[key] = len(enumerate_maximal_chains(pi, rho))
        ok = ok and count_maximal_chains(pi, rho) == chains[key]
    yield "maximal-chains", ok
    # the count against exhaustive enumeration, its share against R
    trees = [enumerate_increasing_trees(pi) for pi in el]
    yield "tree-containment", all(
        count == count_trees_containing(pi, rho)
        and Fraction(count, len(trees[i])) == bsT.R.get(i, j)
        for pi, rho, i, j, _ in pairs
        for count in [sum(contains(t, rho) for t in trees[i])]
    )
