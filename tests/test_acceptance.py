"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
appear; without ``-s`` pytest shows them only for failing criteria.
"""

import time
from collections import Counter
from fractions import Fraction
from math import comb, factorial, inf, sqrt

import numpy as np

from coalspec import (
    PartitionLattice,
    SetPartition,
    bs_block_generator,
    bs_block_green,
    bs_block_triple,
    bs_green,
    bs_rates,
    bs_transition,
    bs_transition_exact,
    bs_triple,
    build_generator,
    characteristic_factorization,
    coarsenings,
    contains,
    count_maximal_chains,
    count_trees_containing,
    enumerate_increasing_trees,
    enumerate_maximal_chains,
    estimate_transition,
    fundamental_matrix,
    hitting_bruteforce,
    interval,
    kingman_block_generator,
    kingman_block_triple,
    kingman_hitting,
    kingman_rates,
    kingman_triple,
    matexp_series,
    stirling_second,
)

from conftest import is_identity, rdl

F = Fraction


def report(criterion: int, passed: bool, detail: str = "") -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_bs_factorization_exact_n2_to_n6():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        lattice = PartitionLattice(n)
        Q = build_generator(lattice, bs_rates(n))
        triple = bs_triple(lattice)
        if rdl(triple) != Q or not is_identity(triple.L.matmul(triple.R)):
            ok = False
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 60.0, f"n=2..6 in {elapsed:.2f}s, budget 60s")


def test_criterion_02_kingman_factorization_exact_n2_to_n6():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        lattice = PartitionLattice(n)
        Q = build_generator(lattice, kingman_rates(n))
        triple = kingman_triple(lattice)
        if rdl(triple) != Q or not is_identity(triple.L.matmul(triple.R)):
            ok = False
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 60.0, f"n=2..6 in {elapsed:.2f}s, budget 60s")


def test_criterion_03_transition_probabilities(lattices, bs_generators, bs_triples):
    max_dev = 0.0
    max_row_dev = 0.0
    for n in range(2, 6):
        lat, Q = lattices[n], bs_generators[n]
        size = len(lat)
        for t in (0.1, 1.0, 5.0):
            closed = np.zeros((size, size))
            for i, pi in enumerate(lat):
                for rho in coarsenings(pi):
                    closed[i, lat.index_of(rho)] = bs_transition(pi, rho, t)
            oracle = matexp_series(Q.to_float(), t)
            max_dev = max(max_dev, float(np.max(np.abs(closed - oracle))))
            max_row_dev = max(
                max_row_dev, float(np.max(np.abs(closed.sum(axis=1) - 1.0)))
            )
    exact_ok = True
    for n in range(2, 6):
        lat, triple = lattices[n], bs_triples[n]
        for x in (F(1), F(1, 2), F(-2)):
            for pi in lat:
                i = lat.index_of(pi)
                for rho in coarsenings(pi):
                    j = lat.index_of(rho)
                    total = F(0)
                    for sigma in interval(pi, rho):
                        k = lat.index_of(sigma)
                        total += (
                            triple.R.get(i, k)
                            * x ** (len(sigma) - 1)
                            * triple.L.get(k, j)
                        )
                    if bs_transition_exact(pi, rho, x) != total:
                        exact_ok = False
    ok = max_dev < 1e-10 and max_row_dev < 1e-10 and exact_ok
    report(
        3,
        ok,
        f"max dev {max_dev:.2e}, max row-sum dev {max_row_dev:.2e}, "
        f"exact identity at x in {{1, 1/2, -2}}: {exact_ok}",
    )


def test_criterion_04_greens_matrix(lattices, bs_generators):
    finite_ok = infinite_ok = aggregate_ok = True
    for n in range(2, 6):
        lat = lattices[n]
        N = fundamental_matrix(bs_generators[n])
        m = len(lat) - 1
        for i in range(m):
            for j in range(m):
                if bs_green(lat[i], lat[j]) != N.get(i, j):
                    finite_ok = False
        top = lat.top
        for pi in lat:
            if bs_green(pi, top) != inf:
                infinite_ok = False
        for pi in lat:
            p = len(pi)
            for j in range(2, p + 1):
                total = sum(
                    (bs_green(pi, rho) for rho in lat if len(rho) == j), F(0)
                )
                if total != bs_block_green(p, j, n):
                    aggregate_ok = False
    ok = finite_ok and infinite_ok and aggregate_ok
    report(
        4,
        ok,
        f"finite entries {finite_ok}, divergent column {infinite_ok}, "
        f"block aggregation {aggregate_ok}",
    )


def test_criterion_05_block_counting_decompositions():
    triples = []
    start = time.perf_counter()
    ok = True
    for n in range(2, 51):
        for gen, trip in (
            (bs_block_generator, bs_block_triple),
            (kingman_block_generator, kingman_block_triple),
        ):
            Q = gen(n)
            t = trip(n)
            if rdl(t) != Q:
                ok = False
            triples.append(t)
    elapsed = time.perf_counter() - start
    # inverse pairing, outside the timed factorization sweep
    inverses_ok = all(is_identity(t.L.matmul(t.R)) for t in triples)
    report(
        5,
        ok and inverses_ok and elapsed < 5.0,
        f"n=2..50 both models in {elapsed:.2f}s, budget 5s; L R = I {inverses_ok}",
    )


def test_criterion_06_maximal_chains(lattices):
    ok = True
    for n in range(2, 6):
        for pi in lattices[n]:
            for rho in coarsenings(pi):
                if count_maximal_chains(pi, rho) != len(
                    enumerate_maximal_chains(pi, rho)
                ):
                    ok = False
    frozen = count_maximal_chains(
        SetPartition.singletons(4), SetPartition.whole(4)
    )
    ok = ok and frozen == 18
    report(6, ok, f"all pairs n<=5; m(singletons(4), whole(4)) = {frozen}")


def test_criterion_07_kingman_hitting(lattices):
    ok = True
    for n in range(2, 6):
        lat = lattices[n]
        top = lat.top
        for pi in lat:
            for rho in lat:
                lah_form = kingman_hitting(pi, rho)
                brute = hitting_bruteforce("kingman", pi, rho)
                if lah_form != brute:
                    ok = False
                if pi.refines(rho) and len(pi) > 1:
                    ratio = F(
                        count_maximal_chains(pi, rho)
                        * count_maximal_chains(rho, top),
                        count_maximal_chains(pi, top),
                    )
                    if lah_form != ratio:
                        ok = False
    report(7, ok, "chain ratio = Lah product = jump-chain recursion, n<=5")


def test_criterion_08_rrt_containment(lattices, bs_triples):
    ok = True
    for n in range(2, 6):
        lat = lattices[n]
        for i, pi in enumerate(lat):
            trees = enumerate_increasing_trees(pi)
            p = len(pi)
            for rho in coarsenings(pi):
                cnt = sum(1 for t in trees if contains(t, rho))
                if cnt != count_trees_containing(pi, rho):
                    ok = False
                if F(cnt, factorial(p - 1)) != bs_triples[n].R.get(
                    i, lat.index_of(rho)
                ):
                    ok = False
    trees4 = enumerate_increasing_trees(SetPartition.singletons(4))
    hits = sum(1 for t in trees4 if contains(t, SetPartition.from_string("1,2,3|4")))
    ok = ok and len(trees4) == 6 and hits == 2
    report(8, ok, f"counts match eigenvectors n<=5; four-singleton case {hits} of 6")


def test_criterion_09_monte_carlo_bands():
    n, t, reps, seed = 4, 1.0, 100000, 20260823
    start = time.perf_counter()
    estimates = estimate_transition("bs", n, t, reps=reps, seed=seed)
    elapsed = time.perf_counter() - start
    delta = SetPartition.singletons(n)
    violations = 0
    worst = 0.0
    for rho, (p_hat, _) in estimates.items():
        p = bs_transition(delta, rho, t)
        sigma = sqrt(p * (1 - p) / reps)
        z = abs(float(p_hat) - p) / sigma if sigma > 0 else 0.0
        worst = max(worst, z)
        if z > 3.0:
            violations += 1
    ok = violations <= 1 and elapsed < 30.0
    report(
        9,
        ok,
        f"{reps} replicates in {elapsed:.1f}s (budget 30s), "
        f"{violations} of 15 bands violated (max |z| = {worst:.2f})",
    )


def test_criterion_10_characteristic_polynomial(
    lattices, bs_generators, kingman_generators, bs_triples, kingman_triples
):
    ok = True
    for n in range(2, 7):
        for model, Q, triple, rates in (
            ("bs", bs_generators[n], bs_triples[n], bs_rates(n)),
            ("kingman", kingman_generators[n], kingman_triples[n], kingman_rates(n)),
        ):
            expected = Counter()
            for i in range(1, n + 1):
                lam = rates.total_rate(i) if i >= 2 else F(0)
                expected[-lam] += stirling_second(n, i)
            if Counter(triple.D) != expected:
                ok = False
            factor = characteristic_factorization(Q, rates)
            if Counter(dict(factor)) != expected:
                ok = False
            if model == "kingman" and expected[-F(comb(n, 2))] < 1:
                ok = False
    report(10, ok, "diagonal multisets match Stirling multiplicities, n<=6")
