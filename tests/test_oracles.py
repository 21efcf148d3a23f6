"""The reference implementations themselves: series, solves, enumerations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from coalspec import (
    RatMatrix,
    SetPartition,
    SizeLimitError,
    TriMatrix,
    count_maximal_chains,
    enumerate_maximal_chains,
    fundamental_matrix,
    hitting_bruteforce,
    matexp_series,
    pair_covers,
    transition_via_triple,
)

from conftest import comparable_pairs, is_identity, with_entries

F = Fraction


def P(text):
    return SetPartition.from_string(text)


class TestMatexpSeries:
    def test_zero_matrix(self):
        A = np.zeros((3, 3))
        assert np.allclose(matexp_series(A, 2.0), np.eye(3))

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.3, 2.0, 10.0):
            expect = np.array([[1.0, t], [0.0, 1.0]])
            assert np.allclose(matexp_series(A, t), expect, atol=1e-12)

    def test_diagonal(self):
        A = np.diag([-1.0, -2.5, 0.0])
        M = matexp_series(A, 1.3)
        assert np.allclose(np.diag(M), np.exp(1.3 * np.diag(A)), rtol=1e-13)

    def test_rotation(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        for t in (0.7, 3.1):
            M = matexp_series(A, t)
            expect = np.array(
                [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
            )
            assert np.allclose(M, expect, atol=1e-12)

    def test_inverse_pairing(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        M = np.asarray(matexp_series(A, 1.0)) @ np.asarray(matexp_series(A, -1.0))
        assert np.allclose(M, np.eye(4), atol=1e-10)

    def test_scaling_branch(self):
        # norm far above 1/2 exercises the squaring loop
        A = np.array([[-30.0, 30.0], [0.0, 0.0]])
        M = np.asarray(matexp_series(A, 1.0))
        assert M[0, 1] == pytest.approx(1 - math.exp(-30.0), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_scaling_past_the_double_range(self):
        # |t Q| = 1.6e308 takes 1025 halvings, and 2 ** 1025 is no double
        M = matexp_series(np.array([[-2.0, 2.0], [0.0, 0.0]]), 4e307)
        assert np.allclose(M, [[0.0, 1.0], [0.0, 1.0]], rtol=0, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            matexp_series(np.zeros((2, 3)), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e308, math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_argument(self, t):
        # t * Q overflows at 1e308: no squaring count would bring it below 1/2
        with pytest.raises(ValueError, match="finite"):
            matexp_series(np.array([[-2.0, 2.0], [0.0, 0.0]]), t)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_spectral_triple(self, n, lattices, bs_generators, bs_triples,
                                         kingman_generators, kingman_triples):
        for Q, triple in ((bs_generators[n], bs_triples[n]),
                          (kingman_generators[n], kingman_triples[n])):
            for t in (0.1, 1.0, 5.0):
                series = np.asarray(matexp_series(Q.to_float(), t))
                assert np.max(np.abs(series - transition_via_triple(triple, t))) < 1e-12

    def test_rows_in_rows_out(self):
        M = matexp_series([[-1, 1], [0, 0]], 1.0)
        assert type(M) is list and all(type(row) is list for row in M)
        assert all(type(v) is float for row in M for v in row)
        assert M[1] == [0.0, 1.0]
        assert M[0][0] == pytest.approx(math.exp(-1.0), rel=1e-15)


class TestFundamentalMatrix:
    def test_solves_triangular_system(self, lattices, bs_generators,
                                      kingman_generators):
        # (-Q_TT) N = I, checked by exact multiplication
        for n in (3, 4):
            for Q in (bs_generators[n], kingman_generators[n]):
                m = len(lattices[n]) - 1
                N = fundamental_matrix(Q)
                U = with_entries(RatMatrix(m), {
                    (i, j): -v for i, j, v in Q.nonzeros() if i < m and j < m
                })
                assert is_identity(U.matmul(N))

    def test_row_sums_are_absorption_times(self, lattices, bs_generators):
        # the first row of N sums to the expected absorption time from the
        # singletons: 1/3 + 1/3 + 13/18 across block counts 4, 3, 2
        N = fundamental_matrix(bs_generators[4])
        assert N.row_sum(0) == F(25, 18)

    def test_rejects_zero_transient_diagonal(self, lattices):
        Q = TriMatrix(lattices[3])
        with pytest.raises(ValueError):
            fundamental_matrix(Q)

    def test_rejects_active_absorbing_state(self, lattices, bs_generators):
        top = len(lattices[3]) - 1
        Q = with_entries(bs_generators[3], {(top, top): F(-1)})
        with pytest.raises(ValueError):
            fundamental_matrix(Q)


class TestEnumerateMaximalChains:
    def test_counts_match_closed_form(self, lattices):
        from coalspec import coarsenings

        for n in (3, 4, 5):
            for pi in lattices[n]:
                for rho in coarsenings(pi):
                    chains = enumerate_maximal_chains(pi, rho)
                    assert len(chains) == count_maximal_chains(pi, rho)

    def test_chains_are_cover_chains(self):
        pi, rho = P("1|2|3|4"), P("1,2,3,4")
        for chain in enumerate_maximal_chains(pi, rho):
            assert chain[0] == pi and chain[-1] == rho
            for a, b in zip(chain, chain[1:]):
                assert b in pair_covers(a)

    def test_degenerate_interval(self):
        pi = P("1,2|3")
        assert enumerate_maximal_chains(pi, pi) == [[pi]]

    def test_errors(self):
        with pytest.raises(ValueError):
            enumerate_maximal_chains(P("1,2|3"), P("1,3|2"))
        with pytest.raises(SizeLimitError):
            enumerate_maximal_chains(
                SetPartition.singletons(7), SetPartition.whole(7)
            )


class TestHittingBruteforce:
    def test_identity_and_absorption(self, lattices):
        top = SetPartition.whole(4)
        for pi in lattices[4]:
            assert hitting_bruteforce("bs", pi, pi) == 1
            assert hitting_bruteforce("kingman", pi, top) == 1

    def test_spot_values(self):
        assert hitting_bruteforce("bs", P("1|2|3"), P("1,2|3")) == F(1, 4)
        assert hitting_bruteforce("kingman", P("1|2|3"), P("1,2|3")) == F(1, 3)
        assert hitting_bruteforce("bs", P("1,3|2"), P("1,2|3")) == 0

    def test_kingman_is_the_uniform_pair_merger_chain(self, lattices):
        # the rate-weighted recursion gives weight only to the C(b, 2) pair mergers
        def reference(sigma, rho, memo):
            if sigma == rho:
                return F(1)
            if not sigma.refines(rho):
                return F(0)
            if sigma not in memo:
                covers = pair_covers(sigma)
                memo[sigma] = sum(reference(tau, rho, memo) for tau in covers) / len(covers)
            return memo[sigma]

        for n in range(1, 5):
            for pi in lattices[n]:
                for rho in lattices[n]:
                    expect = reference(pi, rho, {})
                    assert hitting_bruteforce("kingman", pi, rho) == expect

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            hitting_bruteforce("moran", P("1|2"), P("1,2"))

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            hitting_bruteforce("bs", P("1|2"), P("1,2,3"))

    def test_work_does_not_depend_on_call_order(self, lattices, monkeypatch):
        import coalspec.oracles as oracles

        calls = 0

        def counted(sigma, _original=oracles.merge_covers):
            nonlocal calls
            calls += 1
            return _original(sigma)

        monkeypatch.setattr(oracles, "merge_covers", counted)
        lattice = lattices[5]
        by_source = [(i, j) for i, j, _ in comparable_pairs(lattice)]
        by_target = sorted(by_source, key=lambda ij: ij[1])
        for model in ("bs", "kingman"):
            work, values = [], []
            for order in (by_source, by_target):
                oracles._hitting_from.cache_clear()
                calls = 0
                values.append({
                    (i, j): hitting_bruteforce(model, lattice[i], lattice[j])
                    for i, j in order
                })
                work.append(calls)
            # one solve per state, whichever order the pairs come in
            assert work == [len(lattice), len(lattice)]
            assert values[0] == values[1]
