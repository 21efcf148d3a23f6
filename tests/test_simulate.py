"""Seeded Monte Carlo paths and estimators against the exact laws."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import numpy as np
import pytest

from coalspec import (
    PartitionLattice,
    SetPartition,
    SizeLimitError,
    Trajectory,
    bs_hitting,
    bs_transition,
    contains,
    cut_random,
    estimate_containment,
    estimate_transition,
    kingman_block_triple,
    merge_covers,
    pair_covers,
    replicate_rng,
    sample_rrt,
    simulate_bs,
    simulate_kingman,
    transition_via_triple,
)
from coalspec import partitions, simulate

F = Fraction


def P(text):
    return SetPartition.from_string(text)


class TestTrajectory:
    def test_state_lookup(self):
        traj = Trajectory(
            times=(1.0, 2.5),
            states=(P("1|2|3"), P("1,2|3"), P("1,2,3")),
        )
        assert traj.state_at(0.0) == P("1|2|3")
        assert traj.state_at(0.99) == P("1|2|3")
        assert traj.state_at(1.0) == P("1,2|3")
        assert traj.state_at(2.4) == P("1,2|3")
        assert traj.state_at(7.0) == P("1,2,3") == traj.final
        with pytest.raises(ValueError, match="nonnegative"):
            traj.state_at(-0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            traj.state_at(float("-inf"))
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="time must be finite"):
                traj.state_at(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=(1.0,), states=(P("1|2"),))
        states = (P("1|2|3"), P("1,2|3"), P("1,2,3"))
        for times in [
            (2.0, 1.0),
            (float("nan"), 1.0),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (-1.0, 1.0),
            (0.0, 1.0),  # the first epoch would be empty
        ]:
            with pytest.raises(ValueError, match="jump times"):
                Trajectory(times=times, states=states)
        with pytest.raises(ValueError, match="jump times"):
            Trajectory(times=(float("nan"),), states=(P("1|2"), P("1,2")))
        for fine, coarse in [
            ("1,2|3", "1|2|3"),
            ("1|2", "1|2"),
            ("1|2|3,4", "1,4|2,3"),  # fewer blocks, but 3,4 is split
            ("1|2", "1,3"),  # different ground sets
            ("1|2|3", "1,2"),  # an element disappears
            ("1|2", "1,2|3"),  # an element appears
        ]:
            with pytest.raises(ValueError, match="coarsen"):
                Trajectory(times=(1.0,), states=(P(fine), P(coarse)))


class TestSimulateBs:
    def test_runs_to_absorption(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5):
            traj = simulate_bs(n, None, rng)
            assert traj.states[0] == SetPartition.singletons(n)
            assert traj.final == SetPartition.whole(n)

    def test_jumps_are_single_mergers(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            traj = simulate_bs(5, None, rng)
            for a, b in zip(traj.states, traj.states[1:]):
                assert b in merge_covers(a)

    def test_horizon(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            traj = simulate_bs(6, 0.5, rng)
            assert all(t <= 0.5 for t in traj.times)
            assert traj.state_at(0.5) == traj.final

    def test_reproducible_streams(self):
        a = simulate_bs(6, None, replicate_rng(11, 4))
        b = simulate_bs(6, None, replicate_rng(11, 4))
        c = simulate_bs(6, None, replicate_rng(11, 5))
        assert a == b
        assert a != c

    def test_errors(self):
        with pytest.raises(ValueError):
            simulate_bs(0, None, np.random.default_rng(0))
        for horizon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                simulate_bs(3, horizon, np.random.default_rng(0))


class TestSimulateKingman:
    def test_runs_through_every_block_count(self):
        rng = np.random.default_rng(4)
        traj = simulate_kingman(6, None, rng)
        assert [len(s) for s in traj.states] == [6, 5, 4, 3, 2, 1]

    def test_jumps_are_pair_mergers(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            traj = simulate_kingman(5, None, rng)
            for a, b in zip(traj.states, traj.states[1:]):
                assert b in pair_covers(a)

    def test_horizon_and_errors(self):
        rng = np.random.default_rng(6)
        traj = simulate_kingman(5, 0.2, rng)
        assert all(t <= 0.2 for t in traj.times)
        with pytest.raises(ValueError):
            simulate_kingman(-1, None, rng)
        for horizon in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                simulate_kingman(4, horizon, rng)


def reference_bs(n, horizon, rng):
    """BS path on IncreasingTree objects: sample_rrt, then cut_random per jump."""
    tree = sample_rrt(SetPartition.singletons(n), rng)
    t = 0.0
    times, states = [], [tree.labels]
    while tree.edge_count > 0:
        t += rng.exponential(1.0 / tree.edge_count)
        if horizon is not None and t > horizon:
            break
        tree = cut_random(tree, rng)
        times.append(t)
        states.append(tree.labels)
    return Trajectory(tuple(times), tuple(states))


def reference_kingman(n, horizon, rng):
    """Kingman path drawing its pair from the list of combinations(range(b), 2)."""
    state = SetPartition.singletons(n)
    t = 0.0
    times, states = [], [state]
    while len(state) > 1:
        b = len(state)
        t += rng.exponential(1.0 / comb(b, 2))
        if horizon is not None and t > horizon:
            break
        pairs = list(combinations(range(b), 2))
        a, c = pairs[int(rng.integers(0, len(pairs)))]
        blocks = state.blocks
        merged = tuple(sorted(blocks[a] + blocks[c]))
        state = SetPartition(
            [merged] + [blocks[k] for k in range(b) if k != a and k != c]
        )
        times.append(t)
        states.append(state)
    return Trajectory(tuple(times), tuple(states))


def reference_estimate(model, n, t, reps, seed):
    """estimate_transition over the reference paths, one SetPartition per jump."""
    path = {"bs": reference_bs, "kingman": reference_kingman}[model]
    counts = Counter(path(n, t, replicate_rng(seed, i)).final for i in range(reps))
    out = {}
    for pi in PartitionLattice(n):
        p_hat = Fraction(counts[pi], reps)
        out[pi] = (p_hat, sqrt(float(p_hat * (1 - p_hat)) / reps))
    return out


class TestAgainstReferencePaths:
    @pytest.mark.parametrize(
        "fast, reference",
        [(simulate_bs, reference_bs), (simulate_kingman, reference_kingman)],
    )
    def test_same_times_and_states(self, fast, reference):
        # exact float equality: every draw and every sum must be the same
        for n in range(1, 9):
            for horizon in (None, 0.3, 1.0):
                for i in range(50):
                    fast_rng, reference_rng = replicate_rng(n, i), replicate_rng(n, i)
                    got = fast(n, horizon, fast_rng)
                    want = reference(n, horizon, reference_rng)
                    assert got.times == want.times
                    assert got.states == want.states
                    # the same draws, down to the buffered half of a 64-bit output
                    assert fast_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_estimate_matches_reference(self, model):
        for t in (0.4, 1.0):
            got = estimate_transition(model, 5, t, reps=400, seed=19)
            assert got == reference_estimate(model, 5, t, reps=400, seed=19)

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_builds_only_the_lattice(self, model, monkeypatch):
        n, built = 5, 0
        size = len(PartitionLattice(n))
        init = SetPartition.__init__

        def counting_init(self, blocks):
            nonlocal built
            built += 1
            init(self, blocks)

        monkeypatch.setattr(SetPartition, "__init__", counting_init)
        estimate_transition(model, n, 1.0, reps=2000, seed=3)
        # finals are counted by the blocks of the lattice's own partitions
        assert built == size

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_jumps_checked_by_the_pair_key_pass(self, model, monkeypatch):
        n, t, reps, seed = 5, 1.0, 300, 11
        jumps = sum(
            1
            for rng in simulate._replicate_streams(seed, reps)
            for _ in simulate._JUMPS[model](n, t, rng)
        )
        assert simulate._block_key is partitions._block_key
        calls = 0
        key = simulate._block_key

        def counted(fine, coarse):
            nonlocal calls
            calls += 1
            return key(fine, coarse)

        monkeypatch.setattr(simulate, "_block_key", counted)
        estimate_transition(model, n, t, reps=reps, seed=seed)
        assert jumps > 0 and calls == jumps
        calls = 0  # and Trajectory checks its jumps with the same pass
        simulate_path = {"bs": simulate_bs, "kingman": simulate_kingman}[model]
        path = simulate_path(n, None, replicate_rng(seed, 0))
        assert calls == len(path.times) > 0


class TestEstimateTransition:
    def test_fractions_sum_to_one(self):
        est = estimate_transition("bs", 3, 0.4, reps=500, seed=7)
        assert sum((p for p, _ in est.values()), F(0)) == 1
        assert all(se >= 0 for _, se in est.values())

    def test_bs_matches_closed_form(self):
        n, t, reps = 4, 1.0, 20000
        est = estimate_transition("bs", n, t, reps=reps, seed=20240811)
        delta = SetPartition.singletons(n)
        for rho, (p_hat, se) in est.items():
            p = bs_transition(delta, rho, t)
            sigma = sqrt(p * (1 - p) / reps)
            assert abs(float(p_hat) - p) < 4.5 * sigma + 1e-9

    def test_kingman_block_marginal(self):
        n, t, reps = 5, 0.5, 20000
        est = estimate_transition("kingman", n, t, reps=reps, seed=31)
        by_count = Counter()
        for rho, (p_hat, _) in est.items():
            by_count[len(rho)] += p_hat
        M = transition_via_triple(kingman_block_triple(n), t)
        for j in range(1, n + 1):
            p = M[n - 1, j - 1]
            sigma = sqrt(max(p * (1 - p), 1e-12) / reps)
            assert abs(float(by_count[j]) - p) < 4.5 * sigma + 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_transition("moran", 3, 1.0, reps=10, seed=0)
        with pytest.raises(ValueError):
            estimate_transition("bs", 3, 1.0, reps=0, seed=0)
        with pytest.raises(ValueError, match="need n >= 1"):
            estimate_transition("kingman", 0, 1.0, reps=10, seed=0)
        with pytest.raises(ValueError, match="horizon must be finite"):
            estimate_transition("bs", 3, float("nan"), reps=10, seed=0)

    def test_cap_checked_before_replicates(self, monkeypatch):
        monkeypatch.delenv("COALSPEC_N_CAP", raising=False)
        streams = simulate._replicate_streams
        taken = []

        def counted(seed, reps):
            for rng in streams(seed, reps):
                taken.append(rng)
                yield rng

        monkeypatch.setattr(simulate, "_replicate_streams", counted)
        estimate_transition("bs", 3, 1.0, reps=5, seed=0)
        assert len(taken) == 5  # the counter sees every replicate's stream
        taken.clear()
        with pytest.raises(SizeLimitError):
            estimate_transition("bs", 9, 1.0, reps=50, seed=0)
        assert taken == []

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_negative_seed_rejected_before_replicates(self, model, monkeypatch):
        runs = []
        jumps = simulate._JUMPS[model]

        def counted(n, t, rng):
            runs.append(n)
            return jumps(n, t, rng)

        monkeypatch.setitem(simulate._JUMPS, model, counted)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            estimate_transition(model, 3, 1.0, reps=10, seed=-1)
        assert runs == []

    @pytest.mark.parametrize(
        "jumps",
        [
            [(0.5, ((1, 2), (3,))), (0.5, ((1, 2, 3),))],  # repeated time
            [(0.5, ((1, 2), (3,))), (0.2, ((1, 2, 3),))],  # time goes back
            [(float("nan"), ((1, 2), (3,)))],
            [(0.5, ((1, 2), (3,))), (0.7, ((1, 3), (2,)))],  # not coarser
            [(0.5, ((1, 2), (3,))), (0.7, ((1, 2), (3,)))],  # no merger
        ],
    )
    def test_rejects_illegal_jumps(self, jumps, monkeypatch):
        monkeypatch.setitem(simulate._JUMPS, "bs", lambda n, t, rng: iter(jumps))
        with pytest.raises(ValueError, match="jump times|coarsen"):
            estimate_transition("bs", 3, 1.0, reps=2, seed=0)


class TestPathLaws:
    def test_kingman_jump_chain_is_uniform_on_chains(self):
        # every maximal lattice chain is equally likely under pair sampling
        n, reps = 4, 18000
        chains = Counter()
        for i in range(reps):
            traj = simulate_kingman(n, None, replicate_rng(17, i))
            chains[traj.states] += 1
        assert len(chains) == 18
        p = 1 / 18
        sigma = sqrt(reps * p * (1 - p))
        for cnt in chains.values():
            assert abs(cnt - reps * p) < 4.5 * sigma

    def test_bs_visit_frequency_matches_hitting(self):
        n, reps = 4, 20000
        rho = P("1,2|3,4")
        h = float(bs_hitting(SetPartition.singletons(n), rho))
        hits = 0
        for i in range(reps):
            if rho in simulate_bs(n, None, replicate_rng(23, i)).states:
                hits += 1
        sigma = sqrt(reps * h * (1 - h))
        assert abs(hits - reps * h) < 4.5 * sigma


class TestEstimateContainment:
    def test_matches_eigenvector_entry(self):
        pi, rho, reps = P("1|2|3|4"), P("1,2,3|4"), 20000
        p_hat, se = estimate_containment(pi, rho, reps=reps, seed=5)
        p = 1 / 3
        sigma = sqrt(p * (1 - p) / reps)
        assert abs(float(p_hat) - p) < 4.5 * sigma
        assert se == pytest.approx(sigma, rel=0.1)

    def test_certain_containment(self):
        pi = P("1|2|3")
        assert estimate_containment(pi, P("1,2,3"), reps=50, seed=0)[0] == 1

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_streams_are_default_rng_per_replicate(self, seed):
        pi, rho, reps = P("1|2|3|4|5"), P("1,2,4|3|5"), 1500
        hits = sum(
            contains(sample_rrt(pi, replicate_rng(seed, i)), rho) for i in range(reps)
        )
        p_hat = F(hits, reps)
        want = (p_hat, sqrt(float(p_hat * (1 - p_hat)) / reps))
        assert estimate_containment(pi, rho, reps=reps, seed=seed) == want

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_containment(P("1|2"), P("1,2"), reps=0, seed=0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            estimate_containment(P("1|2"), P("1,2"), reps=3, seed=-5)


def test_replicate_rng_is_deterministic():
    a = replicate_rng(3, 9).integers(0, 1000, size=5)
    b = replicate_rng(3, 9).integers(0, 1000, size=5)
    c = replicate_rng(3, 10).integers(0, 1000, size=5)
    assert list(a) == list(b)
    assert list(a) != list(c)


class TestReplicateStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**99 + 12345])
    @pytest.mark.parametrize("reps", [1, 1023, 1024, 1025, 2049])
    def test_states_are_default_rng(self, seed, reps):
        # every replicate starts where default_rng((seed, i)) starts, across
        # batch edges and for seeds of one to four 32-bit words
        got = [rng.bit_generator.state for rng in simulate._replicate_streams(seed, reps)]
        assert got == [replicate_rng(seed, i).bit_generator.state for i in range(reps)]

    @pytest.mark.parametrize("start", [2**32 - 5, 2**32, 2**32 + 1024, 2**64 - 5])
    def test_indices_of_two_words(self, start):
        # indices from 2**32 on enter the entropy as two words
        i = np.arange(start, start + 5, dtype=np.uint64)
        for seed in (7, 2**64 + 5):
            got = simulate._generate_state(simulate._words(seed), i)
            for k in range(5):
                want = np.random.SeedSequence((seed, start + k)).generate_state(8, np.uint32)
                assert [int(w[k]) for w in got] == want.tolist()
