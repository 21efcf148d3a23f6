"""Seeded Monte Carlo paths and estimators against the exact laws."""

import hashlib
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
    def test_same_times_and_states(self, fast, reference, monkeypatch):
        # exact float equality: every draw and every sum must be the same.
        # The public path holds only its path, never the estimator's table
        # (C(b, 2) slots per Kingman state), so it reaches n = 30, past the
        # lattice cap
        def no_table(rule):
            raise AssertionError("the public path built a jump table")

        monkeypatch.setattr(simulate, "_JumpTable", no_table)
        for n, reps in [*((n, 50) for n in range(1, 9)), (30, 10)]:
            for horizon in (None, 0.3, 1.0):
                for i in range(reps):
                    fast_rng, reference_rng = replicate_rng(n, i), replicate_rng(n, i)
                    got = fast(n, horizon, fast_rng)
                    want = reference(n, horizon, reference_rng)
                    assert got.times == want.times
                    assert got.states == want.states
                    # the same draws, down to the buffered half of a 64-bit output
                    assert fast_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize(
        "fast, reference",
        [(simulate_bs, reference_bs), (simulate_kingman, reference_kingman)],
    )
    def test_same_times_and_states_mt19937(self, fast, reference):
        # the public paths draw through Generator.integers, so any bit
        # generator works and is left exactly where the reference leaves it
        for n in range(1, 9):
            for horizon in (None, 0.3, 1.0):
                for i in range(20):
                    fast_rng = np.random.Generator(np.random.MT19937((n, i)))
                    reference_rng = np.random.Generator(np.random.MT19937((n, i)))
                    got = fast(n, horizon, fast_rng)
                    want = reference(n, horizon, reference_rng)
                    assert got.times == want.times
                    assert got.states == want.states
                    got_state = fast_rng.bit_generator.state["state"]
                    want_state = reference_rng.bit_generator.state["state"]
                    assert got_state["pos"] == want_state["pos"]
                    assert np.array_equal(got_state["key"], want_state["key"])

    class ExponentialOnly:
        """A Generator's exponential clocks with its bounded draws forbidden."""

        def __init__(self, rng):
            self.exponential = rng.exponential

        def integers(self, *args, **kwargs):
            raise AssertionError("a bounded draw did not go through below")

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_bounded_draws_come_through_below(self, model, monkeypatch):
        # the public path makes every bounded draw through the rule
        # ``_integers_below`` hands it, in the order the reference path makes
        # it through Generator.integers; its clocks forbid any other draw
        public = {"bs": simulate_bs, "kingman": simulate_kingman}[model]
        reference = {"bs": reference_bs, "kingman": reference_kingman}[model]
        integers_below = simulate._integers_below
        for n in (1, 2, 5, 8):
            for horizon in (None, 0.3):
                for i in range(10):
                    rng, reference_rng = replicate_rng(n, i), replicate_rng(n, i)
                    clocks = self.ExponentialOnly(rng)
                    draw = integers_below(rng)
                    bounds = []

                    def below(m):
                        bounds.append(m)
                        return draw(m)

                    def recording(source):
                        assert source is clocks
                        return below

                    monkeypatch.setattr(simulate, "_integers_below", recording)
                    got = public(n, horizon, clocks)
                    want = reference(n, horizon, reference_rng)
                    assert got.times == want.times
                    assert [s.blocks for s in got.states] == [s.blocks for s in want.states]
                    assert rng.bit_generator.state == reference_rng.bit_generator.state
                    sizes = [len(s) for s in want.states[:-1]]
                    if model == "bs":  # the tree's parents, then one edge per cut
                        assert bounds == [*range(1, n), *(b - 1 for b in sizes)]
                    else:  # one pair per merger
                        assert bounds == [comb(b, 2) for b in sizes]

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_estimate_matches_reference(self, model):
        # n <= 2 makes no bounded draw; n = 8 draws up to m = C(8, 2) = 28;
        # t = 0 takes no jump and t = 50 ends every replicate absorbed
        for n in (1, 2, 5, 6, 7, 8):
            for t in (0.0, 0.4, 1.0, 50.0):
                got = estimate_transition(model, n, t, reps=400, seed=19)
                assert got == reference_estimate(model, n, t, reps=400, seed=19)

    @pytest.mark.parametrize(
        "model, digest",
        [
            ("bs", "f4ca93c175db3aeddda6ba2b721ef398d6b73e386e7914880b60554e72a7f7ac"),
            ("kingman", "a1e9335d6dbd91f7b6142691e0dc98dd4313722752e5c08da6854034a0b903f8"),
        ],
    )
    def test_counts_at_benchmark_size(self, model, digest):
        # recorded when every bounded draw still went through
        # Generator.integers; exact counts, with no BLAS column in them
        reps = 20000
        est = estimate_transition(model, 6, 1.013, reps=reps, seed=123)
        pairs = sorted((pi.blocks, int(p * reps)) for pi, (p, _) in est.items())
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_builds_only_the_lattice(self, model, monkeypatch):
        n, built = 5, 0
        size = len(PartitionLattice(n))
        init, canonical = SetPartition.__init__, partitions._canonical

        def counting_init(self, blocks):
            nonlocal built
            built += 1
            init(self, blocks)

        def counting_canonical(blocks):
            nonlocal built
            built += 1
            return canonical(blocks)

        # a partition is built checked, or from canonical blocks as the lattice does
        monkeypatch.setattr(SetPartition, "__init__", counting_init)
        monkeypatch.setattr(partitions, "_canonical", counting_canonical)
        estimate_transition(model, n, 1.0, reps=2000, seed=3)
        # finals are counted by the blocks of the lattice's own partitions
        assert built == size

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_jumps_checked_by_the_pair_key_pass(self, model, monkeypatch):
        n, t, reps, seed = 5, 1.0, 300, 11
        simulate_path = {"bs": simulate_bs, "kingman": simulate_kingman}[model]
        yielded = []  # every jump of the run: the public path on the same streams
        for i in range(reps):
            states = simulate_path(n, t, replicate_rng(seed, i)).states
            yielded += [(a.blocks, b.blocks) for a, b in zip(states, states[1:])]
        filled = []  # every jump the run's table fills, through the model's rule
        if model == "bs":
            cut = simulate._bs_cut

            def rule(parent, alive, blocks, k):
                alive, coarse = cut(parent, alive, blocks, k)
                filled.append((blocks, coarse))
                return alive, coarse

            monkeypatch.setattr(simulate, "_bs_cut", rule)
        else:
            merge = simulate._kingman_merge

            def rule(blocks, k):
                coarse = merge(blocks, k)
                filled.append((blocks, coarse))
                return coarse

            monkeypatch.setattr(simulate, "_kingman_merge", rule)

        assert simulate._block_key is partitions._block_key
        calls = []
        key = simulate._block_key

        def counted(fine, coarse):
            calls.append((fine, coarse))
            return key(fine, coarse)

        monkeypatch.setattr(simulate, "_block_key", counted)
        estimate_transition(model, n, t, reps=reps, seed=seed)
        # the pass runs once per distinct pair the run yields, and every
        # yielded jump is a pair it passed, reached through a filled jump
        assert len(yielded) > len(calls) > 0
        assert sorted(calls) == sorted(set(calls)) == sorted(set(yielded))
        assert set(filled) == set(yielded)
        calls.clear()  # and Trajectory checks every jump with the same pass
        path = simulate_path(n, None, replicate_rng(seed, 0))
        assert len(calls) == len(path.times) > 0


class ChosenClocks:
    """A replicate's stream whose clocks ring at chosen jump times.

    ``exponential`` returns the gap to the next chosen time and hands that
    jump's chosen blocks to ``chosen``; every raw output is ``raw``, so it
    fixes the replicate's tree and bounded draws.
    """

    def __init__(self, jumps, chosen, raw):
        self.jumps, self.chosen, self.prev = iter(jumps), chosen, 0.0
        self.bit_generator = self
        self.random_raw = lambda: raw

    def exponential(self, scale):
        time, self.chosen[0] = next(self.jumps)
        gap, self.prev = time - self.prev, time
        return gap


def run_bs_on(monkeypatch, runs, raws=None):
    """Run BS replicate i on runs[i], a list of chosen (time, blocks) jumps.

    The stand-in cut rule keeps the real rule's surviving nodes and returns
    the chosen blocks; it is called only when the table fills a jump.
    Replicate i draws from the raw output ``raws[i]`` (0 by default).
    """
    chosen = [None]
    cut = simulate._bs_cut
    raws = raws or [0] * len(runs)

    def streams(seed, reps):
        for jumps, raw in zip(runs[:reps], raws):
            yield ChosenClocks(jumps, chosen, raw)

    def rule(parent, alive, blocks, k):
        return cut(parent, alive, blocks, k)[0], chosen[0]

    monkeypatch.setattr(simulate, "_replicate_streams", streams)
    monkeypatch.setattr(simulate, "_bs_cut", rule)
    estimate_transition("bs", 3, 1.0, reps=len(runs), seed=0)


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
        streams = simulate._replicate_streams
        runs = []

        def counted(seed, reps):
            for rng in streams(seed, reps):
                runs.append(rng)
                yield rng

        monkeypatch.setattr(simulate, "_replicate_streams", counted)
        estimate_transition(model, 3, 1.0, reps=10, seed=0)
        assert len(runs) == 10  # the counter sees every replicate run
        runs.clear()
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
        with pytest.raises(ValueError, match="jump times|coarsen"):
            run_bs_on(monkeypatch, [jumps, jumps])

    @pytest.mark.parametrize(
        "jumps",
        [
            [(0.5, ((1, 2), (3,))), (0.5, ((1, 2, 3),))],  # repeated time
            [(0.5, ((1, 2), (3,))), (0.2, ((1, 2, 3),))],  # time goes back
            [(0.5, ((1, 2), (3,))), (float("inf"), ((1, 2, 3),))],
            [(float("nan"), ((1, 2), (3,)))],
        ],
    )
    def test_passed_pair_with_failing_time_rejected(self, jumps, monkeypatch):
        # replicate 0 passes both pairs; replicate 1 makes the same draws, so
        # it repeats them from the table, one at a bad time
        legal = [(0.5, ((1, 2), (3,))), (0.7, ((1, 2, 3),))]
        with pytest.raises(ValueError, match="jump times"):
            run_bs_on(monkeypatch, [legal, jumps])

    @pytest.mark.parametrize(
        "illegal",
        [
            [(0.5, ((1, 2), (3,))), (0.7, ((1, 3), (2,)))],  # not coarser
            [(0.5, ((1, 2), (3,))), (0.7, ((1, 2), (3,)))],  # no merger
            [(0.5, ((1, 2), (4,)))],  # another ground set
        ],
    )
    def test_illegal_pair_after_legal_repeats_rejected(self, illegal, monkeypatch):
        # the last replicate draws another tree, so the table fills its jumps
        legal = [(0.5, ((1, 2), (3,))), (0.7, ((1, 2, 3),))]
        with pytest.raises(ValueError, match="coarsen"):
            run_bs_on(monkeypatch, [legal] * 99 + [illegal], [0] * 99 + [2**64 - 1])

    @pytest.mark.parametrize(
        "model, rule, edges",
        # every (state, draw) of P([5]): sum of C(b, 2) over its partitions
        # for Kingman; for BS, sum of (survivors - 1) over the states each of
        # the 24 increasing trees on 5 nodes reaches by cuts
        [("kingman", "_kingman_merge", 160), ("bs", "_bs_cut", 466)],
    )
    def test_merge_table_lasts_one_run(self, model, rule, edges, monkeypatch):
        step = getattr(simulate, rule)
        fills = 0

        def counted(*args):
            nonlocal fills
            fills += 1
            return step(*args)

        monkeypatch.setattr(simulate, rule, counted)
        made = []
        for _ in range(2):
            fills = 0
            estimate_transition(model, 5, 1.0, reps=300, seed=11)
            made.append(fills)
        # a table left over from the first run would spare the second its
        # fills; within a run each (state, draw) is filled once
        assert made[0] == made[1]
        assert 0 < made[0] <= edges


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


class TestRawBelow:
    class CountingRaw:
        """A bit generator's ``random_raw``, counting the 64-bit outputs taken."""

        def __init__(self, bit_generator):
            self.bit_generator, self.outputs = bit_generator, 0

        def random_raw(self):
            self.outputs += 1
            return self.bit_generator.random_raw()

    @pytest.mark.parametrize("seed", [0, 7, 2**33 + 5])
    def test_matches_generator_integers(self, seed):
        # every bound used up to n = 8, one that rejects about half its
        # draws, and the largest the raw draw supports
        bounds = [*range(1, 29), 2**31 + 1, 2**32 - 1]
        for i in range(4):
            want_rng, got_rng = replicate_rng(seed, i), replicate_rng(seed, i)
            raw = self.CountingRaw(got_rng.bit_generator)
            below = simulate._raw_below(raw)
            draws = 0
            for k, m in enumerate(bounds[i:] + bounds[:i] + [2**31 + 1] * 20):
                got, want = below(m), want_rng.integers(0, m)
                assert type(got) is int and got == want
                draws += m > 1
                # the same 64-bit outputs taken; the buffered half lives in
                # the closure instead of the bit generator
                got_state = got_rng.bit_generator.state["state"]["state"]
                assert got_state == want_rng.bit_generator.state["state"]["state"]
                if k % 3 == i % 3:  # exponentials take whole outputs
                    assert got_rng.exponential(0.5) == want_rng.exponential(0.5)
            # 2**31 + 1 made the rejection loop run
            assert 2 * raw.outputs > draws + 1


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
