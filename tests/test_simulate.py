"""Seeded Monte Carlo paths and estimators against the exact laws."""

import copy
import hashlib
import pickle
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
from coalspec import _ziggurat as zigzag
from coalspec import partitions, simulate

F = Fraction


def P(text):
    return SetPartition.from_string(text)


class TestTrajectory:
    # path() pickled by protocols 0 to 5: the state is the instance dict,
    # fields in order
    PICKLES = (
        b'ccopy_reg\n_reconstructor\np0\n(ccoalspec.simulate\nTrajectory\np1\nc__built'
        b'in__\nobject\np2\nNtp3\nRp4\n(dp5\nVtimes\np6\n(F1.0\nF2.5\ntp7\nsVstates\np'
        b'8\n(g0\n(ccoalspec.partitions\nSetPartition\np9\ng2\nNtp10\nRp11\n(lp12\n((I'
        b'1\ntp13\n(I2\ntp14\n(I3\ntp15\ntp16\nabg0\n(g9\ng2\nNtp17\nRp18\n(lp19\n((I1'
        b'\nI2\ntp20\n(I3\ntp21\ntp22\nabg0\n(g9\ng2\nNtp23\nRp24\n(lp25\n((I1\nI2\nI3'
        b'\ntp26\ntp27\nabtp28\nsb.',
        b'ccopy_reg\n_reconstructor\nq\x00(ccoalspec.simulate\nTrajectory\nq\x01c__bui'
        b'ltin__\nobject\nq\x02Ntq\x03Rq\x04}q\x05(X\x05\x00\x00\x00timesq\x06(G?\xf0'
        b'\x00\x00\x00\x00\x00\x00G@\x04\x00\x00\x00\x00\x00\x00tq\x07X\x06\x00\x00'
        b'\x00statesq\x08(h\x00(ccoalspec.partitions\nSetPartition\nq\th\x02Ntq\nRq'
        b'\x0b]q\x0c((K\x01tq\r(K\x02tq\x0e(K\x03tq\x0ftq\x10abh\x00(h\th\x02Ntq\x11Rq'
        b'\x12]q\x13((K\x01K\x02tq\x14(K\x03tq\x15tq\x16abh\x00(h\th\x02Ntq\x17Rq\x18]'
        b'q\x19((K\x01K\x02K\x03tq\x1atq\x1babtq\x1cub.',
        b'\x80\x02ccoalspec.simulate\nTrajectory\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00'
        b'\x00timesq\x03G?\xf0\x00\x00\x00\x00\x00\x00G@\x04\x00\x00\x00\x00\x00\x00'
        b'\x86q\x04X\x06\x00\x00\x00statesq\x05ccoalspec.partitions\nSetPartition\nq'
        b'\x06)\x81q\x07]q\x08K\x01\x85q\tK\x02\x85q\nK\x03\x85q\x0b\x87q\x0cabh\x06)'
        b'\x81q\r]q\x0eK\x01K\x02\x86q\x0fK\x03\x85q\x10\x86q\x11abh\x06)\x81q\x12]q'
        b'\x13K\x01K\x02K\x03\x87q\x14\x85q\x15ab\x87q\x16ub.',
        b'\x80\x03ccoalspec.simulate\nTrajectory\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00'
        b'\x00timesq\x03G?\xf0\x00\x00\x00\x00\x00\x00G@\x04\x00\x00\x00\x00\x00\x00'
        b'\x86q\x04X\x06\x00\x00\x00statesq\x05ccoalspec.partitions\nSetPartition\nq'
        b'\x06)\x81q\x07]q\x08K\x01\x85q\tK\x02\x85q\nK\x03\x85q\x0b\x87q\x0cabh\x06)'
        b'\x81q\r]q\x0eK\x01K\x02\x86q\x0fK\x03\x85q\x10\x86q\x11abh\x06)\x81q\x12]q'
        b'\x13K\x01K\x02K\x03\x87q\x14\x85q\x15ab\x87q\x16ub.',
        b'\x80\x04\x95\xb7\x00\x00\x00\x00\x00\x00\x00\x8c\x11coalspec.simulate\x94'
        b'\x8c\nTrajectory\x94\x93\x94)\x81\x94}\x94(\x8c\x05times\x94G?\xf0\x00\x00'
        b'\x00\x00\x00\x00G@\x04\x00\x00\x00\x00\x00\x00\x86\x94\x8c\x06states\x94\x8c'
        b'\x13coalspec.partitions\x94\x8c\x0cSetPartition\x94\x93\x94)\x81\x94]\x94K'
        b'\x01\x85\x94K\x02\x85\x94K\x03\x85\x94\x87\x94abh\n)\x81\x94]\x94K\x01K\x02'
        b'\x86\x94K\x03\x85\x94\x86\x94abh\n)\x81\x94]\x94K\x01K\x02K\x03\x87\x94\x85'
        b'\x94ab\x87\x94ub.',
        b'\x80\x05\x95\xb7\x00\x00\x00\x00\x00\x00\x00\x8c\x11coalspec.simulate\x94'
        b'\x8c\nTrajectory\x94\x93\x94)\x81\x94}\x94(\x8c\x05times\x94G?\xf0\x00\x00'
        b'\x00\x00\x00\x00G@\x04\x00\x00\x00\x00\x00\x00\x86\x94\x8c\x06states\x94\x8c'
        b'\x13coalspec.partitions\x94\x8c\x0cSetPartition\x94\x93\x94)\x81\x94]\x94K'
        b'\x01\x85\x94K\x02\x85\x94K\x03\x85\x94\x87\x94abh\n)\x81\x94]\x94K\x01K\x02'
        b'\x86\x94K\x03\x85\x94\x86\x94abh\n)\x81\x94]\x94K\x01K\x02K\x03\x87\x94\x85'
        b'\x94ab\x87\x94ub.',
    )

    @staticmethod
    def path():
        return Trajectory(
            times=(1.0, 2.5),
            states=(P("1|2|3"), P("1,2|3"), P("1,2,3")),
        )

    def test_state_lookup(self):
        traj = self.path()
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

    def test_value(self):
        traj = self.path()
        assert repr(traj) == (
            "Trajectory(times=(1.0, 2.5), states=(SetPartition('1|2|3'),"
            " SetPartition('1,2|3'), SetPartition('1,2,3')))"
        )
        twin = Trajectory(states=traj.states, times=traj.times)
        assert twin == traj and hash(twin) == hash(traj)
        assert hash(traj) == hash((traj.times, traj.states))
        assert traj != Trajectory((1.0,), (P("1|2|3"), P("1,2,3")))
        assert traj.__eq__((traj.times, traj.states)) is NotImplemented
        match traj:
            case Trajectory(times, states):
                assert (times, states) == ((1.0, 2.5), traj.states)

    @pytest.mark.parametrize("field", ["times", "states", "other"])
    def test_frozen(self, field):
        traj = self.path()
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(traj, field, ())
        if field != "other":
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(traj, field)
        assert traj == self.path()

    def test_pickle_bytes(self):
        traj = self.path()
        for protocol, data in enumerate(self.PICKLES):
            assert pickle.dumps(traj, protocol) == data, protocol
            assert pickle.loads(data) == traj
        for twin in (copy.copy(traj), copy.deepcopy(traj)):
            assert type(twin) is Trajectory and twin == traj
            assert vars(twin) == vars(traj)

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

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    @pytest.mark.parametrize("reps, seed", [(1, 0), (1023, 5), (1025, 2**32), (2049, 2**32 + 1)])
    def test_estimate_across_batch_edges(self, model, reps, seed):
        # lanes step a batch of replicates at a time: runs that end inside,
        # at and past a batch edge count what the reference paths count
        for t in (0.7, 50.0):
            got = estimate_transition(model, 5, t, reps=reps, seed=seed)
            assert got == reference_estimate(model, 5, t, reps=reps, seed=seed)

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


class ChosenLanes:
    """Replicates start..stop-1 of a run whose clocks ring at chosen jump times.

    Replicate i's ``exponential`` returns the gap to its next chosen time and
    files that jump's chosen blocks in ``chosen`` under the replicate's tree;
    each of its bounded draws is min(picks[i], m - 1), so ``picks`` fixes its
    tree (on [3]) and its cuts.
    """

    def __init__(self, runs, picks, chosen, start, stop):
        self.size, self.chosen = stop - start, chosen
        self.jumps = [iter(jumps) for jumps in runs[start:stop]]
        self.picks = np.array(picks[start:stop])
        self.trees = [(0, *(min(pick, m - 1) for m in (1, 2))) for pick in picks[start:stop]]
        self.prev = [0.0] * self.size

    def below(self, lanes, m):
        return np.minimum(self.picks[lanes], m - 1)

    def exponential(self, lanes, scale):
        gaps = []
        for lane in lanes.tolist():
            time, self.chosen[self.trees[lane]] = next(self.jumps[lane])
            gaps.append(time - self.prev[lane])
            self.prev[lane] = time
        return np.array(gaps)


def run_bs_on(monkeypatch, runs, picks=None):
    """Run BS replicate i on runs[i], a list of chosen (time, blocks) jumps.

    The stand-in cut rule keeps the real rule's surviving nodes and returns
    the blocks chosen for the replicate's tree; it is called only when the
    table fills a jump.  Replicate i's bounded draws are min(picks[i], m - 1)
    (0 by default).
    """
    chosen = {}
    cut = simulate._bs_cut
    picks = picks or [0] * len(runs)

    def lanes(seed_words, start, stop):
        return ChosenLanes(runs, picks, chosen, start, stop)

    def rule(parent, alive, blocks, k):
        return cut(parent, alive, blocks, k)[0], chosen[parent]

    monkeypatch.setattr(simulate, "_Lanes", lanes)
    monkeypatch.setattr(simulate, "_bs_cut", rule)
    estimate_transition("bs", 3, 1.0, reps=len(runs), seed=0)


class TestEstimateTransition:
    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_each_jump_filled_once(self, model, monkeypatch):
        # lanes of one step that draw the same unfilled jump fill its slot once:
        # the model's rule runs once per (state, draw) of the run
        calls = []
        successor = simulate._JumpTable.successor

        def counted(table, s, k):
            calls.append((s, k))
            return successor(table, s, k)

        monkeypatch.setattr(simulate._JumpTable, "successor", counted)
        estimate_transition(model, 5, 1.0, reps=2000, seed=3)
        assert len(calls) == len(set(calls)) > 0

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
        lanes = simulate._Lanes
        taken = []

        def counted(seed_words, start, stop):
            taken.extend(range(start, stop))
            return lanes(seed_words, start, stop)

        monkeypatch.setattr(simulate, "_Lanes", counted)
        estimate_transition("bs", 3, 1.0, reps=5, seed=0)
        assert len(taken) == 5  # the counter sees every replicate's stream
        taken.clear()
        with pytest.raises(SizeLimitError):
            estimate_transition("bs", 9, 1.0, reps=50, seed=0)
        assert taken == []

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_negative_seed_rejected_before_replicates(self, model, monkeypatch):
        lanes = simulate._Lanes
        runs = []

        def counted(seed_words, start, stop):
            runs.extend(range(start, stop))
            return lanes(seed_words, start, stop)

        monkeypatch.setattr(simulate, "_Lanes", counted)
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
        # the first batch of lanes passes both pairs; the next batch's one
        # replicate makes the same draws, so it repeats them from the table,
        # one at a bad time
        legal = [(0.5, ((1, 2), (3,))), (0.7, ((1, 2, 3),))]
        with pytest.raises(ValueError, match="jump times"):
            run_bs_on(monkeypatch, [legal] * simulate._LANES + [jumps])

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
            run_bs_on(monkeypatch, [legal] * 99 + [illegal], [0] * 99 + [1])

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
    @pytest.mark.parametrize(
        "pi, rho, reps",
        [
            ("1|2|3|4|5", "1,2,4|3|5", 1500),
            # across one and two batch edges
            ("1|2|3|4|5", "1,2,4|3|5", 2049),
            ("1|2|3|4|5", "1,2,4|3|5", 4097),
            ("1,2,3", "1,2,3", 7),  # one block: no draw
            ("1,9|2|3|4|5,6|7|8|10", "1,9,3|2,4,7|5,6,10|8", 2049),  # 8 blocks
        ],
    )
    def test_streams_are_default_rng_per_replicate(self, pi, rho, reps, seed):
        pi, rho = P(pi), P(rho)
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

    def test_ground_sets_checked_before_replicates(self, monkeypatch):
        lanes = simulate._Lanes
        taken = []

        def counted(seed_words, start, stop):
            taken.extend(range(start, stop))
            return lanes(seed_words, start, stop)

        monkeypatch.setattr(simulate, "_Lanes", counted)
        estimate_containment(P("1|2|3"), P("1,2|3"), reps=5, seed=0)
        assert len(taken) == 5  # the counter sees every replicate's stream
        taken.clear()
        for rho in ("1,2", "1,2|3|4", "1,2|4"):
            with pytest.raises(ValueError, match="different ground sets"):
                estimate_containment(P("1|2|3"), P(rho), reps=50, seed=0)
        assert taken == []


def test_replicate_rng_is_deterministic():
    a = replicate_rng(3, 9).integers(0, 1000, size=5)
    b = replicate_rng(3, 9).integers(0, 1000, size=5)
    c = replicate_rng(3, 10).integers(0, 1000, size=5)
    assert list(a) == list(b)
    assert list(a) != list(c)


def crafted(first, then=0, spare=None):
    """A PCG64 state whose next two 64-bit outputs are ``first`` and ``then``.

    A state whose high half h is below 2**58 outputs h ^ its low half, with
    no rotation.  So the state steps to ``first`` (from (first - inc) / MULT)
    and then to h 2**64 + (then ^ h), with inc = that - first MULT; h is 0 or
    1, whichever makes inc odd.  ``then`` defaults to 0, whose double is 0.
    ``spare``, if given, is a buffered 32-bit half left unread.
    """
    mult = simulate._PCG_MULT
    h = (then ^ first ^ 1) & 1
    inc = (h << 64 | then ^ h) - first * mult
    pcg = {"state": (first - inc) * pow(mult, -1, 2**128) % 2**128, "inc": inc % 2**128}
    return {"bit_generator": "PCG64", "state": pcg,
            "has_uint32": int(spare is not None), "uinteger": spare or 0}


def lanes_at(*states):
    """Lanes set to ``states``, one each."""
    lanes = simulate._Lanes(simulate._words(0), 0, len(states))
    for j, state in enumerate(states):
        lanes.set_state(j, state)
    return lanes


def stepped(state, k):
    """``state`` with its 128-bit state moved k outputs on."""
    pcg = state["state"]
    at = pcg["state"]
    for _ in range(k):
        at = (at * simulate._PCG_MULT + pcg["inc"]) % 2**128
    return {**state, "state": {**pcg, "state": at}}


def outputs_to(bit_generator, state):
    """Step ``bit_generator`` to ``state``'s 128-bit state: the outputs taken."""
    taken = 0
    while bit_generator.state["state"]["state"] != state["state"]["state"]:
        bit_generator.random_raw()
        taken += 1
    return taken


class TestLaneDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2**33 + 5])
    def test_matches_generator_integers(self, seed):
        # every bound used up to n = 8, one that rejects about half its
        # draws, and the largest the raw draw supports; lane i takes them
        # from the i-th on, every lane in one call
        bounds = [*range(1, 29), 2**31 + 1, 2**32 - 1]
        orders = [bounds[i:] + bounds[:i] + [2**31 + 1] * 20 for i in range(4)]
        lanes = simulate._Lanes(simulate._words(seed), 0, 4)
        want_rngs = [replicate_rng(seed, i) for i in range(4)]
        counters = [replicate_rng(seed, i).bit_generator for i in range(4)]
        draws, outputs = [0] * 4, [0] * 4
        every = np.arange(4)
        for k, m in enumerate(zip(*orders)):
            got = lanes.below(every, np.array(m))
            assert got.dtype == np.int64
            for i, want_rng in enumerate(want_rngs):
                assert got[i] == want_rng.integers(0, m[i])
                draws[i] += m[i] > 1
                # the same 64-bit outputs taken, and the same buffered half
                assert lanes.state(i) == want_rng.bit_generator.state
                outputs[i] += outputs_to(counters[i], lanes.state(i))
            # exponentials take whole outputs
            some = np.array([i for i in range(4) if k % 3 == i % 3])
            for i, got in zip(some, lanes.exponential(some, np.full(len(some), 0.5))):
                assert got == want_rngs[i].exponential(0.5)
                outputs_to(counters[i], lanes.state(i))
        # 2**31 + 1 made the rejection loop run
        for i in range(4):
            assert 2 * outputs[i] > draws[i] + 1

    def test_lemire_rejections(self):
        # x = u m rejected when x mod 2**32 < (2**32 - m) mod m: u = 0 for
        # m = 2**32 - 1 (the threshold is 1), u = 2 for m = 2**31 + 1; lanes
        # reject on a fresh low half, on a kept high half, and twice over
        top, half = 2**32 - 1, 2**31 + 1
        cases = [
            (crafted(7 << 32), top),  # low half 0, then the kept 7
            (crafted(0 << 32 | 5, spare=0), top),  # kept 0, then a fresh 5
            (crafted(2 << 32 | 2, 9 << 32 | 4), half),  # 2, 2, 4, then 9
            (crafted(2 << 32 | 2, 3), top),  # no rejection of 2
            (crafted(11 << 32 | 2), half),  # 2, then the kept 11
            (crafted(0), 1),  # no draw
            (crafted(0 << 32 | 0, 1 << 32 | 0), top),  # 0, 0, 0, then 1
        ]
        lanes = lanes_at(*(state for state, _ in cases))
        got = lanes.below(np.arange(len(cases)), np.array([m for _, m in cases]))
        taken = []
        for j, (state, m) in enumerate(cases):
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            assert got[j] == rng.integers(0, m)
            assert lanes.state(j) == rng.bit_generator.state
            rng.bit_generator.state = state
            taken.append(outputs_to(rng.bit_generator, lanes.state(j)))
        assert taken == [1, 1, 2, 1, 1, 0, 2]

    def test_exponentials_off_the_fast_path(self):
        # box 0's tail, box 1 (never fast) and ri >= KE[k] leave the fast path
        # in one call with fast lanes; a double draw of 0 passes the wedge
        # test, a large one fails it and draws again
        ke = [int(v) for v in zigzag.KE]
        raws = [
            ke[0] << 11, (2**53 - 1) << 11 | 0 << 3,  # box 0: the tail
            1 << 11 | 1 << 3, (2**53 - 1) << 11 | 1 << 3,  # box 1
            *(ke[k] << 11 | k << 3 for k in (2, 100, 255)),  # ri = KE[k]
            *((ke[k] - 1) << 11 | k << 3 for k in (0, 2, 255)),  # the last fast ri
        ]
        states = [crafted(raw, then) for raw in raws for then in (0, 2**64 - 1)]
        states.append(crafted(raws[2], spare=12345))  # the kept half stays
        lanes = lanes_at(*states)
        scale = np.linspace(0.25, 4.0, len(states))
        got = lanes.exponential(np.arange(len(states)), scale)
        taken = []
        for j, state in enumerate(states):
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            assert got[j] == rng.exponential(scale[j])
            assert lanes.state(j) == rng.bit_generator.state
            rng.bit_generator.state = state
            taken.append(outputs_to(rng.bit_generator, lanes.state(j)))
        # off the fast path a draw takes a double too, and a failed wedge
        # test draws again
        assert min(taken[:14]) == 2 and max(taken[:14]) > 2
        assert taken[14:20] == [1] * 6 and taken[20] == 2

    def test_every_box_off_the_fast_path(self):
        # in every box, at the first ri off the fast path (KE[k]) and the last
        # (2**53 - 1), the double u drawn next is 0, 1 - 2**-53, numpy's wedge
        # threshold and the value below it (box 0 has no wedge: its tail is
        # taken at u = 0, 1 - 2**-53 and values between, the last two where
        # EXP_R - log(1 - u) rounds apart from EXP_R - log1p(-u)); the
        # threshold, the least u whose wedge test fails, is found by
        # bisection on numpy (u is read as the 53-bit int u 2**53 here)
        rng = np.random.Generator(np.random.PCG64())
        bit_generator = rng.bit_generator

        def passes(raw, v):
            bit_generator.state = state = crafted(raw, v << 11)
            rng.exponential(1.0)
            return bit_generator.state == stepped(state, 2)

        top = 2**53 - 1
        states, inside = [], 0
        for k in range(256):
            for ri in (int(zigzag.KE[k]), top):
                raw = ri << 11 | k << 3
                if k == 0:
                    us = [0, 1, 2**20, 2**52 + 1, top - 1, top, 7179730670529720, 6888446264584119]
                else:
                    lo, hi = 0, 2**53
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if passes(raw, mid):
                            lo = mid + 1
                        else:
                            hi = mid
                    inside += 0 < lo < 2**53
                    us = sorted({0, top} | {u for u in (lo - 1, lo) if 0 <= u <= top})
                states += [crafted(raw, u << 11) for u in us]
        # the wedge test passes below the threshold and fails at it for 297
        # of the 510 (box, ri) pairs; at ri = KE[k] it passes at every u in
        # 178 boxes, and at 2**53 - 1 it fails at every u in 35
        assert inside > 250
        lanes = lanes_at(*states)
        scale = np.linspace(0.25, 4.0, len(states))
        got = lanes.exponential(np.arange(len(states)), scale)
        for j, state in enumerate(states):
            bit_generator.state = state
            assert got[j] == rng.exponential(scale[j]), j
            assert lanes.state(j) == bit_generator.state, j

    def test_a_stream_of_many_draws(self):
        # 10**5 exponentials of one stream, about 2,200 of them off the fast
        # path and about 45 in box 0's tail, cut into 1,000 runs of 100 that
        # 1,000 lanes draw side by side: lane j starts where numpy's stream
        # is after 100 j draws and ends where it is after 100 (j + 1)
        rng = np.random.default_rng((11, 0))
        starts = []
        for _ in range(1001):
            starts.append(rng.bit_generator.state)
            rng.standard_exponential(100)
        lanes = lanes_at(*starts[:1000])
        every, scale = np.arange(1000), np.ones(1000)
        got = np.stack([lanes.exponential(every, scale) for _ in range(100)], axis=1)
        want = np.random.default_rng((11, 0)).standard_exponential(10**5)
        assert got.ravel().tolist() == want.tolist()
        assert [lanes.state(j) for j in range(1000)] == starts[1:]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**99 + 12345])
    @pytest.mark.parametrize(
        "start, stop",
        [(0, 1), (0, 1023), (0, 1025), (0, 2049), (2**32 - 3, 2**32 + 3), (2**64 - 5, 2**64)],
    )
    def test_lanes_start_as_default_rng(self, seed, start, stop):
        # one lane per replicate, for seeds of one to four 32-bit words and
        # index ranges across 2**32, where the index becomes two 32-bit words
        lanes = simulate._Lanes(simulate._words(seed), start, stop)
        got = [lanes.state(j) for j in range(stop - start)]
        assert got == [replicate_rng(seed, i).bit_generator.state for i in range(start, stop)]

    @pytest.mark.parametrize("seed", [3, 2**32 + 1])
    def test_draws_across_two_to_the_32(self, seed):
        start, stop = 2**32 - 3, 2**32 + 3
        lanes = simulate._Lanes(simulate._words(seed), start, stop)
        want_rngs = [replicate_rng(seed, i) for i in range(start, stop)]
        every = np.arange(stop - start)
        for m in (2, 3, 28, 2**31 + 1, 1, 5):
            got_below = lanes.below(every, np.full(len(every), m))
            got_exponential = lanes.exponential(every, np.full(len(every), 1 / m))
            for j, rng in enumerate(want_rngs):
                assert got_below[j] == rng.integers(0, m)
                assert got_exponential[j] == rng.exponential(1 / m)
                assert lanes.state(j) == rng.bit_generator.state


class TestZigguratTables:
    def test_tables_are_numpys(self):
        # with ri = 1 numpy's exponential returns WE[k], on the fast path or,
        # off it, from the wedge test that a double draw of 0 passes; it
        # takes one output exactly when ri < KE[k], found by bisection
        rng = np.random.Generator(np.random.PCG64())
        bit_generator = rng.bit_generator

        def draw(raw):
            bit_generator.state = crafted(raw)
            value = rng.exponential(1.0)
            return value, bit_generator.state["state"]["state"] == raw

        assert len(zigzag.KE) == len(zigzag.WE) == 256
        for k in range(256):
            assert draw(1 << 11 | k << 3)[0] == zigzag.WE[k]
            lo, hi = 0, 2**53
            while lo < hi:
                mid = (lo + hi) // 2
                if draw(mid << 11 | k << 3)[1]:
                    lo = mid + 1
                else:
                    hi = mid
            assert lo == zigzag.KE[k]
        assert zigzag.KE[1] == 0  # box 1 never takes the fast path

    def test_tail_starts_at_exp_r(self):
        # box 0 off the fast path returns EXP_R - log1p(-u): EXP_R at u = 0
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = crafted((2**53 - 1) << 11)
        assert rng.exponential(1.0) == zigzag.EXP_R
        assert len(zigzag.FE) == 256 and zigzag.FE[0] == 1.0


class TestReplicateStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**99 + 12345])
    @pytest.mark.parametrize("reps", [1, 2047, 2048, 2049, 4097])
    def test_states_are_default_rng(self, seed, reps):
        # _batches hands out every replicate once, in order, at most _LANES
        # at a time, each starting where default_rng((seed, i)) starts,
        # across batch edges and for seeds of one to four 32-bit words
        batches = list(simulate._batches(seed, reps))
        assert [b.size for b in batches] == [
            min(simulate._LANES, reps - start) for start in range(0, reps, simulate._LANES)
        ]
        got = [b.state(j) for b in batches for j in range(b.size)]
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
