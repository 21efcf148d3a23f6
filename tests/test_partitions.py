"""Set partitions, refinement order and the lattice linear extension."""

import copy
import pickle

import numpy as np
import pytest

from coalspec import partitions
from coalspec import (
    IncreasingTree,
    PartitionLattice,
    SetPartition,
    SizeLimitError,
    bell,
    bs_rates,
    bs_triple,
    build_generator,
    estimate_transition,
    sample_rrt,
    simulate_bs,
    Trajectory,
    verify_triple,
    coarsenings,
    count_maximal_chains,
    interval,
    merge_covers,
    pair_covers,
    pair_key,
    restriction_sizes,
    set_partitions,
)

from conftest import comparable_pairs


def P(text):
    return SetPartition.from_string(text)


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition([[3, 1], [2], [4]])
        assert p.blocks == ((1, 3), (2,), (4,))
        assert p.to_string() == "1,3|2|4"
        assert p.n == 4
        assert len(p) == 3

    def test_string_round_trip(self):
        for text in ("1|2|3", "1,3|2|4", "1,2,3,4", "1,5|2,3|4"):
            assert P(text).to_string() == text

    def test_constructors(self):
        assert SetPartition.singletons(3).to_string() == "1|2|3"
        assert SetPartition.whole(3).to_string() == "1,2,3"
        assert SetPartition.singletons([2, 5]).blocks == ((2,), (5,))
        assert SetPartition.whole([2, 5]).blocks == ((2, 5),)

    def test_equality_and_hash(self):
        assert P("1,2|3") == SetPartition([[2, 1], [3]])
        assert hash(P("1,2|3")) == hash(SetPartition([[2, 1], [3]]))
        assert P("1,2|3") != P("1,3|2")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SetPartition([[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            SetPartition([[1], []])  # empty block
        with pytest.raises(ValueError):
            SetPartition([])
        with pytest.raises(ValueError):
            SetPartition([[0, 1]])  # elements start at 1
        with pytest.raises(ValueError):
            SetPartition.from_string("1,x|2")

    def test_immutability(self):
        p = P("1|2")
        with pytest.raises(AttributeError, match="cannot assign to field 'blocks'"):
            p.blocks = ()
        with pytest.raises(AttributeError, match="cannot delete field 'blocks'"):
            del p.blocks
        with pytest.raises(AttributeError):
            p.other = 1
        assert hash(p) == hash(p.blocks)
        assert SetPartition(blocks=[[2], [1]]) == p
        assert p.__eq__(p.blocks) is NotImplemented and p != p.blocks

    # "1,3|2|4" pickled by protocols 0 to 5: the state is the list [blocks]
    PICKLES = (
        b'ccopy_reg\n_reconstructor\np0\n(ccoalspec.partitions\nSetPartition\np1\nc__bu'
        b'iltin__\nobject\np2\nNtp3\nRp4\n(lp5\n((I1\nI3\ntp6\n(I2\ntp7\n(I4\ntp8\ntp9'
        b'\nab.',
        b'ccopy_reg\n_reconstructor\nq\x00(ccoalspec.partitions\nSetPartition\nq\x01c__'
        b'builtin__\nobject\nq\x02Ntq\x03Rq\x04]q\x05((K\x01K\x03tq\x06(K\x02tq\x07(K'
        b'\x04tq\x08tq\tab.',
        b'\x80\x02ccoalspec.partitions\nSetPartition\nq\x00)\x81q\x01]q\x02K\x01K\x03'
        b'\x86q\x03K\x02\x85q\x04K\x04\x85q\x05\x87q\x06ab.',
        b'\x80\x03ccoalspec.partitions\nSetPartition\nq\x00)\x81q\x01]q\x02K\x01K\x03'
        b'\x86q\x03K\x02\x85q\x04K\x04\x85q\x05\x87q\x06ab.',
        b'\x80\x04\x95?\x00\x00\x00\x00\x00\x00\x00\x8c\x13coalspec.partitions\x94\x8c'
        b'\x0cSetPartition\x94\x93\x94)\x81\x94]\x94K\x01K\x03\x86\x94K\x02\x85\x94K'
        b'\x04\x85\x94\x87\x94ab.',
        b'\x80\x05\x95?\x00\x00\x00\x00\x00\x00\x00\x8c\x13coalspec.partitions\x94\x8c'
        b'\x0cSetPartition\x94\x93\x94)\x81\x94]\x94K\x01K\x03\x86\x94K\x02\x85\x94K'
        b'\x04\x85\x94\x87\x94ab.',
    )

    def test_match_by_blocks(self):
        match P("1,2|3"):
            case SetPartition(blocks):
                pass
        assert blocks == ((1, 2), (3,))  # a NameError if no case matched

    def test_pickle_bytes(self):
        p = P("1,3|2|4")
        for protocol, data in enumerate(self.PICKLES):
            assert pickle.dumps(p, protocol) == data, protocol
            assert pickle.loads(data) == p and pickle.loads(data).blocks == p.blocks


class TestFrozenValues:
    """All five library values stand on one frozen base and guard their fields alike."""

    def values(self):
        pi = P("1,3|2|4")
        lattice = PartitionLattice(3)
        triple = bs_triple(lattice)
        return (
            pi,
            IncreasingTree(pi, {(2,): (1, 3), (4,): (2,)}),
            triple,
            verify_triple(build_generator(lattice, bs_rates(3)), triple),
            Trajectory((0.5,), (P("1|2"), P("1,2"))),
        )

    def test_one_base(self):
        classes = [type(v) for v in self.values()]
        assert [c.__name__ for c in classes] == [
            "SetPartition", "IncreasingTree", "SpectralTriple", "VerificationReport", "Trajectory",
        ]
        for cls in classes:
            assert issubclass(cls, partitions._Frozen)
            assert cls.__setattr__ is partitions._Frozen.__setattr__
            assert cls.__delattr__ is partitions._Frozen.__delattr__

    def test_same_errors(self):
        for value in self.values():
            for field in (*value.__match_args__, "other"):
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
                    setattr(value, field, None)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
                    delattr(value, field)
            assert all(hasattr(value, field) for field in value.__match_args__)


class TestRefinement:
    def test_trivial_bounds(self):
        for n in range(1, 6):
            delta = SetPartition.singletons(n)
            top = SetPartition.whole(n)
            assert delta.refines(top)
            assert delta.refines(delta)
            assert top.refines(top)
            if n > 1:
                assert not top.refines(delta)

    def test_incomparable_pair(self):
        a, b = P("1,2|3"), P("1,3|2")
        assert not a.refines(b)
        assert not b.refines(a)

    def test_mismatched_ground_raises(self):
        with pytest.raises(ValueError):
            P("1|2").refines(P("1|2|3"))

    def test_refinement_implies_block_count(self):
        lat = PartitionLattice(4)
        for pi in lat:
            for rho in lat:
                if pi.refines(rho) and pi != rho:
                    assert len(pi) > len(rho)


class TestRestrict:
    def test_example(self):
        pi = P("1,3|2,4")
        assert pi.restrict([1, 2, 3]) == SetPartition([[1, 3], [2]])

    def test_restrict_to_block_of_coarser(self):
        pi = P("1|2|3|4")
        assert pi.restrict((1, 2, 3)).blocks == ((1,), (2,), (3,))

    def test_errors(self):
        with pytest.raises(ValueError):
            P("1|2").restrict([])
        with pytest.raises(ValueError):
            P("1|2").restrict([3])

    def test_restriction_sizes(self):
        pi = P("1|2|3|4")
        rho = P("1,2,3|4")
        assert restriction_sizes(pi, rho) == [3, 1]
        with pytest.raises(ValueError):
            restriction_sizes(P("1,2|3"), P("1,3|2"))
        with pytest.raises(ValueError):
            restriction_sizes(P("1|2"), P("1,2,3"))


class TestLattice:
    def test_sizes(self, lattices):
        for n in range(1, 7):
            assert len(lattices[n]) == bell(n)

    def test_extremes(self, lattices):
        for n in range(1, 7):
            lat = lattices[n]
            assert lat[0] == SetPartition.singletons(n)
            assert lat.bottom == lat[0]
            assert lat.top == lat[len(lat) - 1] == SetPartition.whole(n)
            assert lat.index_of(lat.bottom) == 0

    def test_linear_extension(self, lattices):
        # pi < rho implies index(pi) < index(rho)
        for n in range(2, 7):
            lat = lattices[n]
            for pi in lat:
                i = lat.index_of(pi)
                for rho in coarsenings(pi):
                    if rho != pi:
                        assert i < lat.index_of(rho)

    def test_order_deterministic(self):
        a = PartitionLattice(4)
        b = PartitionLattice(4)
        assert a.elements == b.elements

    def test_n3_order(self):
        lat = PartitionLattice(3)
        assert [p.to_string() for p in lat] == [
            "1|2|3",
            "1|2,3",
            "1,2|3",
            "1,3|2",
            "1,2,3",
        ]

    def test_index_of_foreign_partition(self, lattices):
        # a partition of [n - 1], of [n + 1], and of a ground set with a gap
        for text in ("1|2", "1,2", "1|2|3|4", "1,2,3,4", "1|2|4", "1,3|4"):
            with pytest.raises(ValueError, match=r"is not a partition of \[3\]"):
                lattices[3].index_of(P(text))

    def test_elements_match_set_partitions(self, lattices):
        for n in range(1, 7):
            reference = sorted(
                (SetPartition(p) for p in set_partitions(range(1, n + 1))),
                key=lambda p: p.sort_key,
            )
            assert lattices[n].elements == reference

    def test_elements_are_checked_values(self):
        # the lattice builds its elements from canonical blocks, skipping the
        # check; each must be the value the checked constructor gives
        for n in range(1, 8):
            for pi in PartitionLattice(n):
                checked = SetPartition([list(reversed(b)) for b in reversed(pi.blocks)])
                assert type(pi) is SetPartition
                assert checked.blocks == pi.blocks and checked == pi
                assert hash(checked) == hash(pi)
                assert pickle.dumps(checked) == pickle.dumps(pi)
                assert pickle.loads(pickle.dumps(pi)) == pi

    def test_cap_default(self):
        with pytest.raises(SizeLimitError) as err:
            PartitionLattice(9)
        assert "21147" in str(err.value)

    def test_cap_message_does_not_grow_with_n(self):
        with pytest.raises(SizeLimitError) as err:
            PartitionLattice(2000)
        assert "21147" in str(err.value) and len(str(err.value)) < 200

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("COALSPEC_N_CAP", "4")
        with pytest.raises(SizeLimitError):
            PartitionLattice(5)
        monkeypatch.setenv("COALSPEC_N_CAP", "5")
        assert len(PartitionLattice(5)) == 52
        monkeypatch.setenv("COALSPEC_N_CAP", "not-an-int")
        with pytest.raises(ValueError):
            PartitionLattice(3)


class TestComparablePairs:
    def test_matches_coarsenings_walk(self, lattices):
        for n in range(1, 8):
            lat = lattices[n] if n in lattices else PartitionLattice(n)
            reference = [
                (i, lat.index_of(rho), len(pi), len(rho), restriction_sizes(pi, rho))
                for i, pi in enumerate(lat)
                for rho in sorted(coarsenings(pi), key=lambda q: q.sort_key)
            ]
            walk = [
                (i, j, p, r, list(sizes))
                for i, j, (p, r, sizes) in comparable_pairs(lat)
            ]
            assert walk == reference
            assert len(walk) == sum(bell(len(pi)) for pi in lat)
            rows = list(lat.comparable_rows())
            assert [i for i, _, _ in rows] == list(range(len(lat)))
            assert all(list(js) == sorted(js) for _, js, _ in rows)
            assert [
                (i, j, key) for i, js, keys in rows for j, key in zip(js, keys)
            ] == list(comparable_pairs(lat))

    def test_kept_walk_is_the_walk(self):
        lat = PartitionLattice(5)
        streamed = list(lat.comparable_rows())
        assert "_kept" not in vars(lat)  # a streamed walk is not kept
        kept = lat._kept_rows()
        assert kept == streamed and lat._kept_rows() is kept
        assert list(lat.comparable_rows()) == streamed

    def test_sizes_follow_rho_blocks(self):
        lat = PartitionLattice(3)
        keys = {(i, j): key for i, j, key in comparable_pairs(lat)}
        assert keys[(0, lat.index_of(P("1,2|3")))] == (3, 2, (2, 1))
        assert keys[(0, lat.index_of(P("1|2,3")))] == (3, 2, (1, 2))

    def test_streamed(self, lattices):
        walk = comparable_pairs(lattices[4])
        assert iter(walk) is walk
        assert next(walk) == (0, 0, (4, 4, (1, 1, 1, 1)))

    def test_pair_key_on_every_ordered_pair(self, lattices):
        for n in range(1, 6):
            lat = lattices[n]
            keys = {(i, j): key for i, j, key in comparable_pairs(lat)}
            for i, pi in enumerate(lat):
                for j, rho in enumerate(lat):
                    assert pair_key(pi, rho) == keys.get((i, j))

    @pytest.mark.parametrize("pi, rho", [
        ("1|2", "1,2,3"),          # ρ has more elements
        ("1|2|3", "1,2"),          # ρ has fewer elements
        ("1|2|4", "1,2,3"),        # same count, different elements
        ("1,3|2,5", "1,2|3,4"),    # π not finer before the foreign element
    ])
    def test_pair_key_ground_mismatch_raises(self, pi, rho):
        with pytest.raises(ValueError):
            pair_key(P(pi), P(rho))
        with pytest.raises(ValueError):
            partitions._block_key(P(pi).blocks, P(rho).blocks)

    def test_block_pass_is_pair_key(self, lattices):
        # every ordered pair drawn from P([1]), ..., P([4]): comparable, not
        # comparable, or on different ground sets
        states = [pi for n in range(1, 5) for pi in lattices[n]]
        for pi in states:
            for rho in states:
                try:
                    want = pair_key(pi, rho)
                except ValueError:
                    with pytest.raises(ValueError):
                        partitions._block_key(pi.blocks, rho.blocks)
                else:
                    assert partitions._block_key(pi.blocks, rho.blocks) == want

    def test_walk_builds_no_labels(self, monkeypatch):
        lat = PartitionLattice(5)
        calls = []
        owners = partitions._owners
        monkeypatch.setattr(partitions, "_owners", lambda pi: calls.append(pi) or owners(pi))
        pairs = sum(1 for _ in comparable_pairs(lat))
        assert pairs == sum(bell(len(pi)) for pi in lat)
        assert calls == []

    def test_walks_repeat(self):
        lat = PartitionLattice(4)
        first = list(comparable_pairs(lat))
        assert list(comparable_pairs(lat)) == first


class TestCovers:
    def test_merge_covers_count(self):
        for text in ("1|2|3", "1|2|3|4", "1,2|3|4|5"):
            pi = P(text)
            m = len(pi)
            covers = merge_covers(pi)
            assert len(covers) == 2**m - m - 1
            assert len(set(covers)) == len(covers)
            for sigma in covers:
                assert pi.refines(sigma)
                assert len(sigma) < m
                # exactly one block of sigma is a union of >= 2 blocks of pi
                sizes = restriction_sizes(pi, sigma)
                assert sorted(sizes)[:-1] == [1] * (len(sigma) - 1)
                assert sizes.count(1) == len(sigma) - 1

    def test_pair_covers(self):
        pi = P("1|2|3|4")
        covers = pair_covers(pi)
        assert len(covers) == 6
        for sigma in covers:
            assert len(sigma) == 3
            assert pi.refines(sigma)
        assert set(covers) <= set(merge_covers(pi))


class TestInterval:
    def test_example(self):
        delta = SetPartition.singletons(3)
        rho = P("1,2|3")
        assert interval(delta, rho) == [delta, rho]

    def test_product_cardinality(self, lattices):
        for n in range(2, 6):
            lat = lattices[n]
            for pi in lat:
                for rho in coarsenings(pi):
                    expected = 1
                    for s in restriction_sizes(pi, rho):
                        expected *= bell(s)
                    assert len(interval(pi, rho)) == expected

    def test_matches_the_definition(self, lattices):
        # every σ of P([n]) with π ≤ σ ≤ ρ, in lattice order, for all π ≤ ρ
        for n in range(1, 7):
            lat = lattices[n]
            for pi in lat:
                up = [sigma for sigma in lat if pi.refines(sigma)]
                for rho in up:
                    assert interval(pi, rho) == [s for s in up if s.refines(rho)]

    def test_work_is_the_interval(self, monkeypatch):
        # one SetPartition per element of [π, ρ], however many coarsenings π has
        delta, halves = SetPartition.singletons(10), P("1,2,3,4,5|6,7,8,9,10")
        built = 0
        init = SetPartition.__init__

        def counted(self, blocks):
            nonlocal built
            built += 1
            init(self, blocks)

        monkeypatch.setattr(SetPartition, "__init__", counted)
        for rho, size in ((delta, 1), (halves, bell(5) ** 2)):
            built = 0
            assert len(interval(delta, rho)) == size
            assert built == size

    def test_full_interval_is_lattice(self, lattices):
        lat = lattices[4]
        assert interval(lat.bottom, lat.top) == lat.elements

    def test_membership(self):
        pi, rho = P("1|2|3|4"), P("1,2,3|4")
        for sigma in interval(pi, rho):
            assert pi.refines(sigma) and sigma.refines(rho)

    def test_error(self):
        with pytest.raises(ValueError):
            interval(P("1,2|3"), P("1,3|2"))


class TestMaximalChainCounts:
    def test_frozen_values(self):
        assert count_maximal_chains(SetPartition.singletons(3), SetPartition.whole(3)) == 3
        assert count_maximal_chains(SetPartition.singletons(4), SetPartition.whole(4)) == 18
        pi = P("1|2|3")
        assert count_maximal_chains(pi, pi) == 1

    def test_full_lattice_closed_form(self):
        # 2^(1-n) n! (n-1)! for the bottom-to-top count
        from math import factorial

        for n in range(1, 7):
            expect = factorial(n) * factorial(n - 1) // 2 ** (n - 1)
            assert (
                count_maximal_chains(SetPartition.singletons(n), SetPartition.whole(n))
                == expect
            )

    def test_closed_form_divides_exactly(self):
        # (p - r)! prod s! / 2^(p - r) counts the maximal chains of
        # prod_s P(s), so the division is exact for every composition of p
        from math import factorial, prod

        def compositions(p):
            if p == 0:
                yield ()
            for first in range(1, p + 1):
                for rest in compositions(p - first):
                    yield (first, *rest)

        checked = 0
        for p in range(1, 13):
            for sizes in compositions(p):
                r = len(sizes)
                assert factorial(p - r) * prod(map(factorial, sizes)) % 2 ** (p - r) == 0
                checked += 1
        assert checked == 2**12 - 1

    def test_chain_recursions(self, lattices):
        # m(pi, rho) = sum over first steps = sum over last steps
        for n in range(2, 6):
            for pi in lattices[n]:
                for rho in coarsenings(pi):
                    if pi == rho:
                        continue
                    m = count_maximal_chains(pi, rho)
                    up = sum(
                        count_maximal_chains(sigma, rho)
                        for sigma in pair_covers(pi)
                        if sigma.refines(rho)
                    )
                    down = sum(
                        count_maximal_chains(pi, sigma)
                        for sigma in interval(pi, rho)
                        if len(sigma) == len(rho) + 1
                    )
                    assert m == up == down

    def test_error(self):
        with pytest.raises(ValueError):
            count_maximal_chains(P("1,2|3"), P("1,3|2"))


def test_set_partitions_counts():
    for n in range(7):
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell(n)


def _lattice_values():
    lattice = PartitionLattice(5)
    Q, T = build_generator(lattice, bs_rates(5)), bs_triple(lattice)
    return lattice, Q, T, verify_triple(Q, T)


# (value, what two copies must agree on): every value that holds a partition
ROUND_TRIPS = {
    "partition": (lambda: P("1,3|2|4"), lambda p: p),
    "lattice": (lambda: PartitionLattice(5), lambda lat: lat.elements),
    "generator": (
        lambda: _lattice_values()[1], lambda Q: (Q, Q.lattice.elements)
    ),
    "triple": (lambda: _lattice_values()[2], lambda t: (t.R, t.D, t.L)),
    "trajectory": (
        lambda: simulate_bs(6, None, np.random.default_rng(3)), lambda tr: tr
    ),
    "transition table": (
        lambda: estimate_transition("kingman", 4, 0.5, reps=50, seed=0), lambda d: d
    ),
    "tree": (
        lambda: sample_rrt(SetPartition.singletons(6), np.random.default_rng(1)),
        lambda tree: tree,
    ),
    "rates": (lambda: bs_rates(4), lambda rates: rates.items()),
    "report": (lambda: _lattice_values()[3], lambda report: report),
}


class TestRoundTrip:
    """Library values pickle and copy, so they cross process boundaries."""

    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_pickle_and_copies(self, name):
        make, view = ROUND_TRIPS[name]
        value = make()
        pickled = [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*pickled, copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert view(twin) == view(value)

    def test_walked_lattice_leaves_its_walk_behind(self):
        fresh, walked = PartitionLattice(5), PartitionLattice(5)
        data = pickle.dumps(fresh)
        bs_triple(walked)
        assert "_kept" in vars(walked)
        assert pickle.dumps(walked) == data
        for twin in (pickle.loads(pickle.dumps(walked)), copy.copy(walked),
                     copy.deepcopy(walked)):
            assert type(twin) is PartitionLattice
            assert vars(twin) == vars(fresh)
            assert pickle.dumps(twin) == data
            assert list(twin.comparable_rows()) == walked._kept_rows()

    def test_copied_matrices_stay_read_only(self):
        Q, t = _lattice_values()[1:3]
        for m, name in ((Q, "lattice"), (t.R, "size")):
            for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
                assert twin == m
                with pytest.raises(AttributeError):
                    setattr(twin, name, None)

    def test_unpickled_tree_stays_read_only(self):
        tree = sample_rrt(SetPartition.singletons(5), np.random.default_rng(0))
        twin = pickle.loads(pickle.dumps(tree))
        assert twin == tree and hash(twin) == hash(tree)
        with pytest.raises(TypeError):
            twin.parent[tree.non_root_nodes[0]] = tree.root
