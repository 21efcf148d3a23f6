"""Set partitions, refinement order and the lattice linear extension."""

import pytest

from coalspec import partitions
from coalspec import (
    PartitionLattice,
    SetPartition,
    SizeLimitError,
    bell,
    coarsenings,
    count_maximal_chains,
    interval,
    merge_covers,
    pair_covers,
    pair_key,
    restriction_sizes,
    set_partitions,
)


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
        with pytest.raises(AttributeError):
            p.blocks = ()


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

    def test_with_block_count(self, lattices):
        from coalspec import stirling_second

        for n in range(1, 7):
            for i in range(1, n + 1):
                assert len(lattices[n].with_block_count(i)) == stirling_second(n, i)

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
        for n in range(1, 7):
            lat = lattices[n]
            reference = [
                (i, lat.index_of(rho), len(pi), len(rho), restriction_sizes(pi, rho))
                for i, pi in enumerate(lat)
                for rho in sorted(coarsenings(pi), key=lambda q: q.sort_key)
            ]
            walk = [
                (i, j, p, r, list(sizes))
                for i, j, (p, r, sizes) in lat.comparable_pairs()
            ]
            assert walk == reference
            assert len(walk) == sum(bell(len(pi)) for pi in lat)

    def test_sizes_follow_rho_blocks(self):
        lat = PartitionLattice(3)
        keys = {(i, j): key for i, j, key in lat.comparable_pairs()}
        assert keys[(0, lat.index_of(P("1,2|3")))] == (3, 2, (2, 1))
        assert keys[(0, lat.index_of(P("1|2,3")))] == (3, 2, (1, 2))

    def test_streamed(self, lattices):
        walk = lattices[4].comparable_pairs()
        assert iter(walk) is walk
        assert next(walk) == (0, 0, (4, 4, (1, 1, 1, 1)))

    def test_pair_key_on_every_ordered_pair(self, lattices):
        for n in range(1, 6):
            lat = lattices[n]
            keys = {(i, j): key for i, j, key in lat.comparable_pairs()}
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
        pairs = sum(1 for _ in lat.comparable_pairs())
        assert pairs == sum(bell(len(pi)) for pi in lat)
        assert calls == []

    def test_walks_repeat_and_ignore_label_copies(self):
        lat = PartitionLattice(4)
        first = list(lat.comparable_pairs())
        labels = lat.owner_labels()
        expected = list(labels)
        labels.reverse()
        labels[0] = (0, 0, 0, 0)
        assert list(lat.comparable_pairs()) == first
        assert lat.owner_labels() == expected

    def test_owner_labels(self, lattices):
        for n in range(1, 7):
            lat = lattices[n]
            labels = lat.owner_labels()
            assert len(set(labels)) == len(lat)
            for pi, label in zip(lat, labels):
                for idx, block in enumerate(pi.blocks):
                    assert all(label[e - 1] == idx for e in block)


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
