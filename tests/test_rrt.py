"""Increasing trees: enumeration, cutting, containment, sampling laws."""

import copy
import hashlib
import json
import pickle
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from coalspec import (
    IncreasingTree,
    SetPartition,
    SizeLimitError,
    bs_rates,
    contains,
    count_trees_containing,
    cut_edge,
    cut_random,
    enumerate_increasing_trees,
    merge_covers,
    sample_rrt,
)

from conftest import to_json

F = Fraction


def P(text):
    return SetPartition.from_string(text)


def reachable_labels(tree):
    """Every label partition obtainable from ``tree`` by cut sequences."""
    seen_trees = {tree}
    labels = {tree.labels}
    stack = [tree]
    while stack:
        t = stack.pop()
        for node in t.non_root_nodes:
            t2 = cut_edge(t, node)
            if t2 not in seen_trees:
                seen_trees.add(t2)
                labels.add(t2.labels)
                stack.append(t2)
    return labels


class TestIncreasingTree:
    def test_construction(self):
        pi = P("1|2|3")
        t = IncreasingTree(pi, {(2,): (1,), (3,): (1,)})
        assert t.root == (1,)
        assert t.edge_count == 2
        assert t.labels == pi
        assert t.non_root_nodes == ((2,), (3,))
        assert t.children_map()[(1,)] == [(2,), (3,)]

    def test_validation(self):
        pi = P("1|2|3")
        with pytest.raises(ValueError):
            IncreasingTree(pi, {(2,): (1,)})  # missing (3,)
        with pytest.raises(ValueError):
            IncreasingTree(pi, {(2,): (3,), (3,): (1,)})  # min decreases
        with pytest.raises(ValueError):
            IncreasingTree(pi, {(2,): (1,), (3,): (5,)})  # foreign parent

    def test_immutability_and_hash(self):
        pi = P("1|2|3")
        a = IncreasingTree(pi, {(2,): (1,), (3,): (1,)})
        b = IncreasingTree(pi, {(2,): (1,), (3,): (1,)})
        c = IncreasingTree(pi, {(2,): (1,), (3,): (2,)})
        assert a == b and hash(a) == hash(b)
        assert a != c
        with pytest.raises(AttributeError):
            a.labels = pi
        with pytest.raises(TypeError):
            a.parent[(2,)] = (1,)

    # IncreasingTree(P("1,3|2|4"), {(2,): (1, 3), (4,): (2,)}) pickled by
    # protocols 0 to 5: rebuilt through the constructor from a plain dict
    TREE_PICKLES = (
        b'ccoalspec.rrt\nIncreasingTree\np0\n(ccopy_reg\n_reconstructor\np1\n(ccoalspe'
        b'c.partitions\nSetPartition\np2\nc__builtin__\nobject\np3\nNtp4\nRp5\n(lp6\n('
        b'(I1\nI3\ntp7\n(I2\ntp8\n(I4\ntp9\ntp10\nab(dp11\n(I2\ntp12\n(I1\nI3\ntp13\ns'
        b'(I4\ntp14\ng12\nstp15\nRp16\n.',
        b'ccoalspec.rrt\nIncreasingTree\nq\x00(ccopy_reg\n_reconstructor\nq\x01(ccoals'
        b'pec.partitions\nSetPartition\nq\x02c__builtin__\nobject\nq\x03Ntq\x04Rq\x05]'
        b'q\x06((K\x01K\x03tq\x07(K\x02tq\x08(K\x04tq\ttq\nab}q\x0b((K\x02tq\x0c(K'
        b'\x01K\x03tq\r(K\x04tq\x0eh\x0cutq\x0fRq\x10.',
        b'\x80\x02ccoalspec.rrt\nIncreasingTree\nq\x00ccoalspec.partitions\nSetPartiti'
        b'on\nq\x01)\x81q\x02]q\x03K\x01K\x03\x86q\x04K\x02\x85q\x05K\x04\x85q'
        b'\x06\x87q\x07ab}q\x08(K\x02\x85q\tK\x01K\x03\x86q\nK\x04\x85q\x0bh\tu\x86q'
        b'\x0cRq\r.',
        b'\x80\x03ccoalspec.rrt\nIncreasingTree\nq\x00ccoalspec.partitions\nSetPartiti'
        b'on\nq\x01)\x81q\x02]q\x03K\x01K\x03\x86q\x04K\x02\x85q\x05K\x04\x85q'
        b'\x06\x87q\x07ab}q\x08(K\x02\x85q\tK\x01K\x03\x86q\nK\x04\x85q\x0bh\tu\x86q'
        b'\x0cRq\r.',
        b'\x80\x04\x95y\x00\x00\x00\x00\x00\x00\x00\x8c\x0ccoalspec.rrt\x94\x8c\x0eInc'
        b'reasingTree\x94\x93\x94\x8c\x13coalspec.partitions\x94\x8c\x0cSetPartition'
        b'\x94\x93\x94)\x81\x94]\x94K\x01K\x03\x86\x94K\x02\x85\x94K'
        b'\x04\x85\x94\x87\x94ab}\x94(K\x02\x85\x94K\x01K\x03\x86\x94K\x04\x85\x94h\ru'
        b'\x86\x94R\x94.',
        b'\x80\x05\x95y\x00\x00\x00\x00\x00\x00\x00\x8c\x0ccoalspec.rrt\x94\x8c\x0eInc'
        b'reasingTree\x94\x93\x94\x8c\x13coalspec.partitions\x94\x8c\x0cSetPartition'
        b'\x94\x93\x94)\x81\x94]\x94K\x01K\x03\x86\x94K\x02\x85\x94K'
        b'\x04\x85\x94\x87\x94ab}\x94(K\x02\x85\x94K\x01K\x03\x86\x94K\x04\x85\x94h\ru'
        b'\x86\x94R\x94.',
    )

    def test_value_behaviour(self):
        tree = IncreasingTree(P("1,3|2|4"), {(2,): (1, 3), (4,): (2,)})
        assert repr(tree) == "IncreasingTree('1,3|2|4', 2 edges)"
        assert tree == IncreasingTree(labels=P("1,3|2|4"), parent={(4,): (2,), (2,): (1, 3)})
        assert tree.__eq__((tree.labels, tree.parent)) is NotImplemented
        assert hash(tree) == hash((tree.labels, frozenset(tree.parent.items())))
        assert not hasattr(tree, "__dict__")
        for field in ("labels", "parent"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(tree, field, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(tree, field)
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            tree.other = 1
        for protocol, data in enumerate(self.TREE_PICKLES):
            assert pickle.dumps(tree, protocol) == data, protocol
            assert pickle.loads(data) == tree
        for twin in (copy.copy(tree), copy.deepcopy(tree)):
            assert twin == tree and type(twin.parent) is type(tree.parent)

    def test_insertion_order_does_not_matter(self):
        pi = P("1|2|3|4")
        edges = [((2,), (1,)), ((3,), (1,)), ((4,), (2,))]
        a = IncreasingTree(pi, dict(edges))
        b = IncreasingTree(pi, dict(reversed(edges)))
        assert a == b and hash(a) == hash(b)

    def test_subtree_nodes(self):
        pi = P("1|2|3|4")
        t = IncreasingTree(pi, {(2,): (1,), (3,): (2,), (4,): (2,)})
        assert set(t.subtree_nodes((2,))) == {(2,), (3,), (4,)}
        assert t.subtree_nodes((4,)) == [(4,)]

    def test_to_json(self):
        t = IncreasingTree(P("1,3|2,4"), {(2, 4): (1, 3)})
        assert to_json(t) == {"labels": ["1,3", "2,4"], "parent": {"2,4": "1,3"}}

    def test_single_node_tree(self):
        t = IncreasingTree(P("1,2"), {})
        assert t.edge_count == 0
        assert t.non_root_nodes == ()


class TestEnumeration:
    def test_counts(self):
        for n in range(1, 6):
            trees = enumerate_increasing_trees(SetPartition.singletons(n))
            assert len(trees) == factorial(n - 1)
            assert len(set(trees)) == len(trees)
            for t in trees:
                assert t.labels == SetPartition.singletons(n)

    def test_non_singleton_blocks(self):
        trees = enumerate_increasing_trees(P("1,4|2|3,5"))
        assert len(trees) == 2
        parents = {tuple(sorted(t.parent.items())) for t in trees}
        assert parents == {
            (((2,), (1, 4)), ((3, 5), (1, 4))),
            (((2,), (1, 4)), ((3, 5), (2,))),
        }

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            enumerate_increasing_trees(SetPartition.singletons(10))
        with pytest.raises(SizeLimitError):
            enumerate_increasing_trees(SetPartition.singletons(2000))


class TestCutting:
    def test_cut_merges_subtree_into_parent(self):
        pi = P("1|2|3|4")
        t = IncreasingTree(pi, {(2,): (1,), (3,): (1,), (4,): (2,)})
        cut = cut_edge(t, (2,))
        assert cut.labels == P("1,2,4|3")
        assert dict(cut.parent) == {(3,): (1, 2, 4)}

    def test_cut_leaf(self):
        pi = P("1|2|3|4")
        t = IncreasingTree(pi, {(2,): (1,), (3,): (1,), (4,): (2,)})
        cut = cut_edge(t, (4,))
        assert cut.labels == P("1|2,4|3")
        assert dict(cut.parent) == {(2, 4): (1,), (3,): (1,)}

    def test_cut_reaches_one_block(self):
        t = IncreasingTree(
            P("1|2|3|4"), {(2,): (1,), (3,): (2,), (4,): (3,)}
        )
        while t.edge_count:
            t = cut_edge(t, t.non_root_nodes[0])
        assert t.labels == P("1,2,3,4")

    def test_single_merger_per_cut(self):
        lat_pi = P("1|2|3|4|5")
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = sample_rrt(lat_pi, rng)
            covers = set(merge_covers(t.labels))
            for node in t.non_root_nodes:
                assert cut_edge(t, node).labels in covers

    def test_every_cut_pinned_by_digest(self):
        # every edge of every tree on 1|2|3|4|5 and on 1,4|2|3,5, in order
        cuts = [
            to_json(cut_edge(t, v))
            for pi in (SetPartition.singletons(5), P("1,4|2|3,5"))
            for t in enumerate_increasing_trees(pi)
            for v in t.non_root_nodes
        ]
        assert len(cuts) == 100
        assert hashlib.sha256(json.dumps(cuts).encode()).hexdigest() == (
            "35dde859737ce6c9506192832610494fb494438cbb68d9bf64ef27cbf8c45c8a"
        )

    def test_invalid_edge(self):
        t = IncreasingTree(P("1|2"), {(2,): (1,)})
        with pytest.raises(ValueError):
            cut_edge(t, (1,))
        with pytest.raises(ValueError):
            cut_edge(t, (3,))
        with pytest.raises(ValueError):
            cut_random(IncreasingTree(P("1,2"), {}), np.random.default_rng(0))


class TestContainment:
    def test_trivial_cases(self):
        t = IncreasingTree(P("1|2|3"), {(2,): (1,), (3,): (2,)})
        assert contains(t, P("1|2|3"))
        assert contains(t, P("1,2,3"))
        assert contains(t, P("1|2,3"))
        assert not contains(t, P("1,3|2"))
        with pytest.raises(ValueError):
            contains(t, P("1|2"))

    def test_not_refining_is_never_contained(self):
        t = IncreasingTree(P("1,2|3|4"), {(3,): (1, 2), (4,): (3,)})
        assert not contains(t, P("1,3|2,4"))

    def test_four_singletons_example(self):
        # exactly the trees attaching block {4} to the root {1} admit a
        # cut sequence to 1,2,3|4
        rho = P("1,2,3|4")
        trees = enumerate_increasing_trees(P("1|2|3|4"))
        hits = [t for t in trees if contains(t, rho)]
        assert len(hits) == 2 == count_trees_containing(P("1|2|3|4"), rho)
        for t in hits:
            assert t.parent[(4,)] == (1,)

    def test_matches_cut_reachability(self, lattices):
        # the structural criterion equals brute-force reachability by cuts
        for n in (3, 4):
            lat = lattices[n]
            for t in enumerate_increasing_trees(SetPartition.singletons(n)):
                reach = reachable_labels(t)
                for rho in lat:
                    assert contains(t, rho) == (rho in reach)

    def test_matches_cut_reachability_coarse_blocks(self):
        pi = P("1,4|2|3,5")
        for t in enumerate_increasing_trees(pi):
            reach = reachable_labels(t)
            for rho in [P("1,2,4|3,5"), P("1,3,4,5|2"), P("1,4|2,3,5"),
                        P("1,2,3,4,5")]:
                assert contains(t, rho) == (rho in reach)

    def test_count_formula_vs_enumeration(self, lattices):
        from coalspec import coarsenings

        for n in (3, 4, 5):
            pi = SetPartition.singletons(n)
            trees = enumerate_increasing_trees(pi)
            for rho in coarsenings(pi):
                expect = count_trees_containing(pi, rho)
                assert sum(1 for t in trees if contains(t, rho)) == expect

    def test_count_equals_right_eigenvector(self, lattices, bs_triples):
        for n in (3, 4, 5):
            lat = lattices[n]
            for i, pi in enumerate(lat):
                p = len(pi)
                for j, rho in enumerate(lat):
                    cnt = count_trees_containing(pi, rho)
                    assert F(cnt, factorial(p - 1)) == bs_triples[n].R.get(i, j)

    def test_count_extremes(self):
        pi = P("1|2|3|4")
        assert count_trees_containing(pi, pi) == 6
        assert count_trees_containing(pi, P("1,2,3,4")) == 6
        assert count_trees_containing(P("1,2|3"), P("1,3|2")) == 0


class TestCutLaw:
    def test_uniform_cut_is_single_merger_jump_chain(self):
        # over all (tree, edge) pairs the cut labels follow the jump chain
        # of the multiple-merger coalescent with uniform merger measure
        for n in (3, 4, 5):
            pi = SetPartition.singletons(n)
            trees = enumerate_increasing_trees(pi)
            outcomes = Counter()
            total = 0
            for t in trees:
                for node in t.non_root_nodes:
                    outcomes[cut_edge(t, node).labels] += 1
                    total += 1
            rates = bs_rates(n)
            for rho, cnt in outcomes.items():
                k = n - len(rho) + 1
                assert F(cnt, total) == rates.rate(n, k) / rates.total_rate(n)
            # every single merger is reachable
            assert set(outcomes) == set(merge_covers(pi))

    def test_cut_preserves_conditional_uniformity(self):
        # conditioned on the resulting label partition, the cut tree is
        # uniform among increasing trees on that partition
        for n in (4, 5):
            pi = SetPartition.singletons(n)
            by_label = {}
            for t in enumerate_increasing_trees(pi):
                for node in t.non_root_nodes:
                    t2 = cut_edge(t, node)
                    by_label.setdefault(t2.labels, Counter())[t2] += 1
            for rho, counter in by_label.items():
                assert len(counter) == factorial(len(rho) - 1)
                assert len(set(counter.values())) == 1


class TestSampling:
    def test_reproducible(self):
        pi = P("1|2|3|4|5")
        a = sample_rrt(pi, np.random.default_rng(42))
        b = sample_rrt(pi, np.random.default_rng(42))
        assert a == b

    def test_seeded_trees_pinned_by_digest(self):
        trees = [
            to_json(sample_rrt(SetPartition.singletons(6), np.random.default_rng(s)))
            for s in range(10)
        ]
        assert hashlib.sha256(json.dumps(trees).encode()).hexdigest() == (
            "2263f07a7eded56d5957f4fbd6e21de91d50eb0d9a4ad2a56c33759d7e985c4d"
        )

    def test_uniformity(self):
        pi = P("1|2|3|4")
        rng = np.random.default_rng(2024)
        reps = 60000
        counts = Counter(sample_rrt(pi, rng) for _ in range(reps))
        assert set(counts) == set(enumerate_increasing_trees(pi))
        p = 1 / 6
        sigma = (reps * p * (1 - p)) ** 0.5
        for cnt in counts.values():
            assert abs(cnt - reps * p) < 3.5 * sigma

    def test_cut_random_matches_jump_rates(self):
        # sampled version of the exact cut law, one seed, loose 3.5 sigma band
        n, reps = 4, 40000
        pi = SetPartition.singletons(n)
        rng = np.random.default_rng(99)
        counts = Counter()
        for _ in range(reps):
            counts[cut_random(sample_rrt(pi, rng), rng).labels] += 1
        rates = bs_rates(n)
        for rho in merge_covers(pi):
            k = n - len(rho) + 1
            p = float(rates.rate(n, k) / rates.total_rate(n))
            sigma = (reps * p * (1 - p)) ** 0.5
            assert abs(counts[rho] - reps * p) < 3.5 * sigma
