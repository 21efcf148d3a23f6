"""Increasing trees on the blocks of a partition: sampling, cutting, containment.

An increasing tree on π has the blocks of π as nodes, the block containing
the smallest ground element as root, and block minima increasing along every
root-to-leaf path.  There are (|π| - 1)! of them, and the uniform one is
produced by attaching blocks in order of their minima to a uniformly chosen
earlier node (the random recursive tree construction).

Cutting the edge below a node removes that node's whole subtree and merges
all of its labels into the node below the edge, coarsening the label
partition by one merger.  A tree T "contains" a coarser partition ρ when
some sequence of cuts turns T into a tree on ρ; equivalently, for every block
B of ρ the nodes labelled inside B form a connected region whose top node
carries min B, and foreign subtrees hang only off region tops.  Exactly

    (|ρ| - 1)! ∏_B (|restrict(π, B)| - 1)!

of the (|π| - 1)! trees on π contain ρ, so the containment probability of a
uniform tree is the right-eigenvector entry r(π, ρ) of the
Bolthausen-Sznitman generator.
"""

from __future__ import annotations

from itertools import product
from math import factorial
from types import MappingProxyType
from typing import Mapping

from .partitions import SetPartition, SizeLimitError, _owners, pair_key

__all__ = [
    "IncreasingTree",
    "sample_rrt",
    "enumerate_increasing_trees",
    "cut_edge",
    "cut_random",
    "contains",
    "count_trees_containing",
]

Block = tuple[int, ...]

ENUMERATION_CAP = 9


class IncreasingTree:
    """An increasing tree on the blocks of a partition.

    ``parent`` maps every non-root block to its parent block; the root is the
    block holding the smallest ground element.  Instances are immutable and
    hashable (usable as counter keys in distribution tests).
    """

    __slots__ = ("_labels", "_parent")

    def __init__(self, labels: SetPartition, parent: Mapping[Block, Block]):
        blocks = labels.blocks
        root = blocks[0]
        if set(parent) != set(blocks[1:]):
            raise ValueError("parent map must cover exactly the non-root blocks")
        for child, par in parent.items():
            if par not in set(blocks):
                raise ValueError(f"parent {par!r} is not a block of the partition")
            if par[0] >= child[0]:
                raise ValueError(
                    f"minima must increase along edges: {par!r} -> {child!r}"
                )
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_parent", dict(parent))

    def __setattr__(self, name, value):
        raise AttributeError("IncreasingTree is immutable")

    @property
    def labels(self) -> SetPartition:
        """The label partition p(T)."""
        return self._labels

    @property
    def root(self) -> Block:
        return self._labels.blocks[0]

    @property
    def parent(self) -> Mapping[Block, Block]:
        return MappingProxyType(self._parent)

    @property
    def nodes(self) -> tuple[Block, ...]:
        return self._labels.blocks

    @property
    def non_root_nodes(self) -> tuple[Block, ...]:
        """Nodes identifying the |π| - 1 edges (each edge named by its upper node)."""
        return self._labels.blocks[1:]

    @property
    def edge_count(self) -> int:
        return len(self._labels) - 1

    def children_map(self) -> dict[Block, list[Block]]:
        kids: dict[Block, list[Block]] = {b: [] for b in self.nodes}
        for child, par in self._parent.items():
            kids[par].append(child)
        return kids

    def subtree_nodes(self, node: Block) -> list[Block]:
        """The node together with all of its descendants."""
        kids = self.children_map()
        out = []
        stack = [node]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(kids[v])
        return out

    def to_json(self) -> dict:
        """Serializable form: block labels plus the parent map, as strings."""
        label = lambda b: ",".join(str(e) for e in b)
        return {
            "labels": [label(b) for b in self.nodes],
            "parent": {label(c): label(p) for c, p in sorted(self._parent.items())},
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IncreasingTree)
            and self._labels == other._labels
            and self._parent == other._parent
        )

    def __hash__(self) -> int:
        return hash((self._labels, frozenset(self._parent.items())))

    def __repr__(self) -> str:
        return f"IncreasingTree({self._labels.to_string()!r}, {self.edge_count} edges)"


def sample_rrt(pi: SetPartition, rng) -> IncreasingTree:
    """Uniform increasing tree on π via sequential uniform attachment.

    Blocks are attached in increasing order of their minima, each to a node
    chosen uniformly among those already present; ``rng`` is a
    numpy.random.Generator.
    """
    blocks = pi.blocks
    parent: dict[Block, Block] = {}
    for k in range(1, len(blocks)):
        parent[blocks[k]] = blocks[int(rng.integers(0, k))]
    return IncreasingTree(pi, parent)


def enumerate_increasing_trees(pi: SetPartition) -> list[IncreasingTree]:
    """All (|π| - 1)! increasing trees on π, in a deterministic order."""
    m = len(pi)
    if m > ENUMERATION_CAP:
        raise SizeLimitError(
            f"enumerating ({m - 1})! trees on {m} blocks exceeds the cap "
            f"of {ENUMERATION_CAP} blocks"
        )
    blocks = pi.blocks
    out = []
    for choices in product(*(range(k) for k in range(1, m))):
        parent = {blocks[k]: blocks[choices[k - 1]] for k in range(1, m)}
        out.append(IncreasingTree(pi, parent))
    return out


def cut_edge(tree: IncreasingTree, node: Block) -> IncreasingTree:
    """Cut the edge below ``node``: its subtree's labels merge into its parent.

    The resulting tree lives on a partition one merger coarser; minima keep
    increasing because every removed label has a larger minimum than the
    absorbing node.
    """
    if node == tree.root or node not in tree.parent:
        raise ValueError(f"{node!r} does not name an edge of the tree")
    removed = set(tree.subtree_nodes(node))
    base = tree.parent[node]
    merged = tuple(sorted(
        [e for e in base] + [e for blk in removed for e in blk]
    ))
    new_blocks = [merged if b == base else b
                  for b in tree.nodes if b not in removed]
    relabel = lambda b: merged if b == base else b
    new_parent: dict[Block, Block] = {}
    for child, par in tree.parent.items():
        if child in removed or child == base:
            continue
        new_parent[child] = relabel(par)
    if base != tree.root:
        new_parent[merged] = tree.parent[base]
    return IncreasingTree(SetPartition(new_blocks), new_parent)


def cut_random(tree: IncreasingTree, rng) -> IncreasingTree:
    """Cut a uniformly random edge (numpy Generator ``rng``)."""
    edges = tree.non_root_nodes
    if not edges:
        raise ValueError("a single-node tree has no edge to cut")
    return cut_edge(tree, edges[int(rng.integers(0, len(edges)))])


def contains(tree: IncreasingTree, rho: SetPartition) -> bool:
    """True iff some sequence of edge cuts turns ``tree`` into a tree on ρ.

    Structural criterion: label every node by the ρ-block it sits in; then
    every edge must either stay inside one ρ-region or run from a region's
    top node (the node holding the region's minimum) to another region's top
    node.  Cuts can only collapse a region from above, and a foreign subtree
    survives the collapse only if it hangs off the region's top.
    """
    pi = tree.labels
    if pair_key(pi, rho) is None:
        return False
    region = _owners(rho.blocks)
    # a region's top is the π-block holding min B, so its own min is min B
    tops = {B[0] for B in rho.blocks}
    return all(
        region[child[0]] == region[par[0]] or (child[0] in tops and par[0] in tops)
        for child, par in tree.parent.items()
    )


def count_trees_containing(pi: SetPartition, rho: SetPartition) -> int:
    """Number of increasing trees on π that contain ρ.

    Closed form (|ρ| - 1)! ∏_B (|restrict(π, B)| - 1)!; dividing by the
    total (|π| - 1)! gives the Bolthausen-Sznitman right-eigenvector entry.
    Returns 0 when π is not finer than ρ.
    """
    key = pair_key(pi, rho)
    if key is None:
        return 0
    _, r, sizes = key
    out = factorial(r - 1)
    for s in sizes:
        out *= factorial(s - 1)
    return out
