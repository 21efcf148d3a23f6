"""Set partitions, the refinement order, and the full lattice on {1..n}.

``SetPartition`` is an immutable, hashable value type.  Its ground set may be
any finite set of positive integers, so restrictions of a partition of
``{1..n}`` to a block are first-class partitions as well.  ``pair_key(π, ρ)``
is the one refinement test: the key (|π|, |ρ|, restriction sizes) of every
closed form on the pair, or None unless π ≤ ρ.

``PartitionLattice`` enumerates all of P([n]) under a fixed linear extension
of refinement: partitions are sorted by decreasing block count, ties broken by
comparing the canonical block lists.  The all-singleton partition sits at
index 0 and the one-block partition last, so every refinement-supported matrix
indexed by the lattice is upper triangular.

Full-lattice enumeration is capped (Bell numbers grow fast); the default cap
of n = 8 can be overridden with the COALSPEC_N_CAP environment variable.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .combinatorics import bell

__all__ = [
    "SetPartition",
    "PartitionLattice",
    "SizeLimitError",
    "set_partitions",
    "pair_key",
    "restriction_sizes",
    "coarsenings",
    "merge_covers",
    "pair_covers",
    "interval",
    "count_maximal_chains",
    "lattice_cap",
    "DEFAULT_N_CAP",
    "ENV_N_CAP",
]

DEFAULT_N_CAP = 8
ENV_N_CAP = "COALSPEC_N_CAP"


class SizeLimitError(ValueError):
    """Raised when a full-lattice operation would exceed the configured cap."""


def lattice_cap() -> int:
    """Current cap for full-lattice enumeration (COALSPEC_N_CAP or 8)."""
    raw = os.environ.get(ENV_N_CAP)
    if raw is None:
        return DEFAULT_N_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_N_CAP} must be an integer, got {raw!r}") from exc


def _check_cap(n: int) -> None:
    """Raise SizeLimitError if P([n]) is beyond ``lattice_cap()``."""
    limit = lattice_cap()
    if n > limit:
        raise SizeLimitError(
            f"P([{n}]) has bell({n}) = {bell(n)} elements, beyond the cap "
            f"{limit}; raise {ENV_N_CAP}"
        )


class SetPartition:
    """An unordered partition of a finite set of positive integers.

    Blocks are stored canonically: each block as a sorted tuple, blocks sorted
    by their minima.  Instances are immutable and hashable.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        canon = []
        seen: set[int] = set()
        for raw in blocks:
            block = tuple(sorted(raw))
            if not block:
                raise ValueError("blocks must be nonempty")
            for e in block:
                if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                    raise ValueError(f"elements must be positive integers, got {e!r}")
                if e in seen:
                    raise ValueError(f"element {e} appears in more than one block")
                seen.add(e)
            canon.append(block)
        if not canon:
            raise ValueError("a partition needs at least one block")
        canon.sort(key=lambda b: b[0])
        object.__setattr__(self, "_blocks", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @classmethod
    def singletons(cls, items: int | Iterable[int]) -> "SetPartition":
        """The all-singleton partition of {1..n} (int arg) or of any int set."""
        ground = range(1, items + 1) if isinstance(items, int) else items
        return cls([(e,) for e in ground])

    @classmethod
    def whole(cls, items: int | Iterable[int]) -> "SetPartition":
        """The one-block partition of {1..n} (int arg) or of any int set."""
        ground = range(1, items + 1) if isinstance(items, int) else items
        return cls([tuple(ground)])

    @classmethod
    def from_string(cls, text: str) -> "SetPartition":
        """Parse the canonical encoding, e.g. ``"1,3|2|4"``."""
        try:
            blocks = [[int(tok) for tok in part.split(",")] for part in text.split("|")]
        except ValueError as exc:
            raise ValueError(f"cannot parse partition string {text!r}") from exc
        return cls(blocks)

    def to_string(self) -> str:
        """Canonical encoding: blocks sorted by min, ``"1,3|2|4"``."""
        return "|".join(",".join(str(e) for e in b) for b in self._blocks)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    @property
    def n(self) -> int:
        """Size of the ground set."""
        return sum(len(b) for b in self._blocks)

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(sorted(e for b in self._blocks for e in b))

    @property
    def sort_key(self):
        """Linear-extension key: decreasing block count, then canonical blocks."""
        return (-len(self._blocks), self._blocks)

    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of ``other``."""
        if not isinstance(other, SetPartition):
            raise TypeError("refinement compares two SetPartitions")
        return pair_key(self, other) is not None

    def restrict(self, subset: Iterable[int]) -> "SetPartition":
        """The induced partition {C ∩ B : C a block, C ∩ B nonempty} of B."""
        wanted = set(subset)
        if not wanted:
            raise ValueError("restriction subset must be nonempty")
        if not wanted <= set(self.ground):
            raise ValueError("restriction subset must lie inside the ground set")
        pieces = []
        for block in self._blocks:
            piece = tuple(e for e in block if e in wanted)
            if piece:
                pieces.append(piece)
        return SetPartition(pieces)

    def __eq__(self, other) -> bool:
        return isinstance(other, SetPartition) and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.to_string()!r})"


def _owners(pi: SetPartition) -> dict[int, int]:
    """Element -> index of its block, blocks numbered by their minima."""
    owner = {}
    for idx, block in enumerate(pi.blocks):
        for e in block:
            owner[e] = idx
    return owner


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """Generate all set partitions of ``items`` as lists of lists.

    Works for any hashable items (integers, or whole blocks when building
    coarsenings).  Yields exactly bell(len(items)) partitions.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def pair_key(pi: SetPartition, rho: SetPartition) -> tuple | None:
    """(|π|, |ρ|, sizes) for π ≤ ρ, None when π is not finer than ρ.

    sizes[b] = |restrict(π, B)| for the b-th block B of ``rho.blocks``, so
    this is the key ``PartitionLattice.comparable_pairs`` yields for the pair.
    One pass over π's elements; ValueError when the ground sets differ.
    """
    owner = _owners(rho)
    sizes = [0] * len(rho.blocks)
    finer, seen = True, 0
    try:
        for block in pi.blocks:
            b = owner[block[0]]
            sizes[b] += 1
            seen += len(block)
            for e in block:
                if owner[e] != b:
                    finer = False
    except KeyError:
        raise ValueError("partitions live on different ground sets") from None
    if seen != len(owner):  # π's elements are distinct and all owned by ρ
        raise ValueError("partitions live on different ground sets")
    return (len(pi.blocks), len(rho.blocks), tuple(sizes)) if finer else None


def restriction_sizes(pi: SetPartition, rho: SetPartition) -> list[int]:
    """For π ≤ ρ, the block counts |restrict(π, B)| for each block B of ρ.

    Ordered like ``rho.blocks``.  These counts drive every product formula.
    """
    key = pair_key(pi, rho)
    if key is None:
        raise ValueError("restriction sizes require π ≤ ρ")
    return list(key[2])


def coarsenings(pi: SetPartition) -> Iterator[SetPartition]:
    """All ρ with π ≤ ρ, generated by grouping the blocks of π."""
    for grouping in set_partitions(list(pi.blocks)):
        merged = [tuple(sorted(e for blk in group for e in blk)) for group in grouping]
        yield SetPartition(merged)


def _groupings(p: int) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Every grouping of range(p) as (group of each item, group count, group
    sizes), groups numbered by their least items (a restricted growth string)."""
    out = []
    for grouping in set_partitions(range(p)):
        groups = sorted(grouping, key=min)
        label = [0] * p
        for g, members in enumerate(groups):
            for b in members:
                label[b] = g
        out.append((tuple(label), len(groups), tuple(len(m) for m in groups)))
    return out


def merge_covers(pi: SetPartition) -> list[SetPartition]:
    """All ρ obtained from π by merging one subset of ≥ 2 blocks.

    These are the states reachable in a single multiple merger; there are
    2^|π| - |π| - 1 of them.  Deterministic order (by block-subset bitmask).
    """
    blocks = pi.blocks
    m = len(blocks)
    out = []
    for mask in range(3, 1 << m):
        chosen = [k for k in range(m) if mask >> k & 1]
        if len(chosen) < 2:
            continue
        chosen_set = set(chosen)
        merged = tuple(sorted(e for k in chosen for e in blocks[k]))
        rest = [blocks[k] for k in range(m) if k not in chosen_set]
        out.append(SetPartition([merged] + rest))
    return out


def pair_covers(pi: SetPartition) -> list[SetPartition]:
    """All ρ obtained from π by merging exactly one pair of blocks.

    These are the covers of π in the partition lattice; there are C(|π|, 2).
    """
    blocks = pi.blocks
    out = []
    for a, b in combinations(range(len(blocks)), 2):
        merged = tuple(sorted(blocks[a] + blocks[b]))
        rest = [blocks[k] for k in range(len(blocks)) if k != a and k != b]
        out.append(SetPartition([merged] + rest))
    return out


def interval(pi: SetPartition, rho: SetPartition) -> list[SetPartition]:
    """All σ with π ≤ σ ≤ ρ: the coarsenings of π that refine ρ.

    Sorted in the lattice's linear extension order.
    """
    if not pi.refines(rho):
        raise ValueError("interval requires π ≤ ρ")
    out = [sigma for sigma in coarsenings(pi) if sigma.refines(rho)]
    out.sort(key=lambda p: p.sort_key)
    return out


def count_maximal_chains(pi: SetPartition, rho: SetPartition) -> int:
    """Number of maximal chains in [π, ρ].

    Closed form 2^(|ρ|-|π|) (|π|-|ρ|)! ∏_B |restrict(π, B)|!, always an
    integer.
    """
    key = pair_key(pi, rho)
    if key is None:
        raise ValueError("maximal chains require π ≤ ρ")
    p, r, sizes = key
    num = factorial(p - r)
    for s in sizes:
        num *= factorial(s)
    den = 1 << (p - r)
    if num % den:
        raise ArithmeticError("chain count was not an integer; formula misapplied")
    return num // den


class PartitionLattice:
    """All of P([n]) in a fixed linear extension of the refinement order.

    elements[0] is the all-singleton partition, elements[-1] the one-block
    partition; whenever π < ρ the index of π is strictly smaller.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("the lattice needs n >= 1")
        _check_cap(n)
        elements = [SetPartition(p) for p in set_partitions(list(range(1, n + 1)))]
        elements.sort(key=lambda p: p.sort_key)
        self.n = n
        self.elements = elements
        self._index = {p: i for i, p in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SetPartition]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> SetPartition:
        return self.elements[i]

    def index_of(self, pi: SetPartition) -> int:
        try:
            return self._index[pi]
        except KeyError:
            raise ValueError(f"{pi!r} is not a partition of [{self.n}]") from None

    @property
    def bottom(self) -> SetPartition:
        return self.elements[0]

    @property
    def top(self) -> SetPartition:
        return self.elements[-1]

    def with_block_count(self, k: int) -> list[SetPartition]:
        return [p for p in self.elements if len(p) == k]

    def owner_labels(self) -> list[tuple[int, ...]]:
        """Each partition as the block index of 1..n in turn, blocks numbered
        by their minima (a restricted growth string).  Built per call."""
        ground = range(1, self.n + 1)
        return [tuple(map(_owners(pi).__getitem__, ground)) for pi in self.elements]

    def comparable_pairs(self) -> Iterator[tuple[int, int, tuple]]:
        """Yield (i, j, key) for every π = self[i] ≤ ρ = self[j], i then j ascending.

        key = ``pair_key(π, ρ)``, sizes ordered like ``rho.blocks`` (unsorted:
        float products taken in that order keep their bits); every closed
        form on a pair is a function of it.  No partition is built: a
        grouping of π's blocks, as a restricted growth string g, sends π's
        label to ρ's label g[label], already in first-appearance order since
        π's blocks are numbered by their minima.  Nothing outlives the walk.
        """
        labels = self.owner_labels()
        index = {label: i for i, label in enumerate(labels)}
        groupings: dict[int, list] = {}
        for i, label in enumerate(labels):
            p = len(self.elements[i])
            if p not in groupings:
                groupings[p] = _groupings(p)
            row = sorted(
                (index[tuple(map(g.__getitem__, label))], r, sizes)
                for g, r, sizes in groupings[p]
            )
            for j, r, sizes in row:
                yield i, j, (p, r, sizes)
