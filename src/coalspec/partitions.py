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
from functools import cache
from itertools import combinations, product
from math import factorial
from typing import Iterable, Iterator, Sequence

from . import _EXPORTS
from .combinatorics import bell

__all__ = list(_EXPORTS["partitions"])

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
        k = max(limit + 1, 0)  # bell(k) <= bell(n), at a cost that n does not set
        raise SizeLimitError(
            f"P([{n}]) has at least bell({k}) = {bell(k)} elements, beyond the "
            f"cap {limit}; raise {ENV_N_CAP}"
        )


class _Frozen:
    """A frozen value of the fields ``__match_args__``, in that order, which
    its constructor sets once: compared, hashed and shown by them, as
    ``dataclass(frozen=True)`` makes such a class, and pickled and copied by
    its ``__dict__`` as that class is, to the same bytes.  Assigning or
    deleting an attribute raises ``AttributeError``.  The base of
    ``spectral``'s triple and report and of ``simulate.Trajectory``; it lives
    here as both modules import this one.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"


# a partition as canonical block tuples: each block sorted, blocks by their minima
Blocks = tuple[tuple[int, ...], ...]


class SetPartition:
    """An unordered partition of a finite set of positive integers.

    Blocks are stored canonically: each block as a sorted tuple, blocks sorted
    by their minima.  A frozen value: hashable, and it pickles and copies;
    its one slot, ``blocks``, is set once by the constructor or by
    ``__setstate__``, and assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __slots__ = ("blocks",)

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
        object.__setattr__(self, "blocks", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.blocks == other.blocks
        return NotImplemented

    def __getstate__(self) -> list:
        return [self.blocks]

    def __setstate__(self, state: list) -> None:
        object.__setattr__(self, "blocks", state[0])

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
        return "|".join([",".join(map(str, b)) for b in self.blocks])

    @property
    def n(self) -> int:
        """Size of the ground set."""
        return sum(len(b) for b in self.blocks)

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(sorted(e for b in self.blocks for e in b))

    @property
    def sort_key(self):
        """Linear-extension key: decreasing block count, then canonical blocks."""
        return (-len(self.blocks), self.blocks)

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
        for block in self.blocks:
            piece = tuple(e for e in block if e in wanted)
            if piece:
                pieces.append(piece)
        return SetPartition(pieces)

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.to_string()!r})"


def _canonical(blocks: Blocks) -> SetPartition:
    """The SetPartition of ``blocks``, which must already be canonical
    (sorted tuples, ordered by their minima), built without the check."""
    pi = object.__new__(SetPartition)
    object.__setattr__(pi, "blocks", blocks)
    return pi


def _owners(blocks: Blocks) -> dict[int, int]:
    """Element -> index of its block, blocks numbered by their minima."""
    return {e: idx for idx, block in enumerate(blocks) for e in block}


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
    this is the key ``PartitionLattice.comparable_rows`` yields for the pair.
    One pass over π's elements; ValueError when the ground sets differ.
    """
    return _block_key(pi.blocks, rho.blocks)


def _block_key(fine: Blocks, coarse: Blocks) -> tuple | None:
    """``pair_key`` on the canonical block tuples of π and ρ: the one pass."""
    owner = _owners(coarse)
    sizes = [0] * len(coarse)
    finer, seen = True, 0
    try:
        for block in fine:
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
    return (len(fine), len(coarse), tuple(sizes)) if finer else None


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
        yield SetPartition([e for blk in group for e in blk] for group in grouping)


def _growth_strings(p: int) -> list[tuple[tuple[int, ...], tuple]]:
    """Every partition of [p] as its owner label (a restricted growth string,
    groups numbered by their least items) and its canonical blocks: the
    elements of P([p]), and the groupings of p blocks."""
    level = [((), ())]
    for e in range(1, p + 1):  # e opens a new block, or joins block g
        level = [(label + (len(blocks),), blocks + ((e,),)) for label, blocks in level] + [
            (label + (g,), (*blocks[:g], (*blocks[g], e), *blocks[g + 1:]))
            for label, blocks in level for g in range(len(blocks))
        ]
    return level


@cache
def _groupings(p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple, ...]]:
    """Every grouping of p blocks, read by column: for each block k, its group
    in every grouping; and each grouping's pair key (p, group count, group sizes)."""
    table = _growth_strings(p)
    return (
        tuple(zip(*(g for g, _ in table))),
        tuple((p, len(b), tuple(map(len, b))) for _, b in table),
    )


def merge_covers(pi: SetPartition) -> list[SetPartition]:
    """All ρ obtained from π by merging one subset of ≥ 2 blocks.

    These are the states reachable in a single multiple merger; there are
    2^|π| - |π| - 1 of them.  Deterministic order (by block-subset bitmask).
    """
    blocks = pi.blocks
    m = len(blocks)
    out = []
    for mask in range(3, 1 << m):
        if mask & (mask - 1):  # at least two blocks chosen
            merged = [e for k in range(m) if mask >> k & 1 for e in blocks[k]]
            rest = [blocks[k] for k in range(m) if not mask >> k & 1]
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

    Each σ groups the blocks of π that lie in one block of ρ, so σ is one
    grouping per block of ρ and the work is |[π, ρ]|, not bell(|π|).
    Sorted in the lattice's linear extension order.
    """
    if not pi.refines(rho):
        raise ValueError("interval requires π ≤ ρ")
    owner = _owners(rho.blocks)
    within: list[list[tuple[int, ...]]] = [[] for _ in rho.blocks]
    for block in pi.blocks:
        within[owner[block[0]]].append(block)
    out = []
    for groupings in product(*(set_partitions(blocks) for blocks in within)):
        out.append(SetPartition(
            [e for blk in group for e in blk] for grouping in groupings for group in grouping
        ))
    out.sort(key=lambda p: p.sort_key)
    return out


def count_maximal_chains(pi: SetPartition, rho: SetPartition) -> int:
    """Number of maximal chains in [π, ρ].

    Closed form 2^(|ρ|-|π|) (|π|-|ρ|)! ∏_B |restrict(π, B)|!: the count of
    maximal chains in ∏_B P(|restrict(π, B)|), so always an integer.
    """
    key = pair_key(pi, rho)
    if key is None:
        raise ValueError("maximal chains require π ≤ ρ")
    p, r, sizes = key
    num = factorial(p - r)
    for s in sizes:
        num *= factorial(s)
    return num >> (p - r)


class PartitionLattice:
    """All of P([n]) in a fixed linear extension of the refinement order, built
    once with one index, keyed by owner label.  elements[0] is the
    all-singleton partition, elements[-1] the one-block partition; whenever
    π < ρ the index of π is strictly smaller.
    """

    _kept: list | None = None  # the walk, once ``_kept_rows()`` has kept it

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("the lattice needs n >= 1")
        _check_cap(n)
        # the sort_key order; no two elements tie
        made = sorted((-len(b), b, label) for label, b in _growth_strings(n))
        self.n = n
        self.elements = [_canonical(blocks) for _, blocks, _ in made]
        # owner label -> index; its keys, in lattice order, are the label table
        self._index = {label: i for i, (_, _, label) in enumerate(made)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SetPartition]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> SetPartition:
        return self.elements[i]

    def index_of(self, pi: SetPartition) -> int:
        owner = _owners(pi.blocks)
        i = self._index.get(tuple(map(owner.get, range(1, self.n + 1))))
        if i is None or len(owner) != self.n:
            raise ValueError(f"{pi!r} is not a partition of [{self.n}]")
        return i

    @property
    def bottom(self) -> SetPartition:
        return self.elements[0]

    @property
    def top(self) -> SetPartition:
        return self.elements[-1]

    def __getstate__(self) -> dict:
        """The lattice without its kept walk, which the copy makes again on
        demand: a walked lattice pickles to the bytes of a fresh one."""
        state = self.__dict__.copy()
        state.pop("_kept", None)
        return state

    def comparable_rows(self) -> Iterator[tuple[int, tuple[int, ...], tuple[tuple, ...]]]:
        """Yield (i, js, keys) for every π = self[i], i ascending: js the
        indices of the ρ ≥ π, ascending, and keys[k] = ``pair_key(π, self[js[k]])``.

        Sizes in a key are ordered like ``rho.blocks`` (unsorted: float
        products taken in that order keep their bits); every closed form on
        a pair is a function of its key.  When a matrix build has kept the
        walk on the lattice (``_kept_rows``), its rows are read back;
        otherwise the lattice is walked a row at a time and nothing of the
        walk is kept, so a pair table holds one row.
        """
        return self._walk() if self._kept is None else iter(self._kept)

    def _kept_rows(self) -> list[tuple[int, tuple[int, ...], tuple[tuple, ...]]]:
        """Every row of ``comparable_rows()``, from one walk kept on the lattice.

        The generator, the lattice triples, the support certificate and the
        verify suite read their pairs from here, so a lattice is walked once
        for all of them.  The first call walks; a copy or pickle of the
        lattice leaves the walk behind.  The js of a row are the column
        tuples R and L store, and rows with equal keys share one keys tuple
        (P([8]) has 4,140 rows and 245 distinct keys tuples), so keeping the
        walk costs little more than the list, and a builder can compute its
        row values once per keys tuple.
        """
        if self._kept is None:
            shared: dict[tuple, tuple] = {}
            self._kept = [
                (i, js, shared.setdefault(keys, keys)) for i, js, keys in self._walk()
            ]
        return self._kept

    def _walk(self) -> Iterator[tuple[int, tuple[int, ...], tuple[tuple, ...]]]:
        """The walk behind ``comparable_rows()``, one row at a time.

        No partition is built: a grouping of π's blocks, as a restricted
        growth string g, sends π's label to ρ's label g[label], already in
        first-appearance order since π's blocks are numbered by their
        minima.  With the groupings of p blocks read by column,
        ``zip(*map(cols.__getitem__, label))`` is every coarse label of the
        row, and the lattice's label -> index dict maps them to j in one
        ``map``.  The columns are built once per p.
        """
        index = self._index
        for i, label in enumerate(index):
            cols, keys = _groupings(len(self.elements[i]))
            js = map(index.__getitem__, zip(*map(cols.__getitem__, label)))
            js, keys = zip(*sorted(zip(js, keys)))  # the js are distinct
            yield i, js, keys
