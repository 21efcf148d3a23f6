"""Seeded Monte Carlo simulators for both coalescents, with validation estimators.

The Bolthausen-Sznitman path is simulated exclusively through the random
recursive tree construction: sample a uniform increasing tree on the
singletons, equip each edge with an exponential clock, and cut a uniformly
random edge at each ring (with b blocks the tree has b - 1 edges, so jumps
occur at total rate b - 1 and the label partition performs the coalescent).
The tree is held as an int parent array, node k holding element k + 1, and
each cut merges a subtree's labels into its parent on plain int tuples; it
makes the draws ``sample_rrt`` and ``cut_random`` make on an
``IncreasingTree``.  The Kingman path merges a uniform pair of blocks at rate
C(b, 2).

Each model's jump rule is written once, as a small object built per n
(``_RULES``): ``start(below)`` gives the first state's key and blocks, the
BS tree drawn by ``_bs_tree`` through the caller's bounded draws
``below(m)``; ``step(key, blocks, k)`` makes the jump draw k picks, by
``_bs_cut`` or ``_kingman_merge``; ``rate(b)`` is the total rate with b
blocks.  Two consumers walk it.  ``simulate_bs``/``simulate_kingman`` step
it directly and hold only the path, which ``Trajectory`` checks jump by
jump with ``pair_key``'s pass on the block tuples.

``estimate_transition`` makes the same draws in the same order but steps
every replicate through a table that lasts one run: each distinct state gets
an int id holding its rate, its canonical blocks and its successors, filled
on first use by the model's rule (Kingman states are keyed by their
blocks, BS states by the drawn tree and its surviving nodes).  A repeated
jump costs one exponential clock, one bounded draw and one list index.  The
estimator checks the time of every jump, before the horizon test, and runs
the pass when a jump is first filled, once per distinct pair of partition
ids; final states are counted by partition id and read out by the block
tuples of the lattice's own partitions.

Replicate streams: replicate i of a run with seed s draws from
``numpy.random.default_rng((s, i))``, so runs are reproducible and
replicates are independent and order-insensitive.  The estimators do not
build one generator per replicate: ``_replicate_streams`` hashes the
``SeedSequence((s, i))`` entropy of 1024 replicates at a time in vectorised
uint32 arithmetic, derives each PCG64 state from it as ``PCG64`` seeds
itself, and sets that state on one reused ``Generator``.  The streams are
the same, draw for draw; ``replicate_rng`` is the reference they are tested
against.  ``estimate_transition`` also makes its bounded draws (a tree's
parents, the cut edge, the Kingman pair) from the raw stream: ``_raw_below``
gives what ``Generator.integers(0, m)`` gives from a state with no buffered
half, by Lemire's method on PCG64's 32-bit halves (low half first, high half
kept for the next draw), as numpy >= 1.24 does.  The public
``simulate_bs``/``simulate_kingman`` accept any ``Generator`` and draw
through ``Generator.integers`` (``_integers_below``).

Estimators return exact empirical fractions (count/reps) so the estimated
law sums to exactly 1, alongside float binomial standard errors
sqrt(p(1-p)/reps).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, sqrt
from operator import index
from typing import TYPE_CHECKING, Callable, Iterator

from .partitions import Blocks, PartitionLattice, SetPartition, _block_key

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Trajectory",
    "simulate_bs",
    "simulate_kingman",
    "estimate_transition",
    "estimate_containment",
    "replicate_rng",
]


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: jump times and the state per epoch.

    ``states`` has one more entry than ``times``; ``states[k]`` is the state
    on [times[k-1], times[k]) with times[-1] read as 0.  Jump times are
    finite and increase strictly from 0, and states strictly coarsen at every
    jump.
    """

    times: tuple[float, ...]
    states: tuple[SetPartition, ...]

    def __post_init__(self):
        if len(self.states) != len(self.times) + 1:
            raise ValueError("need exactly one state per epoch")
        prev = 0.0
        for t, a, b in zip(self.times, self.states, self.states[1:]):
            _check_jump(prev, t, a.blocks, b.blocks)
            prev = t

    def state_at(self, t: float) -> SetPartition:
        """The state occupied at time t (right-continuous)."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        if not t < inf:
            raise ValueError("time must be finite")
        return self.states[bisect_right(self.times, t)]

    @property
    def final(self) -> SetPartition:
        return self.states[-1]


def _check_jump(prev: float, t: float, fine: Blocks, coarse: Blocks) -> None:
    """Raise ValueError unless the jump fine -> coarse at time t is legal.

    ``prev`` is the previous jump time (0 at the first jump); t must be
    finite and later, and ``coarse`` must strictly coarsen ``fine``: the
    pair has a key (the same ground set, fine ≤ coarse) with fewer blocks.
    """
    _check_time(prev, t)
    try:
        key = _block_key(fine, coarse)
    except ValueError:
        key = None
    if key is None or key[1] >= key[0]:
        raise ValueError("states must coarsen strictly at each jump")


def _check_time(prev: float, t: float) -> None:
    """Raise ValueError unless t is finite and later than ``prev``."""
    if not prev < t < inf:
        raise ValueError("jump times must be finite and increase strictly from 0")


def replicate_rng(seed: int, i: int) -> np.random.Generator:
    """The documented per-replicate stream: PCG64 seeded from (seed, i)."""
    import numpy as np

    return np.random.default_rng((seed, i))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# 32-bit words, hashmix constants A for the pool, B for generate_state
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_2_32 = 1 << 32
# PCG64's 128-bit LCG: state <- state * multiplier + inc
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# replicates hashed per batch; 2**32 is a multiple, so the index i has the
# same number of 32-bit words across a batch
_CHUNK = 1024


def _words(x: int) -> list[int]:
    """x as SeedSequence reads an int: little-endian 32-bit words, 0 as [0]."""
    x = index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _generate_state(seed_words: list[int], i: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, i)).generate_state(8, uint32)`` for every i at once.

    ``seed_words`` is ``_words(seed)`` and ``i`` a uint64 array of indices that
    share one word count (none below 2**32 with one above).  Returns the 8
    output words as uint32 arrays; every step acts elementwise on the batch,
    wrapping mod 2**32 as numpy's C code does.
    """
    import numpy as np

    entropy = [np.full(len(i), w, dtype=np.uint32) for w in seed_words]
    entropy.append((i & np.uint64(_MASK32)).astype(np.uint32))
    if i[0] > _MASK32:
        entropy.append((i >> np.uint64(32)).astype(np.uint32))
    shift = np.uint32(_XSHIFT)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> shift)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> shift)

    zero = np.zeros(len(i), dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    out = []
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        out.append(value ^ (value >> shift))
    return out


def _replicate_streams(seed: int, reps: int) -> Iterator[np.random.Generator]:
    """``replicate_rng(seed, i)`` for i in range(reps), as one reused Generator.

    Yields the same generator once per replicate, each time in the state
    ``default_rng((seed, i))`` starts in; a replicate's draws must be done
    before the next one is taken.  Per batch of ``_CHUNK`` replicates the
    SeedSequence hash runs vectorised; per replicate PCG64's seeding
    (``pcg_setseq_128_srandom_r``) runs on Python ints: inc = 2 initseq + 1,
    then step, add initstate, step.  The two numbers go into one state dict,
    refilled in place for every replicate, that the bit generator's setter
    reads.
    """
    import numpy as np

    seed_words = _words(seed)
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 1}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start in range(0, reps, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, reps), dtype=np.uint64)
        words = np.stack(_generate_state(seed_words, i), axis=1)
        # as generate_state(4, uint64) reads them: 32-bit words 2k, 2k + 1 are
        # the 64-bit word k, little-endian; PCG64 takes words 0, 1 as the high
        # and low halves of initstate and 2, 3 of initseq, so the big-endian
        # bytes of the 64-bit words are the two 128-bit numbers in turn
        data = words.astype("<u4").view("<u8").astype(">u8").tobytes()
        for k in range(0, len(data), 32):
            initstate = int.from_bytes(data[k:k + 16], "big")
            inc = (int.from_bytes(data[k + 16:k + 32], "big") << 1 | 1) & _MASK128
            pcg["state"] = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
            pcg["inc"] = inc
            bit_generator.state = state
            yield rng


def _raw_below(bit_generator) -> Callable[[int], int]:
    """``below(m)``: ``Generator.integers(0, m)`` read from the raw PCG64 stream.

    Valid for 1 <= m <= 2**32 - 1 on a PCG64 set with ``has_uint32 = 0``
    whose buffered half nothing else reads while the draws run (exponential
    draws take whole 64-bit outputs and leave it alone).  This is numpy's
    Lemire method on buffered 32-bit halves: u is the low half of one
    ``random_raw()``, the high half is kept for the next draw; x = u m is
    redrawn while x mod 2**32 < (2**32 - m) mod m, and x >> 32 is returned.
    m = 1 draws nothing.  The kept half lives in the closure, not in the bit
    generator's state, so a ``below`` serves one replicate only.
    """
    raw = bit_generator.random_raw
    spare = None

    def below(m: int) -> int:
        nonlocal spare
        if m == 1:
            return 0
        while True:
            if spare is None:
                u = raw()
                spare = u >> 32
                u &= _MASK32
            else:
                u, spare = spare, None
            x = u * m
            low = x & _MASK32
            if low >= m or low >= (_2_32 - m) % m:
                return x >> 32

    return below


def _integers_below(rng) -> Callable[[int], int]:
    """``below(m)`` through ``rng.integers``: any bit generator, its state kept."""
    integers = rng.integers
    return lambda m: int(integers(0, m))


def _check_run(n: int, horizon: float | None) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if horizon is not None and not 0 <= horizon < inf:
        raise ValueError(f"horizon must be {'nonnegative' if horizon < 0 else 'finite'}")


def _bs_tree(n: int, below: Callable[[int], int]) -> tuple[int, ...]:
    """A uniform increasing tree on nodes 0..n-1 as its parent array."""
    return (0, *[below(k) for k in range(1, n)])


def _bs_cut(
    parent: tuple[int, ...], alive: tuple[int, ...], blocks: Blocks, cut: int
) -> tuple[tuple[int, ...], Blocks]:
    """The surviving nodes and blocks after cutting the edge above ``alive[cut]``.

    ``alive`` lists the surviving nodes in index order and ``blocks[i]`` is
    the label set of node ``alive[i]``.  A node keeps its minimum, so the
    blocks are in canonical order and ``alive[1:]`` are the edges
    ``cut_random`` draws from.  A parent precedes its child and survives it,
    so the subtree below the cut is the cut node plus the later survivors
    whose parent is already in it; its labels merge into the parent's block.
    """
    node = alive[cut]
    up = alive.index(parent[node])
    subtree = {node}
    merged = [*blocks[up], *blocks[cut]]
    kept, kept_blocks = [*alive[:cut]], [*blocks[:cut]]
    for i in range(cut + 1, len(alive)):
        v = alive[i]
        if parent[v] in subtree:
            subtree.add(v)
            merged += blocks[i]
        else:
            kept.append(v)
            kept_blocks.append(blocks[i])
    merged.sort()
    kept_blocks[up] = tuple(merged)
    return tuple(kept), tuple(kept_blocks)


def _kingman_merge(blocks: Blocks, k: int) -> Blocks:
    """``blocks`` with pair number k merged.

    Pair number k is the k-th of ``combinations(range(b), 2)``, decoded
    without building the list; the merged pair a < c lands at position a,
    which keeps the blocks in canonical order.
    """
    b = len(blocks)
    a = 0  # skip the rows (a, a+1..b-1) of b - 1 - a pairs before pair k
    while k >= b - 1 - a:
        k -= b - 1 - a
        a += 1
    c = a + 1 + k
    merged = tuple(sorted(blocks[a] + blocks[c]))
    return (*blocks[:a], merged, *blocks[a + 1:c], *blocks[c + 1:])


class _BsRule:
    """Tree cutting on [n]: a state is keyed by (drawn tree, surviving nodes).

    ``start`` draws the tree; draw k of ``step`` cuts edge k + 1.
    """

    def __init__(self, n: int):
        self.n, self.everyone = n, tuple(range(n))
        self.singletons = tuple((e,) for e in range(1, n + 1))

    def start(self, below: Callable[[int], int]) -> tuple:
        return (_bs_tree(self.n, below), self.everyone), self.singletons

    def step(self, key, blocks: Blocks, k: int) -> tuple:
        parent, alive = key
        alive, blocks = _bs_cut(parent, alive, blocks, k + 1)
        return (parent, alive), blocks

    @staticmethod
    def rate(b: int) -> int:
        return b - 1


class _KingmanRule:
    """Pair mergers on [n]: a state is keyed by its blocks.

    ``start`` draws nothing; draw k of ``step`` merges pair number k.
    """

    def __init__(self, n: int):
        self.singletons = tuple((e,) for e in range(1, n + 1))

    def start(self, below: Callable[[int], int]) -> tuple:
        return self.singletons, self.singletons

    def step(self, key, blocks: Blocks, k: int) -> tuple:
        blocks = _kingman_merge(blocks, k)
        return blocks, blocks

    @staticmethod
    def rate(b: int) -> int:
        return comb(b, 2)


_RULES = {"bs": _BsRule, "kingman": _KingmanRule}


def _simulate(model: str, n: int, horizon: float | None, rng) -> Trajectory:
    """A path of ``model`` from the singletons of [n]: its rule walked on ``rng``."""
    _check_run(n, horizon)
    rule = _RULES[model](n)
    below = _integers_below(rng)
    key, blocks = rule.start(below)
    times: list[float] = []
    states = [SetPartition(blocks)]
    t = 0.0
    while rate := rule.rate(len(blocks)):
        t += rng.exponential(1.0 / rate)
        if horizon is not None and t > horizon:
            break
        key, blocks = rule.step(key, blocks, below(rate))
        times.append(t)
        states.append(SetPartition(blocks))
    return Trajectory(tuple(times), tuple(states))


def simulate_bs(n: int, horizon: float | None, rng) -> Trajectory:
    """Bolthausen-Sznitman path from the singletons of [n] via tree cutting.

    ``horizon`` bounds the simulated time window; None runs to absorption.
    """
    return _simulate("bs", n, horizon, rng)


def simulate_kingman(n: int, horizon: float | None, rng) -> Trajectory:
    """Kingman path from the singletons of [n]: uniform pair mergers."""
    return _simulate("kingman", n, horizon, rng)


class _JumpTable:
    """The states one estimator run meets, each with an int id.

    ``states[s]`` is (rate, scale, base, part): state s leaves at total rate
    ``rate`` (0 once absorbed) on a clock of scale 1.0 / rate, bounded draw
    k leads to state ``succ[base + k]``, -1 until the estimator first takes
    that jump and stores ``successor(s, k)`` there, and its partition has id
    ``part``, blocks ``blocks[part]`` and a count ``finals[part]`` of the
    replicates that end in it.  ``keys[s]`` is what ``rule`` steps from:
    ``start`` and ``successor`` take the model's start state and jumps from
    its rule, and the table only numbers and remembers them.  A table lives
    for one run.  Every successor sits in the one flat ``succ`` list and a
    state is a tuple of numbers, so the garbage collector, which rescans
    every list it tracks, has no list per state.
    """

    def __init__(self, rule):
        self.rule = rule
        self.ids: dict = {}  # keys[s] -> s
        self.keys: list = []
        self.states: list[tuple[int, float, int, int]] = []
        self.succ: list[int] = []
        self.part_ids: dict[Blocks, int] = {}
        self.blocks: list[Blocks] = []
        self.finals: list[int] = []

    def state(self, key, blocks: Blocks) -> int:
        """The id of state ``key``, added with its blocks and rate if new."""
        s = self.ids.get(key)
        if s is None:
            s = self.ids[key] = len(self.states)
            part = self.part_ids.setdefault(blocks, len(self.blocks))
            if part == len(self.blocks):
                self.blocks.append(blocks)
                self.finals.append(0)
            rate = self.rule.rate(len(blocks))
            self.keys.append(key)
            self.states.append((rate, 1.0 / rate if rate else inf, len(self.succ), part))
            self.succ.extend([-1] * rate)
        return s

    def start(self, below: Callable[[int], int]) -> int:
        """The id of a replicate's start state, drawn through ``below``."""
        return self.state(*self.rule.start(below))

    def successor(self, s: int, k: int) -> int:
        """The id of the state bounded draw k leads to from state s."""
        blocks = self.blocks[self.states[s][3]]
        return self.state(*self.rule.step(self.keys[s], blocks, k))


def estimate_transition(
    model: str, n: int, t: float, reps: int, seed: int
) -> dict[SetPartition, tuple[Fraction, float]]:
    """Empirical law of Π(t) over ``reps`` seeded replicates.

    Returns {partition: (exact empirical fraction, binomial standard error)}
    over all of P([n]); the fractions sum to exactly 1.  Replicates step
    through a table of the states the run meets, which computes each
    distinct jump once and looks it up on every repeat; no ``SetPartition``
    is built beyond the lattice's own.  Every jump's time is checked, and
    each distinct (fine, coarse) pair of the run gets ``Trajectory``'s
    coarsening check once, when a replicate first makes it.
    """
    return _estimate_transition(model, n, t, reps, seed)[1]


def _estimate_transition(
    model: str, n: int, t: float, reps: int, seed: int
) -> tuple[PartitionLattice, dict[SetPartition, tuple[Fraction, float]]]:
    """``estimate_transition`` together with the P([n]) it was taken over."""
    rule_type = _RULES.get(model)
    if rule_type is None:
        raise ValueError(f"unknown model {model!r}; use 'bs' or 'kingman'")
    if reps < 1:
        raise ValueError("need at least one replicate")
    _check_run(n, t)
    lattice = PartitionLattice(n)  # enforces the size cap before any replicate runs
    table = _JumpTable(rule_type(n))  # lives as long as this run
    states, succ, blocks, finals = table.states, table.succ, table.blocks, table.finals
    checked: set[tuple[int, int]] = set()  # partition-id pairs _check_jump passed
    for rng in _replicate_streams(seed, reps):
        below = _raw_below(rng.bit_generator)
        exponential = rng.exponential
        s, prev = table.start(below), 0.0
        rate, scale, base, part = states[s]
        while rate:
            time = prev + exponential(scale)
            if not prev < time < inf:
                _check_time(prev, time)
            if time > t:
                break
            k = below(rate)
            target = succ[base + k]
            if target < 0:
                target = succ[base + k] = table.successor(s, k)
                pair = part, states[target][3]
                if pair not in checked:
                    _check_jump(prev, time, blocks[part], blocks[pair[1]])
                    checked.add(pair)
            prev, s = time, target
            rate, scale, base, part = states[s]
        finals[part] += 1
    counts = dict(zip(blocks, finals))
    return lattice, {pi: _estimate(counts.get(pi.blocks, 0), reps) for pi in lattice}


def estimate_containment(
    pi: SetPartition, rho: SetPartition, reps: int, seed: int
) -> tuple[Fraction, float]:
    """Empirical probability that a uniform increasing tree on π contains ρ."""
    from .rrt import contains, sample_rrt

    if reps < 1:
        raise ValueError("need at least one replicate")
    hits = 0
    for rng in _replicate_streams(seed, reps):
        if contains(sample_rrt(pi, rng), rho):
            hits += 1
    return _estimate(hits, reps)


def _estimate(count: int, reps: int) -> tuple[Fraction, float]:
    """The empirical fraction count/reps and its binomial standard error."""
    p_hat = Fraction(count, reps)
    return p_hat, sqrt(float(p_hat * (1 - p_hat)) / reps)
