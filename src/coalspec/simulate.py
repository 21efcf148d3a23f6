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

Both paths run as private jump generators yielding (time, blocks) per jump.
Only ``simulate_bs``/``simulate_kingman`` turn them into ``Trajectory``
objects.  Both ``Trajectory`` and ``estimate_transition`` check every jump
with ``pair_key``'s pass on the block tuples, and the estimator counts final
states by the block tuples of the lattice's own partitions.

Replicate streams: replicate i of a run with seed s draws from
``numpy.random.default_rng((s, i))``, so runs are reproducible and
replicates are independent and order-insensitive.  The estimators do not
build one generator per replicate: ``_replicate_streams`` hashes the
``SeedSequence((s, i))`` entropy of 1024 replicates at a time in vectorised
uint32 arithmetic, derives each PCG64 state from it as ``PCG64`` seeds
itself, and sets that state on one reused ``Generator``.  The streams are
the same, draw for draw; ``replicate_rng`` is the reference they are tested
against.

Estimators return exact empirical fractions (count/reps) so the estimated
law sums to exactly 1, alongside float binomial standard errors
sqrt(p(1-p)/reps).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, sqrt
from operator import index
from typing import TYPE_CHECKING, Iterator

from .partitions import Blocks, PartitionLattice, SetPartition, _block_key
from .rrt import contains, sample_rrt

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
    if not prev < t < inf:
        raise ValueError("jump times must be finite and increase strictly from 0")
    try:
        key = _block_key(fine, coarse)
    except ValueError:
        key = None
    if key is None or key[1] >= key[0]:
        raise ValueError("states must coarsen strictly at each jump")


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
    then step, add initstate, step.
    """
    import numpy as np

    seed_words = _words(seed)
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
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
            state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _check_run(n: int, horizon: float | None) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if horizon is not None and not 0 <= horizon < inf:
        raise ValueError(f"horizon must be {'nonnegative' if horizon < 0 else 'finite'}")


def _bs_jumps(n: int, horizon: float | None, rng) -> Iterator[tuple[float, Blocks]]:
    """Tree-cutting path from the singletons of [n]: (time, blocks) per jump.

    Node k starts as the singleton {k + 1} with ``parent[k]`` uniform among
    the earlier nodes (the draws of ``sample_rrt``).  A node keeps its
    minimum, so the surviving nodes in index order are the blocks in
    canonical order and ``alive[1:]`` are the edges ``cut_random`` draws
    from.  A parent precedes its child, so the subtree below a cut is the
    cut node plus the later survivors whose parent is already in it; it
    merges into the cut node's parent.
    """
    parent = [0] + rng.integers(0, range(1, n)).tolist()  # one call, same draws
    labels = [(k + 1,) for k in range(n)]
    alive = list(range(n))
    t = 0.0
    while len(alive) > 1:
        edges = len(alive) - 1
        t += rng.exponential(1.0 / edges)
        if horizon is not None and t > horizon:
            return
        cut = int(rng.integers(0, edges)) + 1
        node = alive[cut]
        subtree = {node}
        merged = [*labels[parent[node]], *labels[node]]
        kept = alive[:cut]
        for v in alive[cut + 1:]:
            if parent[v] in subtree:
                subtree.add(v)
                merged += labels[v]
            else:
                kept.append(v)
        labels[parent[node]] = tuple(sorted(merged))
        alive = kept
        yield t, tuple([labels[v] for v in alive])


def _kingman_jumps(n: int, horizon: float | None, rng) -> Iterator[tuple[float, Blocks]]:
    """Uniform pair mergers from the singletons of [n]: (time, blocks) per jump.

    Pair number k is the k-th of ``combinations(range(b), 2)``, decoded
    without building the list; the merged pair a < c lands at position a,
    which keeps the blocks in canonical order.
    """
    blocks = [(e,) for e in range(1, n + 1)]
    t = 0.0
    while len(blocks) > 1:
        b = len(blocks)
        rate = comb(b, 2)
        t += rng.exponential(1.0 / rate)
        if horizon is not None and t > horizon:
            return
        k = int(rng.integers(0, rate))
        a = 0  # skip the rows (a, a+1..b-1) of b - 1 - a pairs before pair k
        while k >= b - 1 - a:
            k -= b - 1 - a
            a += 1
        merged = blocks[a] + blocks.pop(a + 1 + k)
        blocks[a] = tuple(sorted(merged))
        yield t, tuple(blocks)


_JUMPS = {"bs": _bs_jumps, "kingman": _kingman_jumps}


def _trajectory(n: int, jumps: Iterator[tuple[float, Blocks]]) -> Trajectory:
    times: list[float] = []
    states = [SetPartition.singletons(n)]
    for t, blocks in jumps:
        times.append(t)
        states.append(SetPartition(blocks))
    return Trajectory(tuple(times), tuple(states))


def simulate_bs(n: int, horizon: float | None, rng) -> Trajectory:
    """Bolthausen-Sznitman path from the singletons of [n] via tree cutting.

    ``horizon`` bounds the simulated time window; None runs to absorption.
    """
    _check_run(n, horizon)
    return _trajectory(n, _bs_jumps(n, horizon, rng))


def simulate_kingman(n: int, horizon: float | None, rng) -> Trajectory:
    """Kingman path from the singletons of [n]: uniform pair mergers."""
    _check_run(n, horizon)
    return _trajectory(n, _kingman_jumps(n, horizon, rng))


def estimate_transition(
    model: str, n: int, t: float, reps: int, seed: int
) -> dict[SetPartition, tuple[Fraction, float]]:
    """Empirical law of Π(t) over ``reps`` seeded replicates.

    Returns {partition: (exact empirical fraction, binomial standard error)}
    over all of P([n]); the fractions sum to exactly 1.  Replicates run on
    block tuples, with every jump checked as ``Trajectory`` checks it, and
    are counted by the blocks of the lattice's partitions; no other
    ``SetPartition`` is built.
    """
    return _estimate_transition(model, n, t, reps, seed)[1]


def _estimate_transition(
    model: str, n: int, t: float, reps: int, seed: int
) -> tuple[PartitionLattice, dict[SetPartition, tuple[Fraction, float]]]:
    """``estimate_transition`` together with the P([n]) it was taken over."""
    jumps = _JUMPS.get(model)
    if jumps is None:
        raise ValueError(f"unknown model {model!r}; use 'bs' or 'kingman'")
    if reps < 1:
        raise ValueError("need at least one replicate")
    _check_run(n, t)
    lattice = PartitionLattice(n)  # enforces the size cap before any replicate runs
    start = tuple((e,) for e in range(1, n + 1))
    counts: Counter[Blocks] = Counter()
    for rng in _replicate_streams(seed, reps):
        prev, state = 0.0, start
        for time, blocks in jumps(n, t, rng):
            _check_jump(prev, time, state, blocks)
            prev, state = time, blocks
        counts[state] += 1
    out = {}
    for pi in lattice:
        p_hat = Fraction(counts[pi.blocks], reps)
        se = sqrt(float(p_hat * (1 - p_hat)) / reps)
        out[pi] = (p_hat, se)
    return lattice, out


def estimate_containment(
    pi: SetPartition, rho: SetPartition, reps: int, seed: int
) -> tuple[Fraction, float]:
    """Empirical probability that a uniform increasing tree on π contains ρ."""
    if reps < 1:
        raise ValueError("need at least one replicate")
    hits = 0
    for rng in _replicate_streams(seed, reps):
        if contains(sample_rrt(pi, rng), rho):
            hits += 1
    p_hat = Fraction(hits, reps)
    se = sqrt(float(p_hat * (1 - p_hat)) / reps)
    return p_hat, se
