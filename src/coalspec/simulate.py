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
(``_RULES``): ``start(draws)`` gives the first state's key and blocks from
bounded draws made with the bounds ``start_bounds`` (the BS tree's parents;
Kingman draws nothing); ``step(key, blocks, k)`` makes the jump draw k picks,
by ``_bs_cut`` or ``_kingman_merge``; ``rate(b)`` is the total rate with b
blocks.  Two consumers walk it.  ``simulate_bs``/``simulate_kingman`` step
it directly and hold only the path, which ``Trajectory`` checks jump by
jump with ``pair_key``'s pass on the block tuples.

``estimate_transition`` makes the same draws in the same order, but steps a
batch of replicates at a time in lockstep, one numpy array slot (a lane) per
replicate, through a table that lasts one run: each distinct state gets an
int id, with its rate, clock scale, partition id and the first of its
successor slots in numpy arrays, filled on first use by the model's rule
(Kingman states are keyed by their blocks, BS states by the drawn tree and
its surviving nodes).  A lane's state is such an id; a step draws every live
lane's clock and bounded draw at once and moves it with one array lookup.
The estimator checks the time of every jump, before the horizon test, and
runs the pass when a jump is first filled, once per distinct pair of
partition ids; final states are counted by partition id with one
``bincount`` per batch and read out by the block tuples of the lattice's own
partitions.

Replicate streams: replicate i of a run with seed s draws from
``numpy.random.default_rng((s, i))``, so runs are reproducible and
replicates are independent and order-insensitive.  The estimators do not
build one generator per replicate.  ``_generate_state`` hashes the
``SeedSequence((s, i))`` entropy of a batch of replicates at a time in
vectorised uint32 arithmetic, and each PCG64 state is derived from it as
``PCG64`` seeds itself.  Both estimators keep them in ``_Lanes``, one batch
of ``_LANES`` replicates at a time (``_batches``): each lane's 128-bit state
and increment are uint64 array pairs, stepped by 32-bit-limb products, and
the draws are numpy's, made on the raw outputs.  A bounded draw is
``Generator.integers(0, m)``: Lemire's method on PCG64's 32-bit halves (low
half first, the high half kept per lane for the next draw), as numpy >= 1.24
does, rerun only on the lanes that reject.  A clock is
``Generator.exponential(scale)``: numpy's ziggurat with its committed
tables (``_ziggurat``), the fast path on whole arrays and the draws off it,
about 2% of them, lane by lane with numpy's tail, wedge test and redraw, so
the estimator never imports ``numpy.random``.  The streams are the same,
draw for draw; ``replicate_rng`` is the reference they are tested against.
The public ``simulate_bs``/``simulate_kingman`` accept any ``Generator``
and draw through ``Generator.integers`` (``_integers_below``).

Estimators return exact empirical fractions (count/reps) so the estimated
law sums to exactly 1, alongside float binomial standard errors
sqrt(p(1-p)/reps).

The module imports numpy when it loads: only Monte Carlo loads it, and all
of it needs numpy.  ``Trajectory`` is a frozen value on ``partitions``'
``_Frozen`` base, as ``SpectralTriple`` is.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import comb, exp, inf, log1p, sqrt
from operator import index
from typing import Callable, Iterator

import numpy as np

from . import _EXPORTS
from ._ziggurat import EXP_R, FE, KE, WE
from .partitions import Blocks, PartitionLattice, SetPartition, _block_key, _Frozen, pair_key

__all__ = list(_EXPORTS["simulate"])


class Trajectory(_Frozen):
    """One simulated path: jump times and the state per epoch.

    ``states`` has one more entry than ``times``; ``states[k]`` is the state
    on [times[k-1], times[k]) with times[-1] read as 0.  Jump times are
    finite and increase strictly from 0, and states strictly coarsen at every
    jump.
    """

    __match_args__ = ("times", "states")

    def __init__(self, times: tuple[float, ...], states: tuple[SetPartition, ...]) -> None:
        if len(states) != len(times) + 1:
            raise ValueError("need exactly one state per epoch")
        prev = 0.0
        for t, a, b in zip(times, states, states[1:]):
            _check_jump(prev, t, a.blocks, b.blocks)
            prev = t
        self.__dict__.update(times=times, states=states)

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
    return np.random.default_rng((seed, i))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# 32-bit words, hashmix constants A for the pool, B for generate_state
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_2_32 = 1 << 32
# PCG64's 128-bit LCG: state <- state * multiplier + inc; the multiplier's
# 64-bit halves and the 32-bit limbs of its low half
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _PCG_MULT >> 64, _PCG_MULT & _MASK64
_MULT_L1, _MULT_L0 = _MULT_LO >> 32, _MULT_LO & _MASK32
# replicates an estimator draws for in lockstep, one batch of lanes at a time
_LANES = 2048


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


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step (hi, lo) * _PCG_MULT + (inc_hi, inc_lo) mod 2**128.

    Each 128-bit number is a pair of uint64 arrays, its high and low halves.
    Products of halves wrap mod 2**64 as arrays do (silently); the carry of
    the low halves' product into the high half is summed from 32-bit limbs,
    whose products fit 64 bits.
    """
    a0, a1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = a0 * _MULT_L0, a0 * _MULT_L1, a1 * _MULT_L0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * _MULT_L1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = hi * _MULT_LO + lo * _MULT_HI + carry + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg_output(hi, lo):
    """PCG64's output of the states (hi, lo): hi ^ lo rotated right by hi >> 58."""
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


class _Lanes:
    """The PCG64 streams of replicates start..stop-1, one array slot (lane) each.

    Lane j is replicate start + j of the run whose seed has the 32-bit words
    ``seed_words``; it starts where ``replicate_rng(seed, start + j)`` starts,
    and each draw takes from it what the same call on that Generator takes,
    down to the buffered 32-bit half (``state(j)`` reads its state as
    ``PCG64.state`` does).  A draw acts on the lanes an int array names, each
    at most once, with one bound or scale per lane.
    """

    def __init__(self, seed_words: list[int], start: int, stop: int):
        pieces = [  # the indices below 2**32, then those above: one word count each
            _generate_state(seed_words, np.arange(a, b, dtype=np.uint64))
            for a, b in ((start, min(stop, _2_32)), (max(start, _2_32), stop))
            if a < b
        ]
        words = [np.concatenate(w).astype(np.uint64) for w in zip(*pieces)]
        # as generate_state(4, uint64) reads them: 32-bit words 2k, 2k + 1 are
        # the 64-bit word k, little-endian; PCG64 takes words 0, 1 as the high
        # and low halves of initstate and 2, 3 of initseq
        init_hi, init_lo, seq_hi, seq_lo = (words[k] | words[k + 1] << 32 for k in (0, 2, 4, 6))
        # pcg_setseq_128_srandom_r: inc = 2 initseq + 1, then step, add
        # initstate, step
        self.inc_hi, self.inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        lo = self.inc_lo + init_lo
        hi = self.inc_hi + init_hi + (lo < init_lo)
        self.hi, self.lo = _pcg_step(hi, lo, self.inc_hi, self.inc_lo)
        self.size = stop - start
        self.spare = np.zeros(self.size, np.uint64)  # the buffered 32-bit half
        self.has = np.zeros(self.size, bool)  # whether it is unread
        self.ke, self.we = np.array(KE, np.uint64), np.array(WE)

    def _next(self, lanes):
        """The next 64-bit output of each of ``lanes``."""
        hi, lo = self.hi[lanes], self.lo[lanes]
        hi, lo = _pcg_step(hi, lo, self.inc_hi[lanes], self.inc_lo[lanes])
        self.hi[lanes], self.lo[lanes] = hi, lo
        return _pcg_output(hi, lo)

    def below(self, lanes, m):
        """``Generator.integers(0, m[i])`` on lane ``lanes[i]`` for every i, as int64.

        1 <= m < 2**32.  numpy's Lemire method on buffered 32-bit halves: u is
        the lane's kept half if it has one, else the low half of its next
        output, whose high half it keeps; x = u m is redrawn while
        x mod 2**32 < (2**32 - m) mod m, and x >> 32 is returned.  m = 1 draws
        nothing.
        """
        out = np.zeros(len(lanes), np.int64)
        m = m.astype(np.uint64)
        todo = np.flatnonzero(m > 1)
        while todo.size:
            at, bound = lanes[todo], m[todo]
            fresh = ~self.has[at]
            u = self.spare[at]
            raw = self._next(at[fresh])
            u[fresh] = raw & _MASK32
            self.spare[at[fresh]] = raw >> 32
            self.has[at] = fresh
            x = u * bound
            low = x & _MASK32
            taken = low >= bound  # else compare with (2**32 - m) % m, below m
            doubt = np.flatnonzero(~taken)
            taken[doubt] = low[doubt] >= (_2_32 - bound[doubt]) % bound[doubt]
            out[todo[taken]] = x[taken] >> 32
            todo = todo[~taken]
        return out

    def exponential(self, lanes, scale):
        """``Generator.exponential(scale[i])`` on lane ``lanes[i]`` for every i.

        numpy's ziggurat (``_ziggurat``): from an output r, ri = r >> 11 in box
        k = (r >> 3) & 0xFF gives x = ri WE[k] when ri < KE[k].  The lanes off
        that path draw u = (next output >> 11) 2**-53 together; box 0 returns
        EXP_R - log1p(-u), box k > 0 returns x when
        (FE[k - 1] - FE[k]) u + FE[k] < exp(-x), and a lane that fails draws
        again from the start.  ``exp`` and ``log1p`` are the libm calls numpy's
        C code makes.  Each draw is then multiplied by its scale.
        """
        out = np.empty(len(lanes))
        todo = np.arange(len(lanes))  # the draws still to make
        while todo.size:
            raw = self._next(lanes[todo])
            ri, box = raw >> 11, (raw >> 3 & 0xFF).astype(np.intp)
            x = ri * self.we[box]
            fast = ri < self.ke[box]
            out[todo[fast]] = x[fast]
            off = np.flatnonzero(~fast)
            if not off.size:
                break
            todo = todo[off]
            u = (self._next(lanes[todo]) >> 11) * 2.0**-53
            again = []
            for i, k, xi, ui in zip(todo.tolist(), box[off].tolist(), x[off].tolist(), u.tolist()):
                if k == 0:
                    out[i] = EXP_R - log1p(-ui)
                elif (FE[k - 1] - FE[k]) * ui + FE[k] < exp(-xi):
                    out[i] = xi
                else:
                    again.append(i)
            todo = np.array(again, np.intp)
        return scale * out

    def state(self, j: int) -> dict:
        """Lane j's state in the form of ``PCG64.state``."""
        return {
            "bit_generator": "PCG64",
            "state": {
                "state": int(self.hi[j]) << 64 | int(self.lo[j]),
                "inc": int(self.inc_hi[j]) << 64 | int(self.inc_lo[j]),
            },
            "has_uint32": int(self.has[j]),
            "uinteger": int(self.spare[j]),
        }

    def set_state(self, j: int, state: dict) -> None:
        """Set lane j to ``state``, in the form of ``PCG64.state``."""
        pcg = state["state"]
        self.hi[j], self.lo[j] = pcg["state"] >> 64, pcg["state"] & _MASK64
        self.inc_hi[j], self.inc_lo[j] = pcg["inc"] >> 64, pcg["inc"] & _MASK64
        self.has[j], self.spare[j] = state["has_uint32"], state["uinteger"]


def _batches(seed: int, reps: int) -> Iterator[_Lanes]:
    """The lanes of replicates 0..reps-1 of the run with ``seed``, ``_LANES`` at a time."""
    seed_words = _words(seed)
    for start in range(0, reps, _LANES):
        yield _Lanes(seed_words, start, min(start + _LANES, reps))


def _start_rows(lanes, bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every lane's draws with ``bounds`` in turn, one tuple per lane.

    Column c is one ``below`` draw on every lane with bound ``bounds[c]``, so
    a lane draws what ``below(m) for m in bounds`` draws on its Generator.
    """
    every = np.arange(lanes.size)
    columns = [lanes.below(every, np.full(lanes.size, m)).tolist() for m in bounds]
    return list(zip(*columns)) if columns else [()] * lanes.size


def _integers_below(rng) -> Callable[[int], int]:
    """``below(m)`` through ``rng.integers``: any bit generator, its state kept."""
    integers = rng.integers
    return lambda m: int(integers(0, m))


def _check_run(n: int, horizon: float | None) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if horizon is not None and not 0 <= horizon < inf:
        raise ValueError(f"horizon must be {'nonnegative' if horizon < 0 else 'finite'}")


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

    The start draws are the parents of nodes 1..n-1 of a uniform increasing
    tree, node k's among 0..k-1; draw k of ``step`` cuts edge k + 1.
    """

    def __init__(self, n: int):
        self.everyone, self.start_bounds = tuple(range(n)), tuple(range(1, n))
        self.singletons = tuple((e,) for e in range(1, n + 1))

    def start(self, draws) -> tuple:
        return ((0, *draws), self.everyone), self.singletons

    def step(self, key, blocks: Blocks, k: int) -> tuple:
        parent, alive = key
        alive, blocks = _bs_cut(parent, alive, blocks, k + 1)
        return (parent, alive), blocks

    @staticmethod
    def rate(b: int) -> int:
        return b - 1


class _KingmanRule:
    """Pair mergers on [n]: a state is keyed by its blocks.

    The start draws nothing; draw k of ``step`` merges pair number k.
    """

    start_bounds = ()

    def __init__(self, n: int):
        self.singletons = tuple((e,) for e in range(1, n + 1))

    def start(self, draws) -> tuple:
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
    key, blocks = rule.start([below(m) for m in rule.start_bounds])
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


def _grown(a, size: int, fill):
    """The array ``a`` extended to ``size`` entries with ``fill``."""
    out = np.full(size, fill, a.dtype)
    out[:len(a)] = a
    return out


class _JumpTable:
    """The states one estimator run meets, each with an int id.

    State s leaves at total rate ``rate[s]`` (0 once absorbed) on a clock of
    scale ``scale[s]`` = 1.0 / rate, bounded draw k leads to state
    ``succ[base[s] + k]``, -1 until the estimator first takes that jump and
    stores ``successor(s, k)`` there, and its partition has id ``part[s]``,
    blocks ``blocks[part[s]]``.  These are numpy arrays, over-allocated and
    doubled when full, so a lane of states reads them with one index.
    ``keys[s]`` is what ``rule`` steps from: ``starts`` and ``successor``
    take the model's start states and jumps from its rule, and the table only
    numbers and remembers them.  A table lives for one run.
    """

    def __init__(self, rule):
        self.rule = rule
        self.ids: dict = {}  # keys[s] -> s
        self.keys: list = []
        self.start_ids: dict = {}  # start draws -> the id of their start state
        self.part_ids: dict[Blocks, int] = {}
        self.blocks: list[Blocks] = []
        self.rate, self.base, self.part = (np.zeros(64, np.int64) for _ in range(3))
        self.scale = np.zeros(64)
        self.succ = np.full(256, -1, np.int64)
        self.slots = 0  # succ entries in use

    def state(self, key, blocks: Blocks) -> int:
        """The id of state ``key``, added with its blocks and rate if new."""
        s = self.ids.get(key)
        if s is None:
            s = self.ids[key] = len(self.keys)
            self.keys.append(key)
            part = self.part_ids.setdefault(blocks, len(self.blocks))
            if part == len(self.blocks):
                self.blocks.append(blocks)
            if s == len(self.rate):
                self.rate, self.base, self.part = (
                    _grown(a, 2 * s, 0) for a in (self.rate, self.base, self.part)
                )
                self.scale = _grown(self.scale, 2 * s, 0.0)
            rate = self.rule.rate(len(blocks))
            self.rate[s], self.base[s], self.part[s] = rate, self.slots, part
            self.scale[s] = 1.0 / rate if rate else inf
            self.slots += rate
            if self.slots > len(self.succ):
                self.succ = _grown(self.succ, max(2 * len(self.succ), self.slots), -1)
        return s

    def starts(self, rows: list[tuple[int, ...]]):
        """The start state ids of lanes whose start draws are ``rows``, one each.

        Each distinct start is made once a run.
        """
        ids = self.start_ids
        for row in rows:
            if row not in ids:
                ids[row] = self.state(*self.rule.start(row))
        return np.fromiter(map(ids.__getitem__, rows), np.int64, len(rows))

    def successor(self, s: int, k: int) -> int:
        """The id of the state bounded draw k leads to from state s."""
        blocks = self.blocks[self.part[s]]
        return self.state(*self.rule.step(self.keys[s], blocks, k))


def estimate_transition(
    model: str, n: int, t: float, reps: int, seed: int
) -> dict[SetPartition, tuple[Fraction, float]]:
    """Empirical law of Π(t) over ``reps`` seeded replicates.

    Returns {partition: (exact empirical fraction, binomial standard error)}
    over all of P([n]); the fractions sum to exactly 1.  Replicates step
    in lockstep through a table of the states the run meets, which computes
    each distinct jump once and looks it up on every repeat; no
    ``SetPartition`` is built beyond the lattice's own.  Every jump's time is
    checked, and each distinct (fine, coarse) pair of the run gets
    ``Trajectory``'s coarsening check once, when a replicate first makes it.
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
    checked: set[tuple[int, int]] = set()  # partition-id pairs _check_jump passed
    finals = np.zeros(0, np.int64)  # replicates ending in each partition id
    for lanes in _batches(seed, reps):
        ends = _run_lanes(table, lanes, t, checked)
        counts = np.bincount(table.part[ends], minlength=len(table.blocks))
        counts[:len(finals)] += finals
        finals = counts
    counts = dict(zip(table.blocks, finals.tolist()))
    return lattice, {pi: _estimate(counts.get(pi.blocks, 0), reps) for pi in lattice}


def _run_lanes(table: _JumpTable, lanes: _Lanes, t: float, checked: set):
    """Step every lane of ``lanes`` to time t through ``table``: their final state ids.

    Each step draws the clock of every live lane, checks its jump time, stops
    the lanes past t, draws their jumps and moves them by ``table.succ``,
    filling a slot the first time a lane takes it.
    """
    ids = table.starts(_start_rows(lanes, table.rule.start_bounds))  # the live lanes' states
    live = np.arange(lanes.size)  # the lanes still moving
    prev = np.zeros(lanes.size)  # and their last jump times
    ends = np.empty(lanes.size, np.int64)
    while True:
        rate = table.rate[ids]
        moving = rate > 0
        if not moving.all():
            ends[live[~moving]] = ids[~moving]
            live, ids, prev, rate = (a[moving] for a in (live, ids, prev, rate))
            if not live.size:
                return ends
        time = prev + lanes.exponential(live, table.scale[ids])
        legal = (prev < time) & (time < inf)
        if not legal.all():
            j = int(np.argmin(legal))
            _check_time(float(prev[j]), float(time[j]))
        jump = time <= t
        if not jump.all():
            ends[live[~jump]] = ids[~jump]
            live, ids, prev, time, rate = (a[jump] for a in (live, ids, prev, time, rate))
            if not live.size:
                return ends
        k = lanes.below(live, rate)
        slot = table.base[ids] + k
        target = table.succ[slot]
        new = np.flatnonzero(target < 0)
        if new.size:
            lanes_new = zip(new.tolist(), slot[new].tolist(), ids[new].tolist(), k[new].tolist())
            for j, at, s, draw in lanes_new:
                if table.succ[at] >= 0:  # filled by an earlier lane of this step
                    continue
                table.succ[at] = after = table.successor(s, draw)
                pair = int(table.part[s]), int(table.part[after])
                if pair not in checked:
                    fine, coarse = table.blocks[pair[0]], table.blocks[pair[1]]
                    _check_jump(float(prev[j]), float(time[j]), fine, coarse)
                    checked.add(pair)
            target = table.succ[slot]
        ids, prev = target, time


def estimate_containment(
    pi: SetPartition, rho: SetPartition, reps: int, seed: int
) -> tuple[Fraction, float]:
    """Empirical probability that a uniform increasing tree on π contains ρ.

    Replicate i's tree is ``sample_rrt(pi, replicate_rng(seed, i))``: block k
    hangs from block ``below(k)``, for k = 1..|π| - 1 in turn.  The draws are
    made on the lanes, and each distinct tree is built and tested by
    ``contains`` once a run.  π and ρ must share a ground set (``pair_key``),
    checked before any draw.
    """
    from .rrt import IncreasingTree, contains

    if reps < 1:
        raise ValueError("need at least one replicate")
    pair_key(pi, rho)  # raises on different ground sets, before any lane is seeded
    blocks = pi.blocks
    bounds = _BsRule(len(blocks)).start_bounds
    hit: dict[tuple[int, ...], bool] = {}  # parent draws -> their tree contains ρ
    hits = 0
    for lanes in _batches(seed, reps):
        rows = _start_rows(lanes, bounds)
        for row in rows:
            if row not in hit:
                tree = IncreasingTree(pi, {blocks[k]: blocks[p] for k, p in enumerate(row, 1)})
                hit[row] = contains(tree, rho)
        hits += sum(map(hit.__getitem__, rows))
    return _estimate(hits, reps)


def _estimate(count: int, reps: int) -> tuple[Fraction, float]:
    """The empirical fraction count/reps and its binomial standard error."""
    p_hat = Fraction(count, reps)
    return p_hat, sqrt(float(p_hat * (1 - p_hat)) / reps)
