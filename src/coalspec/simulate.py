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
objects; ``estimate_transition`` checks every jump on the block tuples as
``Trajectory`` does and builds one ``SetPartition`` per distinct final state.

Replicate streams: replicate i of a run with seed s draws from
``numpy.random.default_rng((s, i))``, so runs are reproducible and
replicates are independent and order-insensitive.

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
from typing import TYPE_CHECKING, Iterator

from .partitions import PartitionLattice, SetPartition
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


# a state as canonical block tuples: each block sorted, blocks by their minima
Blocks = tuple[tuple[int, ...], ...]


def _check_jump(prev: float, t: float, fine: Blocks, coarse: Blocks) -> None:
    """Raise ValueError unless the jump fine -> coarse at time t is legal.

    ``prev`` is the previous jump time (0 at the first jump); t must be
    finite and later, and ``coarse`` must strictly coarsen ``fine``.
    """
    if not prev < t < inf:
        raise ValueError("jump times must be finite and increase strictly from 0")
    if not _coarsens(fine, coarse):
        raise ValueError("states must coarsen strictly at each jump")


def _coarsens(fine: Blocks, coarse: Blocks) -> bool:
    """True iff ``coarse`` merges the blocks of ``fine`` into fewer blocks.

    Each block of ``fine`` must lie inside one block of ``coarse``, and the
    two must cover the same elements.
    """
    if len(coarse) >= len(fine):
        return False
    owner = {e: i for i, block in enumerate(coarse) for e in block}
    seen = 0
    for block in fine:
        i = owner.get(block[0])
        if i is None:
            return False
        for e in block:
            if owner.get(e) != i:
                return False
        seen += len(block)
    return seen == len(owner)


def replicate_rng(seed: int, i: int) -> np.random.Generator:
    """The documented per-replicate stream: PCG64 seeded from (seed, i)."""
    import numpy as np

    return np.random.default_rng((seed, i))


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
    parent = [0] + [int(rng.integers(0, k)) for k in range(1, n)]
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
    block tuples, with every jump checked as ``Trajectory`` checks it; one
    ``SetPartition`` is built per distinct final state.
    """
    jumps = _JUMPS.get(model)
    if jumps is None:
        raise ValueError(f"unknown model {model!r}; use 'bs' or 'kingman'")
    if reps < 1:
        raise ValueError("need at least one replicate")
    _check_run(n, t)
    lattice = PartitionLattice(n)  # enforces the size cap before any replicate runs
    start = tuple((e,) for e in range(1, n + 1))
    counts: Counter[Blocks] = Counter()
    for i in range(reps):
        prev, state = 0.0, start
        for time, blocks in jumps(n, t, replicate_rng(seed, i)):
            _check_jump(prev, time, state, blocks)
            prev, state = time, blocks
        counts[state] += 1
    finals: Counter[SetPartition] = Counter()
    for blocks, count in counts.items():
        finals[SetPartition(blocks)] += count
    out = {}
    for pi in lattice:
        p_hat = Fraction(finals[pi], reps)
        se = sqrt(float(p_hat * (1 - p_hat)) / reps)
        out[pi] = (p_hat, se)
    return out


def estimate_containment(
    pi: SetPartition, rho: SetPartition, reps: int, seed: int
) -> tuple[Fraction, float]:
    """Empirical probability that a uniform increasing tree on π contains ρ."""
    if reps < 1:
        raise ValueError("need at least one replicate")
    hits = 0
    for i in range(reps):
        if contains(sample_rrt(pi, replicate_rng(seed, i)), rho):
            hits += 1
    p_hat = Fraction(hits, reps)
    se = sqrt(float(p_hat * (1 - p_hat)) / reps)
    return p_hat, se
