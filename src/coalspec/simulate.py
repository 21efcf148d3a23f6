"""Seeded Monte Carlo simulators for both coalescents, with validation estimators.

The Bolthausen-Sznitman path is simulated exclusively through the random
recursive tree construction: sample a uniform increasing tree on the
singletons, equip each edge with an exponential clock, and cut a uniformly
random edge at each ring (with b blocks the tree has b - 1 edges, so jumps
occur at total rate b - 1 and the label partition performs the coalescent).
The Kingman path merges a uniform pair of blocks at rate C(b, 2).

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
from itertools import combinations
from math import comb, inf, sqrt

import numpy as np

from .partitions import PartitionLattice, SetPartition
from .rrt import contains, cut_random, sample_rrt

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
    on [times[k-1], times[k]) with times[-1] read as 0.  States strictly
    coarsen at every jump.
    """

    times: tuple[float, ...]
    states: tuple[SetPartition, ...]

    def __post_init__(self):
        if len(self.states) != len(self.times) + 1:
            raise ValueError("need exactly one state per epoch")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("jump times must increase strictly")
        for a, b in zip(self.states, self.states[1:]):
            if not (a.refines(b) and len(b) < len(a)):
                raise ValueError("states must coarsen strictly at each jump")

    def state_at(self, t: float) -> SetPartition:
        """The state occupied at time t (right-continuous)."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        return self.states[bisect_right(self.times, t)]

    @property
    def final(self) -> SetPartition:
        return self.states[-1]


def replicate_rng(seed: int, i: int) -> np.random.Generator:
    """The documented per-replicate stream: PCG64 seeded from (seed, i)."""
    return np.random.default_rng((seed, i))


def simulate_bs(n: int, horizon: float | None, rng) -> Trajectory:
    """Bolthausen-Sznitman path from the singletons of [n] via tree cutting.

    ``horizon`` bounds the simulated time window; None runs to absorption.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if horizon is not None and not 0 <= horizon < inf:
        raise ValueError(f"horizon must be {'nonnegative' if horizon < 0 else 'finite'}")
    tree = sample_rrt(SetPartition.singletons(n), rng)
    t = 0.0
    times: list[float] = []
    states = [tree.labels]
    while tree.edge_count > 0:
        t += rng.exponential(1.0 / tree.edge_count)
        if horizon is not None and t > horizon:
            break
        tree = cut_random(tree, rng)
        times.append(t)
        states.append(tree.labels)
    return Trajectory(tuple(times), tuple(states))


def simulate_kingman(n: int, horizon: float | None, rng) -> Trajectory:
    """Kingman path from the singletons of [n]: uniform pair mergers."""
    if n < 1:
        raise ValueError("need n >= 1")
    if horizon is not None and not 0 <= horizon < inf:
        raise ValueError(f"horizon must be {'nonnegative' if horizon < 0 else 'finite'}")
    state = SetPartition.singletons(n)
    t = 0.0
    times: list[float] = []
    states = [state]
    while len(state) > 1:
        b = len(state)
        t += rng.exponential(1.0 / comb(b, 2))
        if horizon is not None and t > horizon:
            break
        pairs = list(combinations(range(b), 2))
        a, c = pairs[int(rng.integers(0, len(pairs)))]
        blocks = state.blocks
        merged = tuple(sorted(blocks[a] + blocks[c]))
        state = SetPartition(
            [merged] + [blocks[k] for k in range(b) if k != a and k != c]
        )
        times.append(t)
        states.append(state)
    return Trajectory(tuple(times), tuple(states))


def estimate_transition(
    model: str, n: int, t: float, reps: int, seed: int
) -> dict[SetPartition, tuple[Fraction, float]]:
    """Empirical law of Π(t) over ``reps`` seeded replicates.

    Returns {partition: (exact empirical fraction, binomial standard error)}
    over all of P([n]); the fractions sum to exactly 1.
    """
    simulate = {"bs": simulate_bs, "kingman": simulate_kingman}.get(model)
    if simulate is None:
        raise ValueError(f"unknown model {model!r}; use 'bs' or 'kingman'")
    if reps < 1:
        raise ValueError("need at least one replicate")
    counts: Counter[SetPartition] = Counter()
    for i in range(reps):
        counts[simulate(n, t, replicate_rng(seed, i)).final] += 1
    out = {}
    for pi in PartitionLattice(n):
        p_hat = Fraction(counts.get(pi, 0), reps)
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
