"""The benchmark's workloads: each is a list of coalspec CLI jobs made from a seed.

The CLI receives only the arguments generated here, and the same seed always
gives the same arguments.  Why each workload exists is in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("exact-lattice", "pair-formulas", "tree-montecarlo", "block-chains")

# Lattice size built by each workload's set-up probe; None means import only.
SETUP_N = {
    "exact-lattice": 7,
    "pair-formulas": 7,
    "tree-montecarlo": 6,
    "block-chains": None,
}

SIM_REPS = 20000


@dataclass(frozen=True)
class Job:
    """One CLI call; ``id`` also names its ``cli.<id>_s`` metric."""

    id: str
    argv: tuple[str, ...]


def pair_point(seed: int) -> tuple[int, int]:
    """The rational x = p/q in (0, 1), with q <= 9, that pair-formulas uses."""
    rng = random.Random(seed)
    q = rng.randint(3, 9)
    p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
    return p, q


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass over ``workload`` for ``seed``, in run order."""
    if workload == "exact-lattice":
        return [
            Job("spectral_bs", ("spectral", "--n", "7", "--model", "bs")),
            Job("spectral_kingman", ("spectral", "--n", "7", "--model", "kingman")),
            Job("verify", ("verify", "--n-max", "6")),
        ]
    if workload == "pair-formulas":
        p, q = pair_point(seed)
        t = repr(-math.log(p / q))
        return [
            Job("transition_x", ("transition", "--n", "7", "--x", f"{p}/{q}")),
            Job("transition_t", ("transition", "--n", "7", "--t", t)),
            Job("green", ("green", "--n", "7")),
            Job("hitting_bs", ("hitting", "--n", "7")),
            Job("hitting_kingman", ("hitting", "--n", "7", "--model", "kingman")),
        ]
    if workload == "tree-montecarlo":
        rng = random.Random(seed)
        # t stays near 1: the number of cuts per replicate, and so the run
        # time, grows with t, and a narrow range keeps seeds comparable.
        t = f"{rng.uniform(0.9, 1.1):.3f}"
        sim_seed = str(rng.randrange(2**31))
        common = ("--n", "6", "--reps", str(SIM_REPS), "--t", t, "--seed", sim_seed)
        return [
            Job("simulate_bs", ("simulate", "--model", "bs") + common),
            Job("simulate_kingman", ("simulate", "--model", "kingman") + common),
        ]
    if workload == "block-chains":
        return [
            Job("spectral_block_bs", ("spectral", "--n", "80", "--block", "--model", "bs")),
            Job(
                "spectral_block_kingman",
                ("spectral", "--n", "80", "--block", "--model", "kingman"),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


ALL_JOB_IDS = tuple(job.id for w in WORKLOADS for job in jobs(w, 0))
