"""Exact spectral theory of Bolthausen-Sznitman and Kingman n-coalescents.

The package builds coalescent generators on the set-partition lattice in
exact rational arithmetic, factors them through closed-form eigenvector
matrices, evaluates transition, Green and hitting quantities, and validates
everything against independent oracles and seeded Monte Carlo built on random
recursive trees.
"""

from .combinatorics import (
    ascending_factorial,
    bell,
    lah,
    stirling_first,
    stirling_second,
)
from .dynamics import (
    bs_block_green,
    bs_green,
    bs_hitting,
    bs_transition,
    bs_transition_exact,
    kingman_hitting,
    transition_via_triple,
)
from .generator import (
    RateTable,
    bs_block_generator,
    bs_rates,
    build_generator,
    characteristic_factorization,
    kingman_block_generator,
    kingman_rates,
)
from .matrices import RatMatrix, TriMatrix
from .oracles import (
    enumerate_maximal_chains,
    fundamental_matrix,
    hitting_bruteforce,
    matexp_series,
)
from .partitions import (
    DEFAULT_N_CAP,
    PartitionLattice,
    SetPartition,
    SizeLimitError,
    coarsenings,
    count_maximal_chains,
    interval,
    merge_covers,
    pair_covers,
    pair_key,
    restriction_sizes,
    set_partitions,
)
from .rrt import (
    IncreasingTree,
    contains,
    count_trees_containing,
    cut_edge,
    cut_random,
    enumerate_increasing_trees,
    sample_rrt,
)
from .simulate import (
    Trajectory,
    estimate_containment,
    estimate_transition,
    replicate_rng,
    simulate_bs,
    simulate_kingman,
)
from .spectral import (
    SpectralTriple,
    VerificationReport,
    bs_block_triple,
    bs_triple,
    kingman_block_triple,
    kingman_triple,
    verify_triple,
)

__version__ = "0.1.0"

__all__ = [
    "ascending_factorial",
    "bell",
    "lah",
    "stirling_first",
    "stirling_second",
    "bs_block_green",
    "bs_green",
    "bs_hitting",
    "bs_transition",
    "bs_transition_exact",
    "kingman_hitting",
    "transition_via_triple",
    "RateTable",
    "bs_block_generator",
    "bs_rates",
    "build_generator",
    "characteristic_factorization",
    "kingman_block_generator",
    "kingman_rates",
    "RatMatrix",
    "TriMatrix",
    "enumerate_maximal_chains",
    "fundamental_matrix",
    "hitting_bruteforce",
    "matexp_series",
    "DEFAULT_N_CAP",
    "PartitionLattice",
    "SetPartition",
    "SizeLimitError",
    "coarsenings",
    "count_maximal_chains",
    "interval",
    "merge_covers",
    "pair_covers",
    "pair_key",
    "restriction_sizes",
    "set_partitions",
    "IncreasingTree",
    "contains",
    "count_trees_containing",
    "cut_edge",
    "cut_random",
    "enumerate_increasing_trees",
    "sample_rrt",
    "Trajectory",
    "estimate_containment",
    "estimate_transition",
    "replicate_rng",
    "simulate_bs",
    "simulate_kingman",
    "SpectralTriple",
    "VerificationReport",
    "bs_block_triple",
    "bs_triple",
    "kingman_block_triple",
    "kingman_triple",
    "verify_triple",
    "__version__",
]
