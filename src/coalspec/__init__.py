"""Exact spectral theory of Bolthausen-Sznitman and Kingman n-coalescents.

The package builds coalescent generators on the set-partition lattice in
exact rational arithmetic, factors them through closed-form eigenvector
matrices, evaluates transition, Green and hitting quantities, and validates
everything against independent oracles and seeded Monte Carlo built on random
recursive trees.
"""

from . import (
    combinatorics,
    dynamics,
    generator,
    matrices,
    oracles,
    partitions,
    rrt,
    simulate,
    spectral,
)
from .combinatorics import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .generator import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .partitions import *  # noqa: F401,F403
from .rrt import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (combinatorics, dynamics, generator, matrices,
                   oracles, partitions, rrt, simulate, spectral)
    for name in module.__all__
] + ["__version__"]
