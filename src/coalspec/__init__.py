"""Exact spectral theory of Bolthausen-Sznitman and Kingman n-coalescents.

The package builds coalescent generators on the set-partition lattice in
exact rational arithmetic, factors them through closed-form eigenvector
matrices, evaluates transition, Green and hitting quantities, and validates
everything against independent oracles and seeded Monte Carlo built on random
recursive trees.

``import coalspec`` loads none of its modules.  Each public name is listed
once, in ``_EXPORTS`` below, with the module that defines it; each library
module takes its ``__all__`` from its entry there.  The module is imported
the first time one of its names (or the module itself, ``coalspec.spectral``)
is read from the package, and the name is then bound here.
``from coalspec import *`` loads every module.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it defines: the package's and the module's __all__
_EXPORTS = {
    "combinatorics": (
        "stirling_first", "stirling_second", "lah", "bell", "ascending_factorial",
    ),
    "dynamics": (
        "bs_transition", "bs_transition_exact", "bs_green", "bs_hitting",
        "bs_block_green", "kingman_hitting", "transition_via_triple",
    ),
    "generator": (
        "RateTable", "bs_rates", "kingman_rates", "build_generator",
        "bs_block_generator", "kingman_block_generator", "characteristic_factorization",
    ),
    "matrices": ("RatMatrix", "TriMatrix"),
    "oracles": (
        "matexp_series", "fundamental_matrix", "enumerate_maximal_chains",
        "hitting_bruteforce",
    ),
    "partitions": (
        "SetPartition", "PartitionLattice", "SizeLimitError", "set_partitions",
        "pair_key", "restriction_sizes", "coarsenings", "merge_covers", "pair_covers",
        "interval", "count_maximal_chains", "lattice_cap", "DEFAULT_N_CAP", "ENV_N_CAP",
    ),
    "rrt": (
        "IncreasingTree", "sample_rrt", "enumerate_increasing_trees", "cut_edge",
        "cut_random", "contains", "count_trees_containing",
    ),
    "simulate": (
        "Trajectory", "simulate_bs", "simulate_kingman", "estimate_transition",
        "estimate_containment", "replicate_rng",
    ),
    "spectral": (
        "SpectralTriple", "VerificationReport", "bs_triple", "kingman_triple",
        "bs_block_triple", "kingman_block_triple", "verify_triple",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


# role -> (module, BS function, Kingman function), the one pairing of the two
# models, read with _model; None: the model has no such function
_MODELS = {
    "rates": ("generator", "bs_rates", "kingman_rates"),
    "block_generator": ("generator", "bs_block_generator", "kingman_block_generator"),
    "triple": ("spectral", "bs_triple", "kingman_triple"),
    "block_triple": ("spectral", "bs_block_triple", "kingman_block_triple"),
    "hitting": ("dynamics", "bs_hitting", "kingman_hitting"),
    "transition": ("dynamics", "bs_transition", None),
    "transition_exact": ("dynamics", "bs_transition_exact", None),
    "rule": ("simulate", "_BsRule", "_KingmanRule"),
}
_MODEL_NAMES = ("bs", "kingman")


def _model(name: str, role: str):
    """Model ``name``'s function for ``role``, or None where it has none.

    The module is imported and the function read from it on every call, so
    a caller loads only the modules it uses, and a replaced module attribute
    (a tracer's wrapper, a test's counter) is the one called.
    """
    if name not in _MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; use 'bs' or 'kingman'")
    module, bs, kingman = _MODELS[role]
    attr = bs if name == "bs" else kingman
    return None if attr is None else getattr(_import_module(f"{__name__}.{module}"), attr)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
