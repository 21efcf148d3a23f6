"""Layer sweep: time each coalspec layer once, in-process, at n = 6, 7, 8.

Run from the repository root:

    python3 coalbench/sweep.py > sweep.json

For every n it records exact counts (comparable pairs, generator nonzeros,
distinct closed-form keys, multiply-adds of the three products in
``verify_triple``) and one wall time per layer.  ``verify_triple`` runs only
for n <= 7.  The sweep is for tracing a regression to a layer; nothing gates
on it.  At n = 8 it takes about two minutes on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

import coalspec  # noqa: E402
from coalspec import (  # noqa: E402
    PartitionLattice,
    bs_green,
    bs_hitting,
    bs_rates,
    bs_transition,
    bs_transition_exact,
    bs_triple,
    build_generator,
    coarsenings,
    kingman_hitting,
    kingman_rates,
    kingman_triple,
    replicate_rng,
    restriction_sizes,
    simulate_bs,
    simulate_kingman,
    verify_triple,
)

N = (6, 7, 8)
VERIFY_N_MAX = 7
SIM_REPLICATES = 2000


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def madds(a, b) -> int:
    """Products a_ik b_kj that a sparse a·b forms, counted from the sparsity."""
    rows_b = Counter(i for i, _, _ in b.nonzeros())
    return sum(rows_b[k] for _, k, _ in a.nonzeros())


def over_pairs(fn, pairs) -> float:
    start = perf_counter()
    for pi, rho in pairs:
        fn(pi, rho)
    return perf_counter() - start


def sweep(n: int) -> dict:
    out: dict = {}
    lattice, out["lattice_s"] = timed(PartitionLattice, n)

    def walk():
        return [(pi, rho) for pi in lattice for rho in coarsenings(pi)]

    pairs, out["pair_walk_s"] = timed(walk)
    out["pairs"] = len(pairs)
    keys = {(len(p), len(r), tuple(sorted(restriction_sizes(p, r)))) for p, r in pairs}
    out["distinct_keys"] = len(keys)

    for model, rates, triple_fn in (
        ("bs", bs_rates(n), bs_triple),
        ("kingman", kingman_rates(n), kingman_triple),
    ):
        Q, out[f"{model}.generator_build_s"] = timed(build_generator, lattice, rates)
        out[f"{model}.generator_nnz"] = Q.nnz()
        triple, out[f"{model}.triple_s"] = timed(triple_fn, lattice)
        rd = triple.R.scaled_cols(triple.D)
        out[f"{model}.verify_madds"] = (
            madds(rd, triple.L) + madds(triple.L, triple.R) + madds(triple.R, triple.L)
        )
        if n <= VERIFY_N_MAX:
            report, out[f"{model}.verify_triple_s"] = timed(verify_triple, Q, triple)
            out[f"{model}.verify_all_pass"] = report.all_pass

    x = Fraction(1, 2)
    below_top = [(p, r) for p, r in pairs if len(r) > 1]
    out["bs_transition_s"] = over_pairs(lambda p, r: bs_transition(p, r, 1.0), pairs)
    out["bs_transition_exact_s"] = over_pairs(lambda p, r: bs_transition_exact(p, r, x), pairs)
    out["bs_green_s"] = over_pairs(bs_green, pairs)
    out["bs_hitting_s"] = over_pairs(bs_hitting, below_top)
    out["kingman_hitting_s"] = over_pairs(kingman_hitting, pairs)
    for model, simulate in (("bs", simulate_bs), ("kingman", simulate_kingman)):
        start = perf_counter()
        for i in range(SIM_REPLICATES):
            simulate(n, 1.0, replicate_rng(0, i))
        out[f"{model}.replicate_mean_us"] = (perf_counter() - start) / SIM_REPLICATES * 1e6
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    record = {
        "environment": {
            "coalspec": coalspec.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "n": {},
    }
    for n in N:
        record["n"][str(n)] = sweep(n)
        print(f"n={n} done", file=sys.stderr, flush=True)
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
