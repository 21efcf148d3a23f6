"""Per-layer metrics of a traced pass, named ``<module>.<metric>``.

``METRICS`` lists every metric with its unit, its better direction and the
end-to-end metric and workload it is expected to move; BENCHMARK.json's
``per_layer`` list is this table without the last column.  Times are summed
over the pass's jobs and are inclusive unless the name says ``self``.
"""

from __future__ import annotations

from workloads import ALL_JOB_IDS

LATTICE = "exact-lattice"
PAIRS = "pair-formulas"
TREES = "tree-montecarlo"
BLOCKS = "block-chains"

# (name, unit, better, what it should move)
METRICS = [
    ("partitions.lattice_s", "s", "lower", f"setup_s on {LATTICE}, {PAIRS}, {TREES}"),
    ("partitions.pair_walk_s", "s", "lower", f"wall_s on {LATTICE}, {PAIRS}"),
    ("partitions.pairs", "count", "lower", f"wall_s on {LATTICE}, {PAIRS}"),
    ("generator.build_s", "s", "lower", f"wall_s on {LATTICE}"),
    ("generator.nnz", "count", "lower", f"wall_s on {LATTICE}"),
    ("spectral.bs_triple_s", "s", "lower", f"wall_s on {LATTICE}; {TREES} a little"),
    ("spectral.kingman_triple_s", "s", "lower", f"wall_s on {LATTICE}; {TREES} a little"),
    ("spectral.block_triple_s", "s", "lower", f"wall_s on {BLOCKS}"),
    ("spectral.verify_triple_self_s", "s", "lower", f"wall_s on {LATTICE}"),
    ("matrices.matmul_s", "s", "lower", f"wall_s on {LATTICE}, {BLOCKS}; none on {PAIRS}"),
    ("matrices.matmul_calls", "count", "lower", f"wall_s on {LATTICE}, {BLOCKS}"),
    ("matrices.madds", "count", "lower", f"wall_s on {LATTICE}, {BLOCKS}; none on {PAIRS}"),
    ("matrices.madds_per_s", "1/s", "higher", f"wall_s on {LATTICE}, {BLOCKS}"),
    ("matrices.entry_bits_max", "bits", "lower", f"wall_s on {LATTICE}, {BLOCKS}"),
    ("dynamics.bs_transition_s", "s", "lower", f"wall_s on {PAIRS}"),
    ("dynamics.bs_transition_exact_s", "s", "lower", f"wall_s on {PAIRS}"),
    ("dynamics.bs_green_s", "s", "lower", f"wall_s on {PAIRS}"),
    ("dynamics.bs_hitting_s", "s", "lower", f"wall_s on {PAIRS}"),
    ("dynamics.kingman_hitting_s", "s", "lower", f"wall_s on {PAIRS}"),
    ("dynamics.calls", "count", "lower", f"wall_s on {PAIRS}"),
    ("dynamics.distinct_keys", "count", "lower", f"wall_s on {PAIRS}"),
    ("dynamics.key_reuse", "ratio", "higher", f"wall_s on {PAIRS}"),
    ("dynamics.transition_via_triple_s", "s", "lower", f"wall_s on {TREES}"),
    ("rrt.sample_rrt_s", "s", "lower", f"wall_s on {TREES}"),
    ("rrt.cut_random_s", "s", "lower", f"wall_s on {TREES}"),
    ("rrt.cuts", "count", "lower", f"wall_s on {TREES}"),
    ("simulate.estimate_transition_s", "s", "lower", f"wall_s on {TREES}"),
    ("simulate.replicates", "count", "lower", f"wall_s on {TREES}"),
    ("simulate.replicate_mean_us_bs", "us", "lower", f"wall_s on {TREES}"),
    ("simulate.replicate_mean_us_kingman", "us", "lower", f"wall_s on {TREES}"),
    ("oracles.matexp_series_s", "s", "lower", f"wall_s on {LATTICE}, through verify"),
    ("oracles.fundamental_matrix_s", "s", "lower", f"wall_s on {LATTICE}, through verify"),
    ("oracles.hitting_bruteforce_s", "s", "lower", f"wall_s on {LATTICE}, through verify"),
    *[(f"cli.{job}_s", "s", "lower", "wall_s on the job's workload") for job in ALL_JOB_IDS],
    ("cli.out_bytes", "bytes", "lower", f"wall_s on every workload; peak_rss_mb on {LATTICE}"),
    ("cli.self_s", "s", "lower", f"wall_s on every workload; peak_rss_mb on {LATTICE}"),
    ("trace.overhead_s", "s", "lower", "nothing: the cost of tracing itself"),
]


def layer_metrics(traces: list[dict], untraced: list, traced: list) -> dict[str, float]:
    """Per-layer values from one repeat: each job run once untraced, once traced.

    ``traces`` are the launcher's records; ``untraced`` and ``traced`` are
    the job results (``run.JobRun``).
    """

    def total(name: str, column: int = 1) -> float:
        return sum(t["totals"].get(name, (0, 0.0, 0.0))[column] for t in traces)

    def calls(name: str) -> int:
        return int(total(name, 0))

    def count(name: str) -> int:
        return sum(t["counts"].get(name, 0) for t in traces)

    def mean_us(name: str) -> float:
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    matmul_s, madds = total("matrices.matmul"), count("matrices.madds")
    dynamics_calls = count("dynamics.calls")
    keys = {(k[0], k[1], tuple(k[2])) for t in traces for k in t["keys"]}
    wall = {job.id: job.wall for job in untraced}
    values = {
        "partitions.lattice_s": total("partitions.PartitionLattice"),
        "partitions.pair_walk_s": total("partitions.coarsenings"),
        "partitions.pairs": count("partitions.pairs"),
        "generator.build_s": total("generator.build_generator"),
        "generator.nnz": count("generator.nnz"),
        "spectral.bs_triple_s": total("spectral.bs_triple"),
        "spectral.kingman_triple_s": total("spectral.kingman_triple"),
        "spectral.block_triple_s": total("spectral.bs_block_triple")
        + total("spectral.kingman_block_triple"),
        "spectral.verify_triple_self_s": total("spectral.verify_triple", 2),
        "matrices.matmul_s": matmul_s,
        "matrices.matmul_calls": calls("matrices.matmul"),
        "matrices.madds": madds,
        "matrices.madds_per_s": madds / matmul_s if matmul_s else 0.0,
        "matrices.entry_bits_max": max(
            (t["peaks"].get("matrices.entry_bits_max", 0) for t in traces), default=0
        ),
        "dynamics.calls": dynamics_calls,
        "dynamics.distinct_keys": len(keys),
        "dynamics.key_reuse": len(keys) / dynamics_calls if dynamics_calls else 0.0,
        "rrt.cuts": calls("rrt.cut_random"),
        "simulate.replicates": calls("simulate.simulate_bs") + calls("simulate.simulate_kingman"),
        "simulate.replicate_mean_us_bs": mean_us("simulate.simulate_bs"),
        "simulate.replicate_mean_us_kingman": mean_us("simulate.simulate_kingman"),
        "cli.out_bytes": sum(len(job.out) for job in untraced),
        "cli.self_s": total("cli.main", 2),
        "trace.overhead_s": sum(j.wall for j in traced) - sum(j.wall for j in untraced),
    }
    for name in (
        "dynamics.bs_transition", "dynamics.bs_transition_exact", "dynamics.bs_green",
        "dynamics.bs_hitting", "dynamics.kingman_hitting", "dynamics.transition_via_triple",
        "rrt.sample_rrt", "rrt.cut_random", "simulate.estimate_transition",
        "oracles.matexp_series", "oracles.fundamental_matrix", "oracles.hitting_bruteforce",
    ):
        values[f"{name}_s"] = total(name)
    for job in ALL_JOB_IDS:
        values[f"cli.{job}_s"] = wall.get(job, 0.0)
    return {name: values[name] for name, *_ in METRICS}


def span_paths(trace: dict) -> dict[str, list]:
    """One job's spans grouped by their chain of ancestors: path -> [calls, seconds]."""
    by_index = {span[0]: span for span in trace["spans"]}
    paths: dict[str, list] = {}
    for span in trace["spans"]:
        names, ancestor = [], span
        while ancestor is not None:
            names.append(ancestor[1])
            ancestor = by_index.get(ancestor[4])
        entry = paths.setdefault(" > ".join(reversed(names)), [0, 0.0])
        entry[0] += 1
        entry[1] += span[3] - span[2]
    return paths
