"""bench/layers.py runs and writes its schema; no timing is checked."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from coalspec import PartitionLattice

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

LAYERS = [
    "lattice_s", "walk_s", "build_generator_s", "bs_triple_s", "kingman_triple_s",
    "verify_triple_bs_s", "verify_triple_kingman_s", "pair_formulas_s",
    "matrix_table_write_s", "pair_table_write_s", "records_write_s",
    "estimate_transition_bs_s", "estimate_transition_kingman_s",
]

BLOCK_LAYERS = [
    "bs_block_triple_s", "kingman_block_triple_s", "verify_triple_bs_s",
    "verify_triple_kingman_s",
]


def test_layers_at_n_4(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--n", "4", "--out", str(out)], check=True)
    report = json.loads(out.read_text())
    assert set(report) == {"commit", "dirty", "script_sha256", "environment", "repeats", "cli",
                           "layers", "block_layers"}
    assert report["dirty"] in (True, False, None)
    assert report["script_sha256"] == hashlib.sha256(SCRIPT.read_bytes()).hexdigest()
    env = report["environment"]
    assert set(env) == {"python", "implementation", "platform", "numpy", "nproc", "blas_threads"}
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["nproc"] >= 1 and env["blas_threads"] >= 1
    assert report["repeats"] == 3
    assert [c["command"] for c in report["cli"]] == [
        "green --n 4", "transition --n 4 --x 1/3", "spectral --n 4", "verify --n-max 4",
        *(f"spectral --n {n} --block --model {model}"
          for n in (80, 200) for model in ("bs", "kingman")),
    ]
    for c in report["cli"]:
        assert 0 < c["wall_s"]["min"] <= c["wall_s"]["median"]
        rss = c["peak_rss_mb"]
        assert 0 < rss["min"] <= rss["median"] <= rss["max"]
    assert list(report["layers"]) == ["4"]
    layers = report["layers"]["4"]
    assert set(layers) == {*LAYERS, "pairs", "keys"}
    assert layers["pairs"] == 60  # sum over the 15 partitions of bell(|π|)
    lattice = PartitionLattice(4)
    assert layers["keys"] == len({key for _, _, keys in lattice.comparable_rows() for key in keys})
    for name in LAYERS:
        assert 0 <= layers[name]["min"] <= layers[name]["median"], name
    block = report["block_layers"]
    assert set(block) == {"n", *BLOCK_LAYERS} and block["n"] == 80
    for name in BLOCK_LAYERS:
        assert 0 < block[name]["min"] <= block[name]["median"], name
