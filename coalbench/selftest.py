"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 coalbench/selftest.py

It checks that
- each workload's generated inputs are a pure function of the seed, also in
  a fresh interpreter with another hash seed;
- BENCHMARK.json names the same workloads and metrics as the code;
- the gate accepts one pass of every workload at seed 0, with and without
  the recorded digests;
- the gate rejects a flipped verification flag, one exact entry changed,
  a float row off by 1e-9, a |z| of 7 (as a reported z-score and as an
  exact law moved so that its own z-statistic is 7), a nonzero exit,
  unparsable output, and JSON of the wrong shape (verification flags or
  rows given as a list).

It runs about 30 s and exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import gate
import layers
import run
from workloads import SIM_REPS, WORKLOADS, jobs

SEEDS = range(5)
SEEDLESS = {"exact-lattice", "block-chains"}


class SelfTestError(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestError(message)


def emit(payload: dict) -> bytes:
    """Serialize like the CLI does."""
    return (json.dumps(payload, indent=2) + "\n").encode()


def check_seed_purity() -> None:
    here = {w: [[asdict(j) for j in jobs(w, s)] for s in SEEDS] for w in WORKLOADS}
    code = (
        "import json, sys\n"
        "from dataclasses import asdict\n"
        "from workloads import WORKLOADS, jobs\n"
        f"print(json.dumps({{w: [[asdict(j) for j in jobs(w, s)] for s in {list(SEEDS)}]"
        " for w in WORKLOADS}))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    fresh = subprocess.run(
        [sys.executable, "-c", code], cwd=run.BENCH, env=env, capture_output=True, check=True
    )
    expect(json.loads(fresh.stdout) == json.loads(json.dumps(here)), "inputs depend on more than the seed")
    for w in WORKLOADS:
        again = [[asdict(j) for j in jobs(w, s)] for s in SEEDS]
        expect(again == here[w], f"{w}: second call differs")
        distinct = len({json.dumps(v) for v in here[w]})
        if w in SEEDLESS:
            expect(distinct == 1, f"{w} should not depend on the seed")
        else:
            expect(distinct > 1, f"{w}: every seed gives the same inputs")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json disagrees with the code")
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END), "BENCHMARK.json disagrees with the code")
    expect(all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"]), "BENCHMARK.json disagrees with the code")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(declared == [(name, unit, better) for name, unit, better, _ in layers.METRICS], "BENCHMARK.json disagrees with the code")


def edited(output: bytes, edit) -> bytes:
    payload = json.loads(output)
    edit(payload)
    return emit(payload)


def corruptions(outputs: dict[str, bytes]) -> dict[str, tuple[str, str, dict[str, bytes]]]:
    """name -> (workload, job id, corrupted outputs of the pass)."""

    def flip_flag(p):
        p["verification"]["lr_identity"] = False

    def change_exact_entry(p):
        row = p["rows"]["1|2|3|4|5|6|7"]
        target = next(iter(row))
        row[target] = "1/2" if row[target] != "1/2" else "1/3"

    def float_row_off(p):
        row = p["rows"]["1|2|3|4|5|6,7"]
        for target, value in row.items():
            row[target] = f"{float(value) + 1e-9:.15g}"

    def flags_as_list(p):
        p["verification"] = list(p["verification"].values())

    def rows_as_list(p):
        p["rows"] = list(p["rows"].values())

    def tested_rows(p):
        return [r for r in p["rows"] if float(r["exact"]) * SIM_REPS >= gate.MIN_EXPECTED]

    def reported_z_seven(p):
        tested_rows(p)[0]["z_score"] = "7"

    def law_moved_to_z_seven(p):
        # Move exact mass between two tested states so that the gate's own
        # statistic for the first is 7 while the law still sums to 1.
        # The new exact value p < estimate e solves (e - p)^2 = 49 p (1 - p) / reps.
        a, b = tested_rows(p)[:2]
        e, k = float(a["estimate"]), 49 / SIM_REPS
        root = ((2 * e + k) - math.sqrt((2 * e + k) ** 2 - 4 * (1 + k) * e * e)) / (2 * (1 + k))
        delta = root - float(a["exact"])
        for row, shift in ((a, delta), (b, -delta)):
            exact = float(row["exact"]) + shift
            row["exact"] = f"{exact:.15g}"
            se = float(row["std_error"])
            row["z_score"] = f"{(float(row['estimate']) - exact) / se:.15g}"

    cases = {
        "flipped verification flag": ("exact-lattice", "spectral_bs", flip_flag),
        "one exact entry changed": ("pair-formulas", "transition_x", change_exact_entry),
        "float row off by 1e-9": ("pair-formulas", "transition_t", float_row_off),
        "verification flags as a list": ("exact-lattice", "spectral_kingman", flags_as_list),
        "rows as a list": ("pair-formulas", "transition_x", rows_as_list),
        "reported |z| of 7": ("tree-montecarlo", "simulate_bs", reported_z_seven),
        "exact law moved to |z| of 7": ("tree-montecarlo", "simulate_kingman", law_moved_to_z_seven),
    }
    out = {}
    for name, (workload, job_id, edit) in cases.items():
        corrupted = dict(outputs[workload])
        corrupted[job_id] = edited(outputs[workload][job_id], edit)
        out[name] = (workload, job_id, corrupted)
    out["unparsable output"] = (
        "block-chains",
        "spectral_block_bs",
        {**outputs["block-chains"], "spectral_block_bs": outputs["block-chains"]["spectral_block_bs"][:-20]},
    )
    return out


def main() -> int:
    check_seed_purity()
    print("ok  inputs are a pure function of the seed")
    check_benchmark_json()
    print("ok  BENCHMARK.json matches the code")

    digests = gate.load_digests()
    work = run.BENCH / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(work)
    outputs: dict[str, dict[str, bytes]] = {}
    try:
        runner.probe()
        for workload in WORKLOADS:
            runner.restart_clock()
            job_list = jobs(workload, 0)
            runs = runner.run_pass(job_list)
            outputs[workload] = {r.id: r.out for r in runs}
            codes = {r.id: r.returncode for r in runs}
            for mode in (digests, None):
                failures = gate.check_pass(workload, 0, job_list, outputs[workload], codes, mode)
                expect(not failures, f"{workload}: gate rejected this commit's output: {failures}")
            has = gate.recorded(digests, workload, 0) is not None
            print(f"ok  gate accepts {workload} at seed 0 (digests recorded: {has})")
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    for name, (workload, job_id, corrupted) in corruptions(outputs).items():
        job_list = jobs(workload, 0)
        codes = {j.id: 0 for j in job_list}
        for mode, label in ((None, "invariants"), (digests, "digests")):
            failures = gate.check_pass(workload, 0, job_list, corrupted, codes, mode)
            expect(job_id in failures, f"{name}: {label} accepted it")
            print(f"ok  gate rejects {name} ({label}): {failures[job_id][:90]}")
    job_list = jobs("block-chains", 0)
    codes = {j.id: 0 for j in job_list} | {"spectral_block_kingman": 1}
    failures = gate.check_pass("block-chains", 0, job_list, outputs["block-chains"], codes, None)
    expect("spectral_block_kingman" in failures, "nonzero exit accepted")
    print("ok  gate rejects a nonzero exit")
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
