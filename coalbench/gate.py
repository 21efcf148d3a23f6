"""Correctness gate for the benchmark's coalspec CLI jobs.

Every job of a pass is checked on its own output, and some against another
job of the same pass.  A job fails on a nonzero exit, on output that is not
JSON, on a failed invariant, or, for seeds with recorded digests, on output
that is not byte-identical to the recorded one.  The invariants use only the
standard library, never coalspec, so a defect in the program cannot hide a
defect in its check.

Record digests for more seeds with
``python3 coalbench/gate.py --record <first-seed> <last-seed>``, run from the
repository root on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist

from workloads import SIM_REPS, WORKLOADS, Job, jobs

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Largest |transition --t − transition --x| accepted at the same point x.
FLOAT_TOL = 1e-12
# Family-wise false-alarm rate of the Monte Carlo z bound, split over the
# states tested (Bonferroni).  At 1e-6 a correct program fails a simulate job
# with probability about 3e-5: the binomial tail is heavier than the normal
# one when the expected count is near 5.
Z_ALPHA = 1e-6
MIN_EXPECTED = 5


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def comparable_pairs(n: int) -> int:
    """Pairs π ≤ ρ in P([n]): a partition with k blocks has bell(k) coarsenings."""
    return sum(stirling2(n, k) * bell(k) for k in range(1, n + 1))


def block_count(partition: str) -> int:
    return partition.count("|") + 1


def eigenvalue(model: str, blocks: int) -> Fraction:
    return Fraction(1 - blocks) if model == "bs" else Fraction(-blocks * (blocks - 1) // 2)


def exact(text: str):
    return math.inf if text == "inf" else Fraction(text)


class GateError(Exception):
    """One failed check; the message names the check and the entry."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def arg(job: Job, flag: str, default: str | None = None) -> str | None:
    argv = job.argv
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_verification(payload: dict) -> None:
    flags = payload["verification"]
    require(len(flags) == 5, f"expected 5 verification flags, got {sorted(flags)}")
    bad = [name for name, ok in flags.items() if ok is not True]
    require(not bad, f"verification flags false: {bad}")


def check_spectral(job: Job, payload: dict) -> None:
    n = int(arg(job, "--n"))
    model = arg(job, "--model")
    block = "--block" in job.argv
    require(payload["n"] == n and payload["model"] == model, "header mismatch")
    require(payload["block_counting"] is block, "block_counting flag mismatch")
    check_verification(payload)
    if block:
        entries = n * (n + 1) // 2
        spectrum = {eigenvalue(model, i): 1 for i in range(1, n + 1)}
        order_len = n
    else:
        entries = comparable_pairs(n)
        spectrum = {eigenvalue(model, k): stirling2(n, k) for k in range(1, n + 1)}
        order_len = bell(n)
    require(len(payload["order"]) == order_len, "order has the wrong length")
    require(len(payload["R"]) == entries, f"R has {len(payload['R'])} entries, not {entries}")
    require(len(payload["L"]) == entries, f"L has {len(payload['L'])} entries, not {entries}")
    d_counts: dict[Fraction, int] = {}
    for d in payload["D"]:
        d_counts[Fraction(d)] = d_counts.get(Fraction(d), 0) + 1
    require(d_counts == spectrum, "D is not the spectrum with Stirling multiplicities")
    listed = {Fraction(ev): mult for ev, mult in payload["eigenvalues"]}
    require(listed == spectrum, "eigenvalue list disagrees with the spectrum")


def check_verify(job: Job, payload: dict) -> None:
    require(payload["n_max"] == int(arg(job, "--n-max")), "n_max mismatch")
    checks = payload["checks"]
    require(checks, "no checks ran")
    bad = [(c["n"], c["check"]) for c in checks if c["pass"] is not True]
    require(not bad, f"failed checks: {bad}")
    require(payload["all_pass"] is True, "all_pass is not true")


def check_rows_cover_lattice(job: Job, payload: dict) -> None:
    n = int(arg(job, "--n"))
    require(payload["n"] == n, "n mismatch")
    require(len(payload["rows"]) == bell(n), "rows do not cover P([n])")


def check_transition_x(job: Job, payload: dict) -> None:
    check_rows_cover_lattice(job, payload)
    require(payload["x"] == arg(job, "--x"), "x mismatch")
    for source, row in payload["rows"].items():
        values = [Fraction(v) for v in row.values()]
        require(all(0 <= v <= 1 for v in values), f"row {source}: value outside [0, 1]")
        require(sum(values) == 1, f"row {source} sums to {sum(values)}, not 1")


def check_transition_t(job: Job, payload: dict, exact_payload: dict) -> None:
    check_rows_cover_lattice(job, payload)
    exact_rows = exact_payload["rows"]
    require(payload["rows"].keys() == exact_rows.keys(), "sources differ from transition --x")
    for source, row in payload["rows"].items():
        exact_row = exact_rows[source]
        require(exact_row.keys() <= row.keys(), f"row {source}: targets missing")
        for target, value in row.items():
            err = abs(float(value) - float(Fraction(exact_row.get(target, "0"))))
            require(err <= FLOAT_TOL, f"({source}, {target}): |float − exact| = {err:.3g}")


def check_green(job: Job, payload: dict) -> None:
    check_rows_cover_lattice(job, payload)
    for source, row in payload["rows"].items():
        for target, value in row.items():
            g = exact(value)
            if block_count(target) == 1:
                require(g == math.inf, f"({source}, {target}): absorbing entry is {value}")
            else:
                require(0 < g < math.inf, f"({source}, {target}): entry {value}")


def check_hitting_bs(job: Job, payload: dict, green_payload: dict) -> None:
    check_rows_cover_lattice(job, payload)
    green_rows = green_payload["rows"]
    for source, row in payload["rows"].items():
        require(row.keys() == green_rows[source].keys(), f"row {source}: targets differ")
        for target, value in row.items():
            h = Fraction(value)
            r = block_count(target)
            want = Fraction(1) if r == 1 else exact(green_rows[source][target]) * (r - 1)
            require(h == want, f"({source}, {target}): hitting {value} != green·(|ρ|−1)")


def check_hitting_kingman(job: Job, payload: dict) -> None:
    # Kingman merges one pair at a time, so from π it visits exactly one
    # state with k blocks for every k <= |π|.
    check_rows_cover_lattice(job, payload)
    for source, row in payload["rows"].items():
        per_k: dict[int, Fraction] = {}
        for target, value in row.items():
            h = Fraction(value)
            require(0 < h <= 1, f"({source}, {target}): hitting {value}")
            per_k[block_count(target)] = per_k.get(block_count(target), 0) + h
        want = {k: 1 for k in range(1, block_count(source) + 1)}
        require(per_k == want, f"row {source}: per-block-count sums {per_k}")


def z_bound(tested: int) -> float:
    return NormalDist().inv_cdf(1 - Z_ALPHA / (2 * tested))


def check_simulate(job: Job, payload: dict) -> None:
    n = int(arg(job, "--n"))
    reps = int(arg(job, "--reps"))
    require(reps == SIM_REPS and payload["reps"] == reps, "reps mismatch")
    require(payload["n"] == n and payload["seed"] == int(arg(job, "--seed")), "header mismatch")
    rows = payload["rows"]
    require(len(rows) == bell(n), "rows do not cover P([n])")
    estimates = [Fraction(r["estimate"]) for r in rows]
    require(all((p * reps).denominator == 1 for p in estimates), "estimate is not count/reps")
    require(sum(estimates) == 1, f"estimates sum to {sum(estimates)}, not 1")
    law = [float(r["exact"]) for r in rows]
    require(min(law) >= -FLOAT_TOL, f"negative exact probability {min(law)}")
    require(abs(sum(law) - 1) <= 1e-9, f"exact law sums to {sum(law)}")
    worst, tested = 0.0, 0
    for r, p_hat, p in zip(rows, estimates, law):
        se, z = float(r["std_error"]), float(r["z_score"])
        reported = (float(p_hat) - p) / se if se > 0 else 0.0
        require(abs(z - reported) <= 1e-6, f"{r['partition']}: z_score {z} != {reported}")
        if p * reps >= MIN_EXPECTED:
            # The gate's own statistic uses the exact law's standard error;
            # the reported one, built on the estimate, has heavy tails at
            # small counts.
            tested += 1
            worst = max(worst, abs(float(p_hat) - p) / math.sqrt(p * (1 - p) / reps))
    require(tested > 0, "no state has expected count >= 5")
    require(worst < z_bound(tested), f"max |z| {worst:.2f} >= {z_bound(tested):.2f}")


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def recorded(digests: dict, workload: str, seed: int) -> dict | None:
    """Digests recorded for ``workload`` at ``seed``; "*" holds seedless ones."""
    per_workload = digests.get(workload, {})
    return per_workload.get("*", per_workload.get(str(seed)))


def check_pass(
    workload: str,
    seed: int,
    jobs: list[Job],
    outputs: dict[str, bytes],
    returncodes: dict[str, int],
    digests: dict | None,
) -> dict[str, str]:
    """Check one pass; returns {job id: reason} for every job that failed."""
    failures: dict[str, str] = {}
    payloads: dict[str, dict] = {}
    want = recorded(digests, workload, seed) if digests is not None else None
    for job in jobs:
        if returncodes[job.id] != 0:
            failures[job.id] = f"exit code {returncodes[job.id]}"
            continue
        try:
            payloads[job.id] = json.loads(outputs[job.id])
        except ValueError as exc:
            failures[job.id] = f"unparsable output: {exc}"
            continue
        if want is not None:
            digest = hashlib.sha256(outputs[job.id]).hexdigest()
            if digest != want[job.id]:
                failures[job.id] = "output differs from the recorded digest"
    for job in jobs:
        if job.id not in payloads:
            continue
        payload = payloads[job.id]
        command = job.argv[0]
        try:
            if command == "spectral":
                check_spectral(job, payload)
            elif command == "verify":
                check_verify(job, payload)
            elif command == "transition" and "--x" in job.argv:
                check_transition_x(job, payload)
            elif command == "transition":
                require("transition_x" in payloads, "no transition --x output to compare")
                check_transition_t(job, payload, payloads["transition_x"])
            elif command == "green":
                check_green(job, payload)
            elif command == "hitting" and arg(job, "--model", "bs") == "bs":
                require("green" in payloads, "no green output to compare")
                check_hitting_bs(job, payload, payloads["green"])
            elif command == "hitting":
                check_hitting_kingman(job, payload)
            elif command == "simulate":
                check_simulate(job, payload)
            else:
                raise GateError(f"no check for command {command!r}")
        except GateError as exc:
            failures.setdefault(job.id, str(exc))
        except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
            failures.setdefault(job.id, f"malformed output: {exc!r}")
    return failures


def main() -> int:
    import run  # imported here: only recording digests runs the program

    parser = argparse.ArgumentParser(description="Record output digests for a range of seeds.")
    parser.add_argument("--record", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args()
    digests = load_digests()
    work = run.BENCH / ".work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(work)
    try:
        runner.probe()
        seeds = range(args.record[0], args.record[1] + 1)
        for workload in WORKLOADS:
            seedless = jobs(workload, seeds[0]) == jobs(workload, seeds[-1])
            for seed in seeds[:1] if seedless else seeds:
                runner.restart_clock()
                job_list = jobs(workload, seed)
                runs = runner.run_pass(job_list)
                outputs = {r.id: r.out for r in runs}
                codes = {r.id: r.returncode for r in runs}
                failures = check_pass(workload, seed, job_list, outputs, codes, None)
                if failures:
                    raise SystemExit(f"{workload} seed {seed}: {failures}")
                entry = {r.id: hashlib.sha256(r.out).hexdigest() for r in runs}
                digests.setdefault(workload, {})["*" if seedless else str(seed)] = entry
                print(workload, seed, "recorded", flush=True)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
