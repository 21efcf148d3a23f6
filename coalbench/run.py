"""Benchmark of the coalspec CLI, end to end and layer by layer.

Run from the repository root:

    python3 coalbench/run.py --workload exact-lattice --seed 0 --seconds 24 --trace 0

A workload is a list of CLI jobs made from the seed (workloads.py).  One pass
runs each job once as a fresh ``python -m coalspec.cli`` process, one at a
time, started by a small helper (spawn.py), and the gate (gate.py) checks
every output.  With ``--trace 0`` the run makes as many passes as fit in
``--seconds`` at the source commit's speed, a fixed number for each workload
and length, with a set-up probe launched between jobs every few seconds, and
reports the end-to-end metrics as medians over passes and probes.  With
``--trace 1`` it runs each job untraced and through the tracing launcher
(launch.py) back to back, in alternating order, a few times over, and reports
the per-layer metrics (layers.py) as medians over the repeats.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is taken
from ``src/`` under the repository root; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import gate
import layers
from workloads import SETUP_N, WORKLOADS, Job, jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCHER = BENCH / "launch.py"
SPAWNER = BENCH / "spawn.py"

# The set-up probe runs once every SETUP_EVERY_S seconds of a run, between
# jobs, and at least SETUP_MIN_PROBES times; setup_s is the median.  The
# machine's speed drifts over tens of seconds, so probes spread over the whole
# run give a steadier median than the same number taken back to back.
SETUP_EVERY_S = 2.0
SETUP_MIN_PROBES = 5
# Seconds one pass takes at the source commit, set-up probes included, on a
# 2-core Xeon VM.  A run makes round(--seconds / PASS_S) passes, at least one:
# a count that depends on the machine's speed flips from run to run, and a
# median over 2 passes moves when it becomes one over 3.
PASS_S = {
    "exact-lattice": 11.8,
    "pair-formulas": 10.1,
    "tree-montecarlo": 7.7,
    "block-chains": 5.4,
}
# A traced run makes this many repeats of each job, untraced and traced.
TRACE_REPEATS = 3
# Jobs still running this long after a workload started are killed, so that
# a run ends within 180 s even when the program hangs.
RUN_DEADLINE_S = 165

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The program cannot be run from this checkout."""


@dataclass(frozen=True)
class JobRun:
    id: str
    returncode: int
    wall: float  # s, from spawn to exit
    cpu: float  # s, user plus system
    rss_mb: float  # the process's max RSS
    out: bytes
    err: bytes


class Runner:
    """Launches the program's processes one at a time, through spawn.py.

    A job still running RUN_DEADLINE_S after the last ``restart_clock`` is
    killed, and none starts after that.
    """

    def __init__(self, work: Path):
        self.work = work
        self.restart_clock()
        paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        self.spawner = subprocess.Popen(
            [sys.executable, str(SPAWNER)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def restart_clock(self) -> None:
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def close(self) -> None:
        """Stop the spawner once its current job, if any, has ended."""
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def launch(self, job_id: str, argv: list[str]) -> JobRun:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return JobRun(job_id, -1, 0.0, 0.0, 0.0, b"", b"run deadline passed")
        out_path, err_path = self.work / f"{job_id}.out", self.work / f"{job_id}.err"
        request = {
            "argv": argv,
            "out": str(out_path),
            "err": str(err_path),
            "timeout": remaining,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise SetupError("the process spawner exited")
        returncode, wall, cpu, rss_kib = json.loads(reply)
        return JobRun(
            job_id,
            returncode,
            wall,
            cpu,
            rss_kib / 1024,
            out_path.read_bytes(),
            err_path.read_bytes(),
        )

    def run_job(self, job: Job, traced: bool = False) -> JobRun:
        if traced:
            trace = str(self.work / f"{job.id}.trace.json")
            argv = [sys.executable, str(LAUNCHER), trace, job.id, "--", *job.argv]
        else:
            argv = [sys.executable, "-m", "coalspec.cli", *job.argv]
        return self.launch(job.id, argv)

    def run_pass(self, job_list: list[Job]) -> list[JobRun]:
        return [self.run_job(job) for job in job_list]

    def probe(self) -> dict[str, str]:
        """Check that coalspec imports from this checkout; returns versions."""
        if not (SRC / "coalspec" / "__init__.py").is_file():
            raise SetupError(f"no coalspec package under {SRC}")
        code = (
            "import coalspec, numpy, sys\n"
            "print(coalspec.__file__, coalspec.__version__, numpy.__version__, "
            "sys.version.split()[0])"
        )
        result = self.launch("probe", [sys.executable, "-c", code])
        if result.returncode != 0:
            raise SetupError(f"importing coalspec failed: {result.err.decode()[-500:]}")
        path, version, numpy_version, python_version = result.out.decode().split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"coalspec imported from {path}, not from {SRC}")
        return {
            "coalspec": version,
            "python": python_version,
            "numpy": numpy_version,
            "nproc": str(os.cpu_count()),
        }

    def setup_time(self, workload: str) -> float:
        """Wall time of a fresh interpreter importing coalspec and building the lattice."""
        n = SETUP_N[workload]
        code = "import coalspec" + (f"\ncoalspec.PartitionLattice({n})" if n else "")
        result = self.launch("setup", [sys.executable, "-c", code])
        if result.returncode != 0:
            raise SetupError(f"set-up probe failed: {result.err.decode()[-500:]}")
        return result.wall


def gate_pass(workload: str, seed: int, job_list: list[Job], runs: list[JobRun], digests) -> int:
    """Check one pass; reports each failed job on stderr and returns their number."""
    failures = gate.check_pass(
        workload,
        seed,
        job_list,
        {r.id: r.out for r in runs},
        {r.id: r.returncode for r in runs},
        digests,
    )
    for job_id, reason in failures.items():
        err = next(r.err for r in runs if r.id == job_id).decode(errors="replace")
        print(f"FAILED {workload} seed {seed} {job_id}: {reason} {err[-300:]}", file=sys.stderr)
    return len(failures)


def measure(runner: Runner, workload: str, seed: int, seconds: float, digests) -> dict:
    """End-to-end metrics of one workload, with tracing off."""
    job_list = jobs(workload, seed)
    passes: list[list[JobRun]] = []
    setup: list[float] = []
    failed = 0
    start = time.perf_counter()
    for _ in range(max(1, round(seconds / PASS_S[workload]))):
        runs = []
        for job in job_list:
            while len(setup) * SETUP_EVERY_S <= time.perf_counter() - start:
                setup.append(runner.setup_time(workload))
            runs.append(runner.run_job(job))
        passes.append(runs)
        failed += gate_pass(workload, seed, job_list, runs, digests)
    while len(setup) < SETUP_MIN_PROBES:
        setup.append(runner.setup_time(workload))
    return {
        "attempted": len(job_list) * len(passes),
        "failed": failed,
        "passes": len(passes),
        "metrics": {
            "setup_s": median(setup),
            "wall_s": median(sum(r.wall for r in p) for p in passes),
            "cpu_s": median(sum(r.cpu for r in p) for p in passes),
            "peak_rss_mb": median(max(r.rss_mb for r in p) for p in passes),
        },
        "units": END_TO_END,
    }


def measure_layers(runner: Runner, workload: str, seed: int, digests) -> dict:
    """Per-layer metrics, as medians over TRACE_REPEATS repeats of the jobs.

    In a repeat each job runs untraced and traced back to back; which runs
    first alternates from job to job and from repeat to repeat, so that the
    machine's drift does not push ``trace.overhead_s`` one way.
    """
    job_list = jobs(workload, seed)
    repeats: list[dict[str, float]] = []
    failed = 0
    for repeat in range(TRACE_REPEATS):
        untraced, traced = [], []
        for i, job in enumerate(job_list):
            if (repeat + i) % 2:
                traced.append(runner.run_job(job, traced=True))
                untraced.append(runner.run_job(job))
            else:
                untraced.append(runner.run_job(job))
                traced.append(runner.run_job(job, traced=True))
        failed += gate_pass(workload, seed, job_list, untraced, digests)
        failed += gate_pass(workload, seed, job_list, traced, digests)
        traces = []
        for job in job_list:
            path = runner.work / f"{job.id}.trace.json"
            if path.exists():
                traces.append(json.loads(path.read_text()))
                path.unlink()
        repeats.append(layers.layer_metrics(traces, untraced, traced))
    spans = [
        f"  {trace['job']}: {path} {calls}x {seconds:.4f} s"
        for trace in traces
        for path, (calls, seconds) in layers.span_paths(trace).items()
    ]
    return {
        "attempted": 2 * len(job_list) * TRACE_REPEATS,
        "failed": failed,
        "passes": 2 * TRACE_REPEATS,
        "metrics": {name: median(r[name] for r in repeats) for name in repeats[0]},
        "units": {name: unit for name, unit, *_ in layers.METRICS},
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    try:
        try:
            environment = runner.probe()
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        digests = gate.load_digests()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        print("environment:", " ".join(f"{k}={v}" for k, v in environment.items()))
        results = {}
        for workload in workloads:
            runner.restart_clock()
            if args.trace:
                result = measure_layers(runner, workload, args.seed, digests)
            else:
                result = measure(runner, workload, args.seed, args.seconds, digests)
            results[workload] = result
            print(f"{workload} seed={args.seed} passes={result['passes']}")
            for name, value in result["metrics"].items():
                print(f"  {name} {value:.6g} {result['units'][name]}")
            error_rate = result["failed"] / result["attempted"]
            print(f"  error_rate {error_rate:.6g} ({result['failed']} of {result['attempted']} jobs)")
            if args.trace:
                print("spans of the last traced repeat (job: path calls seconds):", *result["spans"], sep="\n")
            sys.stdout.flush()
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(r["failed"] for r in results.values())
    values = {
        (n if len(workloads) == 1 else f"{w}.{n}"): {"value": v, "unit": r["units"][n]}
        for w, r in results.items()
        for n, v in r["metrics"].items()
    }
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": values,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
