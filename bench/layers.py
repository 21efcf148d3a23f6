"""Time coalspec layer by layer and write the figures as JSON.

Run from anywhere, with the library's dependencies installed:

    python bench/layers.py --out BENCH_<pr>.json          # n = 6, 7 and 8
    python bench/layers.py --n 4 --out /tmp/layers.json   # a quicker check

Each layer runs 3 times in this process, by a direct call, and its min and
median are recorded, at each n:

- ``lattice_s``: ``PartitionLattice(n)``
- ``walk_s``: one ``comparable_rows()`` walk of a fresh lattice, and
  ``pairs``, the number of comparable pairs it yields
- ``build_generator_s``: the BS generator on a fresh lattice, so its walk
  included, as the first matrix a command builds
- ``bs_triple_s``, ``kingman_triple_s``: the lattice triples, reading the
  walk the generator kept
- ``verify_triple_bs_s``, ``verify_triple_kingman_s``: ``verify_triple`` on
  each model's generator and triple
- ``pair_formulas_s``: the five pair formulas (``bs_transition`` at t = 0.7,
  ``bs_transition_exact`` at x = 1/3, ``bs_green``, ``bs_hitting`` and
  ``kingman_hitting``) once per pair key, on the key's first pair, and
  ``keys``, the number of distinct keys
- ``matrix_table_write_s``: the BS R and L written as JSON tables to
  ``os.devnull``
- ``pair_table_write_s``: the ``green`` table written as JSON to
  ``os.devnull``, its walk and its Green's function cells included
- ``records_write_s``: the JSON payload of BS ``simulate --t 1 --reps 20000``
  (one record per partition, no table) written to ``os.devnull``
- ``estimate_transition_bs_s``, ``estimate_transition_kingman_s``:
  ``estimate_transition`` at t = 1 with 20,000 replicates

The block-counting chains have layers of their own, at n = 80 whatever
``--n`` is: ``bs_block_triple_s`` and ``kingman_block_triple_s``, each
triple built, and ``verify_triple_bs_s`` and ``verify_triple_kingman_s``,
``verify_triple`` on each model's block generator and triple.

Then the ``green``, ``transition --x 1/3``, ``spectral`` and ``verify``
commands run at the largest n, and ``spectral --block`` for both models at
n = 80 and 200, each 3 times in a fresh process, with wall time and the
peak RSS that ``wait4`` reports.  The output records Python, numpy, the core
count, the BLAS thread count the commands run with, the git commit, whether
the work tree differs from that commit (``dirty``, None outside a git
checkout) and the sha256 of this script, so a file made with an edited
script or library says so.  Standard library only (numpy is read from its
installed metadata); pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEATS = 3
BLOCK_N = 80  # the block-chains benchmark workload's size


def summary(values: list[float]) -> dict[str, float]:
    return {"min": min(values), "median": statistics.median(values)}


def timed(fn, setup=lambda: ()) -> dict[str, float]:
    """min and median of ``REPEATS`` calls of ``fn(*setup())``; ``setup`` is
    not timed."""
    times = []
    for _ in range(REPEATS):
        args = setup()
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return summary(times)


# Starts ``python -m coalspec.cli ...`` with stdout to os.devnull and prints
# its wall time, exit code and max RSS (KiB on Linux).  The kernel reports a
# child's max RSS as at least the resident size of the process that started
# it, so the command is started from this small interpreter, not from the
# timer, which grows as it runs the layers.
SPAWN = """\
import os, sys, time
start = time.perf_counter()
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cli_commands(n: int) -> list[dict]:
    """Wall time and ``wait4`` peak RSS of each command, in fresh processes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    results = []
    # and n = 200, where CI bounds the BS command's peak RSS
    block = [f"spectral --n {size} --block --model {model}"
             for size in (BLOCK_N, 200) for model in ("bs", "kingman")]
    for argv in (f"green --n {n}", f"transition --n {n} --x 1/3", f"spectral --n {n}",
                 f"verify --n-max {max(n, 2)}", *block):
        walls, peaks = [], []
        for _ in range(REPEATS):
            run = subprocess.run(
                [sys.executable, "-S", "-c", SPAWN, "-m", "coalspec.cli", *argv.split()],
                env=env, capture_output=True, text=True, check=True,
            )
            wall, code, peak = run.stdout.split()
            if code != "0":
                sys.exit(f"coalspec {argv} exited {code}")
            walls.append(float(wall))
            peaks.append(int(peak) / 1024)
        results.append({"command": argv, "wall_s": summary(walls),
                        "peak_rss_mb": {**summary(peaks), "max": max(peaks)}})
    return results


def layers(n: int) -> dict:
    from argparse import Namespace

    from coalspec import (
        PartitionLattice, bs_green, bs_hitting, bs_rates, bs_transition, bs_transition_exact,
        bs_triple, build_generator, estimate_transition, kingman_hitting, kingman_rates,
        kingman_triple, verify_triple,
    )
    from coalspec import cli

    out: dict = {"lattice_s": timed(PartitionLattice, lambda: (n,))}
    pairs = []
    out["walk_s"] = timed(
        lambda lat: pairs.append(sum(len(js) for _, js, _ in lat.comparable_rows())),
        lambda: (PartitionLattice(n),),
    )
    out["pairs"] = pairs[0]
    out["build_generator_s"] = timed(
        build_generator, lambda: (PartitionLattice(n), bs_rates(n))
    )
    lattice = PartitionLattice(n)
    q_bs = build_generator(lattice, bs_rates(n))
    q_kingman = build_generator(lattice, kingman_rates(n))
    out["bs_triple_s"] = timed(bs_triple, lambda: (lattice,))
    out["kingman_triple_s"] = timed(kingman_triple, lambda: (lattice,))
    t_bs, t_kingman = bs_triple(lattice), kingman_triple(lattice)
    out["verify_triple_bs_s"] = timed(verify_triple, lambda: (q_bs, t_bs))
    out["verify_triple_kingman_s"] = timed(verify_triple, lambda: (q_kingman, t_kingman))
    firsts: dict = {}
    for i, js, keys in lattice.comparable_rows():
        for j, key in zip(js, keys):
            firsts.setdefault(key, (lattice[i], lattice[j]))
    x = Fraction(1, 3)

    def formulas():
        for pi, rho in firsts.values():
            bs_transition(pi, rho, 0.7)
            bs_transition_exact(pi, rho, x)
            bs_green(pi, rho)
            bs_hitting(pi, rho)
            kingman_hitting(pi, rho)

    out["pair_formulas_s"] = timed(formulas)
    out["keys"] = len(firsts)
    with open(os.devnull, "w") as sink:
        out["matrix_table_write_s"] = timed(
            lambda: cli._write_json({"R": cli._bracketed("[]", cli._matrix_rows(t_bs.R)),
                                     "L": cli._bracketed("[]", cli._matrix_rows(t_bs.L))},
                                    sink.write)
        )
    args = Namespace(format="json", out=os.devnull)

    def green_table(lat):
        el = lat.elements

        def cell(i, j):
            v = bs_green(el[i], el[j])
            return cli.format_rational(v) if v else None

        cli._emit_pair_rows(args, lat, {"model": "bs", "n": n}, cell)

    out["pair_table_write_s"] = timed(green_table, lambda: (PartitionLattice(n),))
    argv = ["simulate", "--n", str(n), "--t", "1", "--reps", "20000"]
    with redirect_stdout(io.StringIO()) as text:
        cli.main(argv)
    records = json.loads(text.getvalue())
    with open(os.devnull, "w") as sink:
        out["records_write_s"] = timed(lambda: cli._write_json(records, sink.write))
    for model in ("bs", "kingman"):
        out[f"estimate_transition_{model}_s"] = timed(
            estimate_transition, lambda: (model, n, 1.0, 20_000, 0)
        )
    return out


def block_layers() -> dict:
    """The block-counting triples and their verification at ``BLOCK_N``."""
    from coalspec import (
        bs_block_generator, bs_block_triple, kingman_block_generator, kingman_block_triple,
        verify_triple,
    )

    out: dict = {"n": BLOCK_N}
    for model, generator, triple in (("bs", bs_block_generator, bs_block_triple),
                                     ("kingman", kingman_block_generator, kingman_block_triple)):
        out[f"{model}_block_triple_s"] = timed(triple, lambda: (BLOCK_N,))
        Q, t = generator(BLOCK_N), triple(BLOCK_N)
        out[f"verify_triple_{model}_s"] = timed(verify_triple, lambda: (Q, t))
    return out


def git(*argv: str) -> str | None:
    """The output of ``git argv`` in the checkout, None if it fails."""
    try:
        run = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return run.stdout.strip()


def source() -> dict:
    """The commit, whether the work tree differs from it, and this script's sha256."""
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else status != "",
        "script_sha256": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[6, 7, 8])
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    args = parser.parse_args()
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    report = {
        **source(),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "numpy": numpy,
            "nproc": os.cpu_count(),
            # the CLI runs BLAS on one thread unless the variable is set
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "1")),
        },
        "repeats": REPEATS,
        "cli": cli_commands(max(args.n)),
    }
    sys.path.insert(0, str(SRC))
    report["layers"] = {str(n): layers(n) for n in args.n}
    report["block_layers"] = block_layers()
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
