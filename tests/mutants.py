"""Mutation checks: each mutant of the library must make its tests fail.

Run from anywhere, with pytest (and what the suite imports) installed:

    python tests/mutants.py

Each row of ``MUTANTS`` names a file of ``src/coalspec``, an exact snippet of
it, the snippet's replacement and the pytest selection that must catch the
change, and may add the interpreter flags pytest runs under (``("-O",)``
for a check that must not be an ``assert``).  The selections first run once
on the unmutated source, under each row's flags, and must pass.  Then, for
each row, ``src/`` is copied to a temporary directory, the snippet is
replaced there, and ``pytest -x`` runs the selection against the copy;
the mutant is killed when some test fails.  A snippet that does not occur
exactly once is an error, so a refactor updates the table instead of losing
the mutant.  Exits 1 if a mutant survives or a row is in error.

Standard library only; pytest does not collect this file, whose name does
not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/coalspec, exact snippet, replacement, pytest selection[,
# interpreter flags])
MUTANTS = [
    (
        # the containment memo keyed on all but the last draw
        "simulate.py",
        """\
        for row in rows:
            if row not in hit:
                tree = IncreasingTree(pi, {blocks[k]: blocks[p] for k, p in enumerate(row, 1)})
                hit[row] = contains(tree, rho)
        hits += sum(map(hit.__getitem__, rows))
""",
        """\
        for row in rows:
            if row[:-1] not in hit:
                tree = IncreasingTree(pi, {blocks[k]: blocks[p] for k, p in enumerate(row, 1)})
                hit[row[:-1]] = contains(tree, rho)
        hits += sum(hit[row[:-1]] for row in rows)
""",
        ["tests/test_simulate.py::TestEstimateContainment"],
    ),
    (
        # _Lanes.below without Lemire's threshold: every draw is taken
        "simulate.py",
        "taken[doubt] = low[doubt] >= (_2_32 - bound[doubt]) % bound[doubt]",
        "taken[doubt] = True",
        ["tests/test_simulate.py::TestLaneDraws::test_lemire_rejections"],
    ),
    (
        # the wedge test reading FE[k] in place of FE[k - 1]
        "simulate.py",
        "elif (FE[k - 1] - FE[k]) * ui + FE[k] < exp(-xi):",
        "elif (FE[k] - FE[k]) * ui + FE[k] < exp(-xi):",
        ["tests/test_simulate.py::TestLaneDraws::test_every_box_off_the_fast_path"],
    ),
    (
        # box 0's tail through log(1 - u) in place of log1p(-u)
        "simulate.py",
        "out[i] = EXP_R - log1p(-ui)",
        "out[i] = EXP_R - __import__('math').log(1 - ui)",
        ["tests/test_simulate.py::TestLaneDraws::test_every_box_off_the_fast_path"],
    ),
    (
        # a failed wedge test returning x instead of drawing again
        "simulate.py",
        "again.append(i)",
        "out[i] = xi",
        ["tests/test_simulate.py::TestLaneDraws::test_every_box_off_the_fast_path"],
    ),
    (
        # cli.main that leaves BLAS on its default thread count
        "cli.py",
        """    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n""",
        "",
        ["tests/test_cli.py::TestBlasThreads::test_one_thread_by_default"],
    ),
    (
        # _run_lanes with no jump-time check
        "simulate.py",
        """\
        if not legal.all():
            j = int(np.argmin(legal))
            _check_time(float(prev[j]), float(time[j]))
""",
        "",
        ["tests/test_simulate.py::TestEstimateTransition"],
    ),
    (
        # _product_is without its extra-column check
        "matrices.py",
        """\
        if any(acc.values()):
            return False
""",
        "",
        [
            "tests/test_spectral.py::TestInverseProducts::test_rl_flag_is_the_rl_product",
            "tests/test_matrices.py::TestProductIs",
        ],
    ),
    (
        # _within_order whose keyed flag is never cleared
        "matrices.py",
        "        keyed = dense == want\n",
        "",
        ["tests/test_matrices.py::TestWithinOrder"],
    ),
    (
        # _product_is without its unmet-row check: a target row that no
        # product row meets passes, whatever it holds
        "matrices.py",
        """\
    unmet = stored.keys() - met if rows is None else set(rows) - met
    return all(not any(row_tops[i] * tops[j] for j in stored.get(i, _EMPTY)[1])
               for i in unmet)
""",
        """\
    return True
""",
        ["tests/test_matrices.py::TestProductIs::test_target_row_no_product_row_meets"],
    ),
    (
        # _within_order that compares only the first row of each block count
        "matrices.py",
        "        keyed = dense == want\n",
        """\
        if i == first[keys[0][0]][0]:
            keyed = dense == want
""",
        ["tests/test_matrices.py::TestWithinOrder::test_entries_off_the_key_are_not_keyed"],
    ),
    (
        # _within_order that compares only the first row of each keys tuple
        "matrices.py",
        """\
            )]
        keyed = dense == want
""",
        """\
            )]
            keyed = dense == want
""",
        ["tests/test_matrices.py::TestWithinOrder::test_entries_off_the_key_are_not_keyed"],
    ),
    (
        # _within_order without its D check: diag[i] is not compared
        "matrices.py",
        "keyed = dense == want",
        "keyed = dense[1:] == want[1:]",
        ["tests/test_matrices.py::TestWithinOrder::test_entries_off_the_key_are_not_keyed"],
    ),
    (
        # _within_order without its row-denominator check: numerators only
        "matrices.py",
        "dense.append((d, nums))",
        "dense.append((1, nums))",
        ["tests/test_matrices.py::TestWithinOrder::test_entries_off_the_key_are_not_keyed"],
    ),
    (
        # _within_order classing keys by their ordered sizes, not the sorted ones
        "matrices.py",
        "sorted_keys.setdefault((k[1], *sorted(k[2])), len(sorted_keys))",
        "sorted_keys.setdefault((k[1], *k[2]), len(sorted_keys))",
        ["tests/test_matrices.py::TestWithinOrder"],
    ),
    (
        # the lattice triples walking the lattice again, not reading its kept walk
        "spectral.py",
        "return lattice._kept_rows(), partial(TriMatrix._from_columns, lattice)",
        "return lattice._walk(), partial(TriMatrix._from_columns, lattice)",
        ["tests/test_spectral.py::TestSupportFlag::test_one_walk"],
    ),
    (
        # the diagonal read taking a row's next entry when it has no diagonal one
        "matrices.py",
        "raw[(nums[k], d) if k < len(cols) and cols[k] == i else (0, 1)] += 1",
        "raw[(nums[k], d) if k < len(cols) else (0, 1)] += 1",
        [
            "tests/test_matrices.py::TestDiagonalCounts",
            "tests/test_spectral.py::TestSupportFlag::test_missing_diagonal_entry",
        ],
    ),
    (
        # the pair-table writer printing lattice names without quotes
        "cli.py",
        "names = [_escape(p.to_string()) for p in self.lattice]",
        "names = [p.to_string() for p in self.lattice]",
        ["tests/test_cli.py::TestPairTables::test_json"],
    ),
    (
        # _write_json opening every table with a list's bracket, a pair table's too
        "cli.py",
        "        sep = opening\n",
        "        sep = \"[\"\n",
        ["tests/test_cli.py::TestPairTables::test_json"],
    ),
    (
        # _write_json leaving a plain value's lines at json.dumps' own indent
        "cli.py",
        '.replace("\\n", "\\n  ")',
        "",
        ["tests/test_cli.py::TestJsonWriter::test_matches_json_dumps"],
    ),
    (
        # a pair-table row with no cells written as "{", a newline and "}"
        "cli.py",
        'yield f"{inner}{names[i]}: {{}}"',
        'yield f"{inner}{names[i]}: {{{inner}}}"',
        ["tests/test_cli.py::TestPairTables::test_rows_with_no_cells"],
    ),
    (
        # the pair rows reading every cell of a row from the row's first key
        "cli.py",
        "texts = map(memo.__getitem__, keys)",
        "texts = [memo[keys[0]]] * len(js)",
        ["tests/test_cli.py::TestPairTables::test_csv"],
    ),
    (
        # dynamics importing spectral (and with it matrices) at module level
        "dynamics.py",
        "from .partitions import SetPartition, pair_key\n",
        "from .partitions import SetPartition, pair_key\nfrom . import spectral  # noqa: F401\n",
        ["tests/test_cli.py::test_each_command_loads_only_its_modules"],
    ),
    (
        # the lanes seeded with one word count across index 2**32
        "simulate.py",
        "for a, b in ((start, min(stop, _2_32)), (max(start, _2_32), stop))",
        "for a, b in ((start, stop),)",
        ["tests/test_simulate.py::TestLaneDraws::test_draws_across_two_to_the_32"],
    ),
    (
        # _product_is reading diag(d) · C as C alone
        "matrices.py",
        "        d, scale = d * row_bottoms[i], scale * row_tops[i]\n",
        "",
        ["tests/test_matrices.py::TestProductIs"],
    ),
    (
        # _run_lanes refilling a slot that an earlier lane of the step filled
        "simulate.py",
        """\
                if table.succ[at] >= 0:  # filled by an earlier lane of this step
                    continue
""",
        "",
        ["tests/test_simulate.py::TestEstimateTransition::test_each_jump_filled_once"],
    ),
    (
        # verify_triple reading L R = I off the eigen-equations with D not
        # distinct on comparable pairs
        "spectral.py",
        "if right and support and unit and separated:",
        "if right and support and unit:",
        [
            "tests/test_spectral.py::TestEigenEquations"
            "::test_equal_eigenvalues_take_the_lr_fallback",
        ],
    ),
    (
        # verify_triple reading L R = I off the eigen-equations without unit diagonals
        "spectral.py",
        "if right and support and unit and separated:",
        "if right and support and separated:",
        ["tests/test_spectral.py::TestInverseProducts::test_lattice_flags"],
    ),
    (
        # L Q compared with L D, target's columns scaled, not with D L
        "spectral.py",
        "inverse = _product_is(L, Q, L, D, rows, scale_rows=True)",
        "inverse = _product_is(L, Q, L, D, rows)",
        ["tests/test_spectral.py::TestKeyedProducts::test_model_triples_read_n_rows"],
    ),
    (
        # _check_cap that never raises
        "partitions.py",
        """\
    limit = lattice_cap()
    if n > limit:
""",
        """\
    limit = lattice_cap()
    if False:
""",
        ["tests/test_partitions.py::TestLattice::test_cap_env_override"],
    ),
    (
        # a library check written as an assert, which python -O strips: the
        # estimator then fails later, on the lattice's own check and message
        "simulate.py",
        """\
    if n < 1:
        raise ValueError("need n >= 1")
""",
        """\
    assert n >= 1, "need n >= 1"
""",
        ["tests/test_simulate.py::TestEstimateTransition::test_errors"],
        ("-O",),
    ),
    (
        # a public name dropped from the package's one list of names
        "__init__.py",
        '"stirling_first", "stirling_second", "lah", "bell", "ascending_factorial",',
        '"stirling_first", "stirling_second", "lah", "ascending_factorial",',
        ["tests/test_source.py::test_public_definitions_are_listed"],
    ),
]


def pytest(selection: list[str], src: Path, flags: tuple = ()) -> subprocess.CompletedProcess:
    """``pytest -x`` on ``selection`` under the interpreter ``flags``,
    importing the library from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, *flags, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *selection]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def tail(run: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((run.stdout + run.stderr).strip().splitlines()[-lines:])


def main() -> int:
    rows = [(*row, ()) if len(row) == 4 else row for row in MUTANTS]
    selections: dict[tuple[str, ...], set[str]] = {}
    for *_, selection, flags in rows:
        selections.setdefault(flags, set()).update(selection)
    for flags, tests in selections.items():
        run = pytest(sorted(tests), ROOT / "src", flags)
        if run.returncode != 0:
            print(f"the selections fail on the unmutated source {flags}:\n{tail(run)}")
            return 1
    bad = 0
    for number, (name, snippet, replacement, selection, flags) in enumerate(rows, 1):
        label = f"mutant {number} ({name}, {' '.join([*flags, *selection])})"
        source = (ROOT / "src" / "coalspec" / name).read_text()
        if source.count(snippet) != 1:
            print(f"{label}: ERROR, the snippet occurs {source.count(snippet)} times, not once")
            bad += 1
            continue
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            (src / "coalspec" / name).write_text(source.replace(snippet, replacement))
            start = time.perf_counter()
            run = pytest(selection, src, flags)
            seconds = time.perf_counter() - start
        if run.returncode == 1:  # pytest's code for failed tests
            print(f"{label}: killed in {seconds:.1f} s")
        elif run.returncode == 0:
            print(f"{label}: SURVIVED")
            bad += 1
        else:
            print(f"{label}: ERROR, pytest exited {run.returncode}:\n{tail(run)}")
            bad += 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
