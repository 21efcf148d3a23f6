"""Run the end-to-end benchmark on a parent commit and on the work tree, alternated.

Run from anywhere in a git checkout:

    python bench/ab.py --against HEAD~1 --workload exact-lattice
    python bench/ab.py --against main --workload block-chains --pairs 10 --seconds 24 --seed 0

Two trees are built side by side in a temporary directory: the parent's
from ``git archive REV src``, the change's from a copy of the work tree's
``src/``, committed or not, and each with a copy of the work tree's
``coalbench/``.  So both sides run the same benchmark code from paths of
the same length on the same file system, and differ only in ``src/``.  A
pair runs ``coalbench/run.py --trace 0`` once on each tree, each in a fresh
process, the parent first on even pairs and the change first on odd ones,
so a drift of the machine's speed falls on both sides alike.  ``run.py``
checks that each side imports its own ``src/``.

For each end-to-end metric it prints both sides' median and inclusive
quartiles over the pairs, the change's median over the parent's less one,
the number of pairs in which the change was lower (a tie counts for
neither side) and the metric's bound from ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the same figures and every run's
value.  Progress goes to standard error.  Exits 1 if any run is not
``"correct"``, and 2 if a tree cannot be built or ``run.py`` fails to report.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupError(RuntimeError):
    """A tree cannot be built, or ``run.py`` did not report."""


def git(*argv: str) -> bytes:
    """The output of ``git argv`` in the checkout; ``SetupError`` if it fails."""
    try:
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              check=True).stdout
    except OSError as exc:
        raise SetupError(f"git {' '.join(argv)} failed: {exc}")
    except subprocess.CalledProcessError as exc:
        raise SetupError(f"git {' '.join(argv)} failed: {exc.stderr.decode().strip()}")


def git_text(*argv: str) -> str:
    return git(*argv).decode().strip()


def build_tree(commit: str | None, into: Path) -> None:
    """``src/`` of ``commit``, or of the work tree when None, and the work
    tree's ``coalbench/``, under ``into``."""
    skip = shutil.ignore_patterns(".work", "__pycache__")
    if commit is None:
        shutil.copytree(ROOT / "src", into / "src", ignore=skip)
    else:
        # the "data" filter refuses absolute paths and links out of the tree
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit, "src"))) as archive:
            archive.extractall(into, **safe)
    shutil.copytree(ROOT / "coalbench", into / "coalbench", ignore=skip)


def run_once(tree: Path, args) -> dict:
    """The last line of ``run.py`` on ``tree``, parsed."""
    argv = [sys.executable, str(tree / "coalbench" / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    run = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    raise SetupError(f"run.py on {tree} exited {run.returncode} without a report: "
                     f"{run.stderr[-500:]}")


def spread(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]], bounds: dict[str, float]) -> dict:
    """Per metric: both sides' values and spread, the pairs the change won, the bound."""
    out = {}
    for name, first in runs["parent"][0]["metrics"].items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p, c = spread(parent), spread(change)
        out[name] = {
            "unit": first["unit"],
            # with --workload all a name is "<workload>.<metric>"
            "bound": bounds.get(name.rsplit(".", 1)[-1]),
            "parent": {**p, "values": parent},
            "change": {**c, "values": change},
            "relative": c["median"] / p["median"] - 1 if p["median"] else None,
            "change_lower": sum(b < a for a, b in zip(parent, change)),
        }
    return out


def table(report: dict) -> str:
    head = (f"{'metric':<24} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
            f"{'change/parent-1':>15} {'lower':>7} {'bound':>6}")
    lines = [head]
    for name, m in report["metrics"].items():
        p, c, k = m["parent"], m["change"], report["pairs"]
        side = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {m['unit']}"
        rel = "n/a" if m["relative"] is None else f"{m['relative']:+.1%}"
        bound = "-" if m["bound"] is None else f"{m['bound']:.0%}"
        lines.append(f"{name:<24} {side(p):<30} {side(c):<30} {rel:>15} "
                     f"{m['change_lower']:>3} of {k:<2} {bound:>6}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True, help="a coalbench workload, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        parent = git_text("rev-parse", "--verify", f"{args.against}^{{commit}}")
        head = git_text("rev-parse", "HEAD")
        dirty = git_text("status", "--porcelain", "--untracked-files=no") != ""
        bounds = {m["name"]: m["bound"]
                  for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        with tempfile.TemporaryDirectory(prefix="coalspec-ab-") as tmp:
            trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
            build_tree(parent, trees["parent"])
            build_tree(None, trees["change"])
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    print(f"pair {k + 1} of {args.pairs}: {side}", file=sys.stderr, flush=True)
                    runs[side].append(run_once(trees[side], args))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] is True for side in runs.values() for r in side)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "parent": {"commit": parent},
        "change": {"commit": head, "dirty": dirty},
        "correct": correct,
        "metrics": compare(runs, bounds),
    }
    print(table(report))
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
