"""bench/ab.py runs both trees and reports its schema; no timing is checked."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "ab.py"

BOUNDS = {m["name"]: m["bound"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_one_pair_against_head():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        head = None
    if head is None or head.returncode != 0:
        pytest.skip("not a git checkout")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", "HEAD", "--pairs", "1", "--seconds", "1",
         "--workload", "block-chains"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == ["pair 1 of 1: parent", "pair 1 of 1: change"]
    *table, last = run.stdout.splitlines()
    assert table[0].split()[:2] == ["metric", "parent"] and len(table) == 1 + len(BOUNDS)
    report = json.loads(last)
    assert set(report) == {"workload", "seed", "seconds", "pairs", "parent", "change",
                           "correct", "metrics"}
    assert (report["workload"], report["seed"], report["seconds"], report["pairs"]) == (
        "block-chains", 0, 1.0, 1)
    sha = head.stdout.strip()
    assert report["parent"] == {"commit": sha}
    assert report["change"]["commit"] == sha and report["change"]["dirty"] in (True, False)
    assert report["correct"] is True
    assert set(report["metrics"]) == set(BOUNDS)
    for name, m in report["metrics"].items():
        assert set(m) == {"unit", "bound", "parent", "change", "relative", "change_lower"}
        assert m["bound"] == BOUNDS[name]
        for side in (m["parent"], m["change"]):
            assert set(side) == {"median", "q1", "q3", "values"} and len(side["values"]) == 1
            assert side["q1"] == side["median"] == side["q3"] == side["values"][0] > 0
        assert m["change_lower"] in (0, 1)
        assert m["relative"] == m["change"]["median"] / m["parent"]["median"] - 1
