"""The command-line interface: formats, exit codes, reproducibility."""

import csv
import functools
import io
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import coalspec
from coalspec import (
    PartitionLattice,
    SizeLimitError,
    bell,
    bs_block_generator,
    bs_block_triple,
    bs_green,
    bs_hitting,
    bs_rates,
    bs_transition,
    bs_transition_exact,
    bs_triple,
    build_generator,
    characteristic_factorization,
    kingman_block_generator,
    kingman_block_triple,
    kingman_hitting,
    kingman_rates,
    kingman_triple,
    transition_via_triple,
)
from coalspec.cli import _entries_payload, format_rational, format_real, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestFormatting:
    def test_rationals(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-5, 36)) == "-5/36"
        assert format_rational(Fraction(2)) == "2/1"
        assert format_rational(0) == "0/1"
        assert format_rational(float("inf")) == "inf"

    def test_reals(self):
        assert format_real(0.5) == "0.5"
        assert format_real(1.0) == "1"
        assert float(format_real(0.1234567890123456789)) == pytest.approx(
            0.123456789012346, rel=1e-15
        )


class TestLattice:
    def test_json(self, capsys):
        payload = run_json(capsys, "lattice", "--n", "4")
        assert payload["n"] == 4
        assert payload["count"] == bell(4) == len(payload["partitions"])
        assert payload["partitions"][0] == "1|2|3|4"
        assert payload["partitions"][-1] == "1,2,3,4"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["1|2|3"], ["1|2,3"], ["1,2|3"], ["1,3|2"], ["1,2,3"]]

    def test_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("COALSPEC_N_CAP", "3")
        code, _, err = run(capsys, "lattice", "--n", "4")
        assert code == 2
        assert "cap" in err

    def test_far_over_cap_fails_fast_and_short(self, capsys):
        code, out, err = run(capsys, "lattice", "--n", "2000")
        assert (code, out) == (2, "")
        assert "cap" in err and len(err) < 200

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "lattice.json"
        code, out, _ = run(capsys, "lattice", "--n", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["count"] == 5


class TestQmatrix:
    def test_lattice_json(self, capsys):
        payload = run_json(capsys, "qmatrix", "--n", "3", "--model", "bs")
        assert payload["order"][0] == "1|2|3"
        entries = {(i, j): v for i, j, v in payload["entries"]}
        assert entries[(0, 0)] == "-2/1"
        assert entries[(0, 1)] == "1/2"
        assert (4, 4) not in entries  # zero diagonal of the absorbing state

    def test_block_csv(self, capsys):
        code, out, _ = run(
            capsys, "qmatrix", "--n", "4", "--model", "kingman", "--block",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["row", "col", "value"]
        assert ["3", "2", "6/1"] in rows
        assert ["3", "3", "-6/1"] in rows


class TestEntriesPayload:
    """The payload read off integer rows equals formatting every Fraction."""

    @staticmethod
    def check(M):
        want = [[i, j, format_rational(v)] for i, j, v in M.nonzeros()]
        assert _entries_payload(M) == want

    def test_lattice_triples_and_generators(self, lattices):
        models = (
            (bs_rates, bs_triple),
            (kingman_rates, kingman_triple),
        )
        for n in range(1, 7):
            for rates, triple_of in models:
                t = triple_of(lattices[n])
                self.check(t.R)
                self.check(t.L)
                self.check(build_generator(lattices[n], rates(n)))

    def test_block_triples_and_generators(self):
        models = (
            (bs_block_triple, bs_block_generator),
            (kingman_block_triple, kingman_block_generator),
        )
        for n in range(1, 31):
            for triple_of, generator_of in models:
                t = triple_of(n)
                self.check(t.R)
                self.check(t.L)
                self.check(generator_of(n))


def test_numpy_is_loaded_only_by_float_paths():
    """Exact commands leave numpy unimported; simulate and verify load it."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from coalspec.cli import main

        def quiet(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv

        quiet("spectral", "--n", "4")
        quiet("spectral", "--n", "4", "--block")
        quiet("transition", "--n", "4", "--x", "1/2")
        quiet("green", "--n", "4")
        quiet("hitting", "--n", "4", "--model", "kingman")
        print("numpy" in sys.modules)
        quiet("simulate", "--n", "3", "--t", "1", "--reps", "50")
        quiet("verify", "--n-max", "3")
        print("numpy" in sys.modules)
        """
    )
    src = str(Path(coalspec.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


class TestSpectral:
    def test_verification_block(self, capsys):
        payload = run_json(
            capsys, "spectral", "--n", "6", "--model", "kingman", "--block"
        )
        assert payload["verification"]["q_equals_rdl"]
        assert all(payload["verification"].values())
        assert payload["D"] == ["0/1", "-1/1", "-3/1", "-6/1", "-10/1", "-15/1"]
        assert payload["eigenvalues"] == [
            ["0/1", 1], ["-1/1", 1], ["-3/1", 1], ["-6/1", 1], ["-10/1", 1],
            ["-15/1", 1],
        ]
        # n distinct eigenvalues, one per block count, in the order of D
        for model in ("bs", "kingman"):
            for n in (1, 2, 40):
                payload = run_json(
                    capsys, "spectral", "--n", str(n), "--model", model, "--block"
                )
                assert payload["eigenvalues"] == [[d, 1] for d in payload["D"]]

    def test_lattice_multiplicities(self, capsys):
        payload = run_json(capsys, "spectral", "--n", "4", "--model", "bs")
        assert payload["eigenvalues"] == [
            ["0/1", 1], ["-1/1", 7], ["-2/1", 6], ["-3/1", 1]
        ]
        assert sum(m for _, m in payload["eigenvalues"]) == bell(4)
        # read off Q's diagonal, they are the rate table's (-λ_b, S(n, b))
        for model, rates_for in (("bs", bs_rates), ("kingman", kingman_rates)):
            for n in range(1, 7):
                rates = rates_for(n)
                Q = build_generator(PartitionLattice(n), rates)
                payload = run_json(capsys, "spectral", "--n", str(n), "--model", model)
                assert payload["eigenvalues"] == [
                    [format_rational(ev), mult]
                    for ev, mult in characteristic_factorization(Q, rates)
                ]

    def test_csv_rejected(self, capsys):
        code, _, err = run(capsys, "spectral", "--n", "3", "--format", "csv")
        assert code == 2
        assert "JSON" in err


class TestTransition:
    def test_exact_point(self, capsys):
        payload = run_json(capsys, "transition", "--n", "3", "--x", "1")
        # x = 1 is the identity: diagonal entries only
        for source, row in payload["rows"].items():
            assert row == {source: "1/1"}

    def test_exact_point_nontrivial(self, capsys):
        payload = run_json(capsys, "transition", "--n", "2", "--x", "1/2")
        assert payload["rows"]["1|2"] == {"1|2": "1/2", "1,2": "1/2"}

    def test_time_rows_sum_to_one(self, capsys):
        payload = run_json(capsys, "transition", "--n", "4", "--t", "0.7")
        for row in payload["rows"].values():
            assert sum(float(v) for v in row.values()) == pytest.approx(1.0, abs=1e-12)

    def test_kingman_time(self, capsys):
        payload = run_json(
            capsys, "transition", "--n", "3", "--model", "kingman", "--t", "0.5"
        )
        total = sum(float(v) for v in payload["rows"]["1|2|3"].values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_time_past_exp_overflow(self, capsys):
        # e^709.79 overflows a double; the table is the t -> inf limit
        payload = run_json(capsys, "transition", "--n", "3", "--t", "709.79")
        for source, row in payload["rows"].items():
            for target, value in row.items():
                assert value == ("1" if target == "1,2,3" else "0")

    @pytest.mark.filterwarnings("error")
    def test_kingman_time_past_overflow(self, capsys):
        # t * D overflows to -inf: the t -> inf limit, with no float warning
        payload = run_json(
            capsys, "transition", "--n", "4", "--model", "kingman", "--t", "1e308"
        )
        for source, row in payload["rows"].items():
            for target, value in row.items():
                assert float(value) == (1.0 if target == "1,2,3,4" else 0.0)

    def test_argument_validation(self, capsys):
        code, _, err = run(capsys, "transition", "--n", "3")
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, "transition", "--n", "3", "--t", "1", "--x", "1")
        assert code == 2
        code, _, err = run(
            capsys, "transition", "--n", "3", "--model", "kingman", "--x", "1"
        )
        assert code == 2 and "bs" in err


class TestGreenAndHitting:
    def test_green_values(self, capsys):
        payload = run_json(capsys, "green", "--n", "3")
        row = payload["rows"]["1|2|3"]
        assert row["1|2|3"] == "1/2"
        assert row["1,2|3"] == "1/4"
        assert row["1,2,3"] == "inf"

    def test_hitting_bs(self, capsys):
        payload = run_json(capsys, "hitting", "--n", "4", "--model", "bs")
        row = payload["rows"]["1|2|3|4"]
        assert row["1,2|3,4"] == "1/18"
        assert row["1,2,3|4"] == "5/36"
        assert row["1,2,3,4"] == "1/1"

    def test_hitting_kingman_csv(self, capsys):
        code, out, _ = run(
            capsys, "hitting", "--n", "4", "--model", "kingman", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["source", "target", "value"]
        assert ["1|2|3|4", "1,2|3,4", "1/9"] in rows


def _exact_cell(lat, i, j):
    v = bs_transition_exact(lat[i], lat[j], Fraction(2, 5))
    return format_rational(v) if v else None  # --x leaves zero entries out


@functools.cache
def _kingman_transition(n, t):
    return transition_via_triple(kingman_triple(PartitionLattice(n)), t)


FULL_TABLES = {
    "transition-x": (
        ("transition", "--x", "2/5"), _exact_cell,
    ),
    "transition-t-bs": (
        ("transition", "--t", "0.7"),
        lambda lat, i, j: format_real(bs_transition(lat[i], lat[j], 0.7)),
    ),
    # at t = 0.1 the 15-digit values of bs_transition depend on the order of
    # the restriction sizes, so a memo keyed on sorted sizes shows here
    "transition-t-bs-small": (
        ("transition", "--t", "0.1"),
        lambda lat, i, j: format_real(bs_transition(lat[i], lat[j], 0.1)),
    ),
    "transition-t-kingman": (
        ("transition", "--t", "0.7", "--model", "kingman"),
        lambda lat, i, j: format_real(_kingman_transition(lat.n, 0.7)[i, j]),
    ),
    "green": (
        ("green",),
        lambda lat, i, j: format_rational(bs_green(lat[i], lat[j])),
    ),
    "hitting-bs": (
        ("hitting", "--model", "bs"),
        lambda lat, i, j: "1/1" if len(lat[j]) == 1
        else format_rational(bs_hitting(lat[i], lat[j])),
    ),
    "hitting-kingman": (
        ("hitting", "--model", "kingman"),
        lambda lat, i, j: format_rational(kingman_hitting(lat[i], lat[j])),
    ),
}


class TestFullTables:
    """Every row and column at n = 5 against one public call per pair."""

    N = 5

    @staticmethod
    def expected(cell, n):
        lat = PartitionLattice(n)
        rows = []
        for i, pi in enumerate(lat):
            row = []
            for j, rho in enumerate(lat):
                if pi.refines(rho):
                    text = cell(lat, i, j)
                    if text is not None:
                        row.append((rho.to_string(), text))
            rows.append((pi.to_string(), row))
        return rows

    @pytest.mark.parametrize("name", sorted(FULL_TABLES))
    def test_json(self, capsys, name):
        argv, cell = FULL_TABLES[name]
        payload = run_json(capsys, *argv, "--n", str(self.N))
        got = [(source, list(row.items())) for source, row in payload["rows"].items()]
        assert got == self.expected(cell, self.N)

    @pytest.mark.parametrize("name", sorted(FULL_TABLES))
    def test_csv(self, capsys, name):
        argv, cell = FULL_TABLES[name]
        code, out, err = run(capsys, *argv, "--n", str(self.N), "--format", "csv")
        assert code == 0, err
        expect = [["source", "target", "value"]]
        for source, row in self.expected(cell, self.N):
            expect += [[source, target, text] for target, text in row]
        assert list(csv.reader(io.StringIO(out))) == expect


class TestSimulate:
    def test_reproducible_bytes(self, capsys):
        argv = ("simulate", "--n", "3", "--t", "0.5", "--reps", "400",
                "--seed", "7", "--format", "csv")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_estimates_close_to_exact(self, capsys):
        payload = run_json(
            capsys, "simulate", "--n", "3", "--t", "0.8", "--reps", "4000",
            "--seed", "3",
        )
        assert payload["reps"] == 4000
        total = 0.0
        for row in payload["rows"]:
            total += float(row["estimate"])
            if float(row["std_error"]) > 0:
                assert abs(float(row["z_score"])) < 5.0
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_time_past_exp_overflow(self, capsys):
        payload = run_json(
            capsys, "simulate", "--n", "3", "--t", "800", "--reps", "50", "--seed", "0",
        )
        for row in payload["rows"]:
            absorbed = row["partition"] == "1,2,3"
            assert row["exact"] == row["estimate"] == ("1" if absorbed else "0")

    @pytest.mark.filterwarnings("error")
    def test_kingman_time_past_overflow(self, capsys):
        payload = run_json(
            capsys, "simulate", "--n", "4", "--model", "kingman", "--t", "1e308",
            "--reps", "50", "--seed", "0",
        )
        for row in payload["rows"]:
            absorbed = row["partition"] == "1,2,3,4"
            assert float(row["exact"]) == float(row["estimate"]) == (1.0 if absorbed else 0.0)

    def test_kingman_has_exact_column(self, capsys):
        payload = run_json(
            capsys, "simulate", "--n", "3", "--model", "kingman", "--t", "0.5",
            "--reps", "500", "--seed", "1",
        )
        exact = {row["partition"]: float(row["exact"]) for row in payload["rows"]}
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("model", ["bs", "kingman"])
    def test_lattice_built_once(self, capsys, monkeypatch, model):
        builds = []
        init = PartitionLattice.__init__

        def counted(self, n):
            builds.append(n)
            init(self, n)

        monkeypatch.setattr(PartitionLattice, "__init__", counted)
        run_json(capsys, "simulate", "--n", "4", "--model", model, "--t", "0.5",
                 "--reps", "20", "--seed", "2")
        assert builds == [4]


class TestVerify:
    def test_passes(self, capsys):
        payload = run_json(capsys, "verify", "--n-max", "3")
        assert payload["all_pass"] is True
        names = {c["check"] for c in payload["checks"]}
        assert {"bs-triple", "kingman-triple", "bs-green-vs-fundamental",
                "tree-containment", "maximal-chains"} <= names
        assert all(c["pass"] for c in payload["checks"])

    def test_builds_bs_triple_and_generators_once(self, monkeypatch):
        import coalspec.cli as cli

        calls = Counter()
        for name in ("bs_triple", "build_generator"):
            def counted(*args, _original=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cli, name, counted)
        checks = dict(cli._verify_checks(4, 1e-10))
        assert "tree-containment" in checks and all(checks.values())
        # one BS triple and one generator per model, shared by the n <= 5 checks
        assert calls == {"bs_triple": 1, "build_generator": 2}

    def test_bad_nmax(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "1")
        assert code == 2

    def test_cap_checked_before_any_check(self, capsys, monkeypatch):
        import coalspec.cli as cli

        entered = []
        monkeypatch.setattr(cli, "_verify_checks", lambda *a: entered.append(a) or [])
        monkeypatch.setenv("COALSPEC_N_CAP", "5")
        with pytest.raises(SizeLimitError) as exc:
            PartitionLattice(6)
        code, out, err = run(capsys, "verify", "--n-max", "6")
        assert (code, out, entered) == (2, "", [])
        assert err == f"error: {exc.value}\n"

    def test_hitting_oracle_shares_a_memo_per_target(self, monkeypatch):
        import coalspec.cli as cli
        import coalspec.oracles as oracles

        calls = Counter()

        def counted(sigma, _original=oracles.merge_covers):
            calls["merge_covers"] += 1
            return _original(sigma)

        monkeypatch.setattr(oracles, "merge_covers", counted)
        checks = dict(cli._verify_checks(5, 1e-10))
        assert all(checks.values())
        # one solve per target and model; a fresh memo per pair takes 1586
        assert calls["merge_covers"] <= 561

    @pytest.mark.parametrize("name, check", [
        ("bs_green", "bs-green-vs-fundamental"),
        ("bs_hitting", "bs-hitting-vs-bruteforce"),
        ("kingman_hitting", "kingman-hitting-vs-bruteforce"),
        ("count_maximal_chains", "maximal-chains"),
        ("count_trees_containing", "tree-containment"),
        ("bs_transition", "bs-transition-vs-matexp"),
    ])
    def test_each_oracle_check_fails_on_its_own(self, monkeypatch, name, check):
        import coalspec.cli as cli

        lattice = PartitionLattice(4)
        bad = (lattice[0], lattice[-2])  # transient, comparable, two blocks

        def wrong_at_one_pair(pi, rho, *rest, _original=getattr(cli, name)):
            value = _original(pi, rho, *rest)
            return value + 1 if (pi, rho) == bad else value

        monkeypatch.setattr(cli, name, wrong_at_one_pair)
        checks = dict(cli._verify_checks(4, 1e-10))
        assert [c for c, ok in checks.items() if not ok] == [check]

    def test_csv_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "2", "--format", "csv")
        assert code == 2 and out == ""
        assert "JSON" in err


class TestErrors:
    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "qmatrix", "--n", "0")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["transition", "simulate"])
    @pytest.mark.parametrize("model", ["bs", "kingman"])
    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_rejected(self, capsys, command, model, t):
        code, out, err = run(capsys, command, "--n", "3", "--model", model, "--t", t)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("x", ["1/0", "-3/0", "3", "5/4", "-1/2"])
    def test_x_rejected(self, capsys, x):
        # x = e^-t for some t >= 0 only on (0, 1]
        code, out, err = run(capsys, "transition", "--n", "3", f"--x={x}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("zero denominator" if x.endswith("/0") else "0 < x <= 1") in err

    @pytest.mark.parametrize("tol", ["0", "-1e-10", "inf", "nan"])
    def test_tol_outside_open_interval_rejected(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--n-max", "2", f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--tol" in err

    def test_out_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "lattice.json"
        code, out, err = run(capsys, "lattice", "--n", "3", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(target) in err
        assert not target.parent.exists()
