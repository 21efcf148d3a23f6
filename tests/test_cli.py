"""The command-line interface: formats, exit codes, reproducibility."""

import csv
import functools
import hashlib
import itertools
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coalspec
from coalspec import (
    PartitionLattice,
    RatMatrix,
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
from coalspec import cli
from coalspec.cli import (
    _bracketed,
    _matrix_rows,
    _pair_rows,
    _pair_table_rows,
    _ratio_text,
    _write_json,
    format_rational,
    format_real,
    main,
)


def _entries(M):
    """The oracle of a matrix table: [i, j, "p/q"] per entry, from ``Fraction``s."""
    return [[i, j, format_rational(v)] for i, j, v in M.nonzeros()]


def _table(M):
    """M's matrix table, as the CLI puts it in a payload."""
    return _bracketed("[]", _matrix_rows(M))


def _pair_table(lattice, cell, per_key):
    """The pair table of ``cell``, as the CLI puts it in a payload."""
    return _bracketed("{}", _pair_table_rows(lattice, cell, per_key))


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
        big = -Fraction(3**252, 2**399)  # 400-bit numerator and denominator
        assert big.numerator.bit_length() == big.denominator.bit_length() == 400
        assert format_rational(big) == f"-{3**252}/{2**399}"

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
    """The table read off integer rows equals formatting every Fraction."""

    @staticmethod
    def check(M):
        # the JSON writer's row-at-a-time table prints the oracle's bytes
        assert _json_text({"m": _table(M)}) == json.dumps({"m": _entries(M)}, indent=2)

    def test_empty_matrices(self):
        for M in (RatMatrix(0), RatMatrix(3)):
            self.check(M)

    def test_each_row_written_as_it_is_made(self):
        M = bs_triple(PartitionLattice(7)).R
        made, writes = _streamed({"n": 7}, "R", "[]", _matrix_rows(M))
        assert len(made) == 877
        want = {"n": 7, "R": _entries(M)}
        assert "".join(text for _, text in writes) == json.dumps(want, indent=2) + "\n"

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


class TestTableTexts:
    """Table values are formatted from (numerator, row denominator) without a
    ``Fraction``, each once per run of rows that share a denominator."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.integers(), st.integers(-(2**400), 2**400)).filter(bool),
        st.one_of(st.integers(1), st.integers(1, 2**400)),
    )
    @example(6, 4)  # a shared factor
    @example(-6, 4)
    @example(7, 7)
    @example(-7, 7)
    @example(-(3**252) * 5, 2**399 * 5)  # 400-bit values with a shared factor
    @example(2**400, 2**400)
    def test_text_is_format_rational(self, v, d):
        want = format_rational(Fraction(v, d))
        assert _ratio_text(v, d) == want
        M = RatMatrix.from_rows(2, [(0, d, {0: v, 1: 1})])
        assert _json_text({"m": _table(M)}) == json.dumps({"m": _entries(M)}, indent=2)

    @staticmethod
    def tables():
        """(name, matrix): the block triples, whose rows each have a
        denominator of their own, and the lattice triples at n = 6.
        ``TestEntriesPayload`` checks the text of such tables."""
        lattice = PartitionLattice(6)
        for name, t in (
            ("kingman block 40", kingman_block_triple(40)),
            ("bs block 40", bs_block_triple(40)),
            ("bs 6", bs_triple(lattice)),
            ("kingman 6", kingman_triple(lattice)),
        ):
            yield f"{name} R", t.R
            yield f"{name} L", t.L

    def test_each_value_formatted_once_per_denominator_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_ratio_text", lambda v, d: calls.append((v, d)) or "x")
        for name, M in self.tables():
            by_den = itertools.groupby(M._row_entries(), key=lambda row: row[1])
            runs = [{v for *_, nums in run for v in nums} for _, run in by_den]
            want = sum(map(len, runs))
            calls.clear()
            _json_text({"m": _table(M)})
            assert len(calls) == want, name
            if "block" in name:
                # a run per row (Kingman R's first two rows are both over 1)
                assert len(runs) >= M.size - 1, name
            else:
                # a run per block count: almost every entry is a hit
                assert len(runs) <= 6 and want * 10 < M.nnz(), name


# every kind of character json.dumps escapes differently: quotes, backslashes,
# control characters, the JavaScript line separators, non-ASCII inside and
# beyond the BMP, and lone surrogates
_hostile_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029\xe9\u20ac\U0001f600'),
        st.characters(),
        st.characters(categories=["Cs"]),
    )
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),
    _hostile_text,
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_hostile_text, children, max_size=4),
        # the [i, j, "p/q"] entry rows, and three-item lists that only look like one
        st.tuples(st.integers(), st.integers(), _hostile_text).map(list),
        st.lists(st.one_of(st.booleans(), st.integers(), _hostile_text),
                 min_size=3, max_size=3),
    ),
    max_leaves=20,
)


def _streamed(head: dict, key: str, brackets: str, rows):
    """The rows ``rows`` yields while ``_write_json`` prints ``head`` and then
    ``_bracketed(brackets, rows)`` at ``key``, and the writes, each with the
    number of rows made by then.

    Checks that each row, joined to its separator, is one write, in order,
    passed on before the next row is made, and that the header and the two
    closing writes are all the others.
    """
    made, writes = [], []

    def spied():
        for text in rows:
            made.append(text)
            yield text

    _write_json({**head, key: _bracketed(brackets, spied())},
                lambda text: writes.append((len(made), text)))
    seps = [brackets[0]] + [","] * (len(made) - 1)
    first = 2 * len(head) + 1  # each header key and value, then the table's key
    assert writes[first:first + len(made)] == [
        (k, sep + text) for k, (sep, text) in enumerate(zip(seps, made), 1)
    ]
    # the table's close and the payload's
    assert len(writes) == first + len(made) + 2
    return made, writes


def _json_text(payload: dict) -> str:
    """The text the CLI's JSON writer prints for ``payload``, without its newline."""
    writes = []
    _write_json(payload, writes.append)
    text = "".join(writes)
    assert text.endswith("\n")
    return text[:-1]


class TestJsonWriter:
    """The one JSON writer prints json.dumps(payload, indent=2), byte for byte."""

    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(_hostile_text, _json_values, min_size=1))
    @example({"": [], "a": {}, "b": [[], {}, [[]]]})
    @example({"rows": {"1|2": {"1,2": "1/1"}, "1,2": {}}})
    @example({"m": [[0, 0, "1/1"], [True, 0, "x"], [0, 0, 1], ["0", 0, "x"]]})
    @example({"\n": "\n  ", "a\nb": ["\n", {"\n": "\r\n"}]})
    def test_matches_json_dumps(self, payload):
        assert _json_text(payload) == json.dumps(payload, indent=2)

    @staticmethod
    @functools.cache
    def tables(n):
        """(a maker of a fresh table, its plain value) pairs: matrix tables,
        among them an empty one and a block triple's, and pair tables with
        and without cells."""
        lat = PartitionLattice(n)
        green = _exact(bs_green)(lat)
        none = lambda i, j: None  # noqa: E731
        pairs = [(functools.partial(_table, M), _entries(M))
                 for M in (RatMatrix(0), bs_triple(lat).L, kingman_block_triple(n + 1).R)]
        pairs += [(functools.partial(_pair_table, lat, cell, per_key),
                   _oracle_rows(lat, cell, per_key))
                  for cell, per_key in ((green, True), (green, False), (none, True))]
        return pairs

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_hostile_text, _json_values), max_size=4,
                    unique_by=lambda item: item[0]),
           st.integers(1, 4), st.data())
    def test_tables_at_every_position(self, items, n, data):
        tables = st.sampled_from(self.tables(n))
        (first, first_value), (second, second_value) = data.draw(st.tuples(tables, tables))
        names = data.draw(st.lists(_hostile_text, min_size=2, max_size=2, unique=True).filter(
            lambda names: not {key for key, _ in items} & set(names)))

        def payload(a, b, x, y):  # x before items[a], y before items[b]
            return dict([*items[:a], (names[0], x), *items[a:b], (names[1], y), *items[b:]])

        for a in range(len(items) + 1):
            for b in range(a, len(items) + 1):
                want = json.dumps(payload(a, b, first_value, second_value), indent=2)
                assert _json_text(payload(a, b, first(), second())) == want

    @settings(max_examples=500, deadline=None)
    @given(_json_values, st.data())
    def test_lazy_inputs_match_json_dumps(self, obj, data):
        """The lazy inputs, tables read a row at a time, print the same bytes
        next to plain values and to each other."""
        tables = st.sampled_from(self.tables(data.draw(st.integers(1, 4))))
        (first, first_value), (second, second_value) = data.draw(st.tuples(tables, tables))
        writes = []
        _write_json({"a": obj, "t": first(), "u": second(), "b": obj}, writes.append)
        want = {"a": obj, "t": first_value, "u": second_value, "b": obj}
        assert "".join(writes) == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, [{}, [], "x"]])
    def test_empty_iterators(self, obj):
        """Tables whose row iterators are empty, or yield only empty rows,
        next to empty plain values."""
        lat = PartitionLattice(1)
        none = lambda i, j: None  # noqa: E731
        table, pairs = _table(RatMatrix(0)), _pair_table(lat, none, True)
        want = {"v": obj, "t": _entries(RatMatrix(0)),
                "p": _oracle_rows(lat, none, True), "w": obj}
        assert _json_text({"v": obj, "t": table, "p": pairs, "w": obj}) == json.dumps(want, indent=2)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("command", [
        "lattice",
        "qmatrix", "qmatrix --block",
        "qmatrix --model kingman", "qmatrix --model kingman --block",
        "spectral", "spectral --block",
        "spectral --model kingman", "spectral --model kingman --block",
        "transition --x 1/3", "transition --t 0.7", "transition --model kingman --t 0.7",
        "green",
        "hitting", "hitting --model kingman",
        "simulate --t 1 --reps 200", "simulate --model kingman --t 1 --reps 200",
        "verify --n-max",
    ])
    def test_every_command_prints_json_dumps(self, capsys, command, n):
        argv = command.split()
        # verify's sizes start at 2
        argv += [str(max(n, 2))] if argv[-1] == "--n-max" else ["--n", str(n)]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def child_env(env=None):
    """``env``, or this process's environment, with this checkout on PYTHONPATH."""
    src = str(Path(coalspec.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return env


def child(script, env=None):
    """Run ``script`` in a fresh interpreter on this checkout, with ``env`` in
    place of this process's environment: its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=child_env(env),
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_command_quietly():
    """A reader that closes the pipe (``| head``) ends the command by SIGPIPE,
    as it ends other Unix tools: nothing on stderr, no usage-error status."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "coalspec.cli", "lattice", "--n", "7", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    proc.stdout.close()  # long before the child writes its first row
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


def test_numpy_is_loaded_only_by_float_paths():
    """Exact commands, verify among them, run with numpy blocked; simulate loads it."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from coalspec.cli import main

        def quiet(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv

        sys.modules["numpy"] = None  # from here on, importing numpy raises
        quiet("spectral", "--n", "4")
        quiet("spectral", "--n", "4", "--block")
        quiet("transition", "--n", "4", "--x", "1/2")
        quiet("green", "--n", "4")
        quiet("hitting", "--n", "4", "--model", "kingman")
        quiet("verify", "--n-max", "5")
        print(sys.modules.pop("numpy") is None)
        quiet("simulate", "--n", "3", "--t", "1", "--reps", "50")
        print("numpy" in sys.modules)
        """
    )
    out = child(script)
    assert out.split() == ["True", "True"]


def test_simulate_runs_without_numpy_random():
    """The estimator makes numpy's draws itself, off the ziggurat's fast path too."""
    out = child(
        """
        import contextlib, io, sys
        import numpy
        if "numpy.random" in sys.modules:  # numpy < 2 loads it with numpy
            print("loaded")
            sys.exit()
        from coalspec.cli import main
        sys.modules["numpy.random"] = None  # from here on, importing it raises
        for model in ("bs", "kingman"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--n", "5", "--model", model, "--t", "1",
                             "--reps", "3000", "--seed", "0"]) == 0
        print(sys.modules["numpy.random"])
        """
    )
    if out.split() == ["loaded"]:
        pytest.skip("import numpy loads numpy.random")
    assert out.split() == ["None"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
@pytest.mark.skipif((os.cpu_count() or 1) == 1, reason="one CPU")
class TestBlasThreads:
    """``main`` runs BLAS on one thread unless OPENBLAS_NUM_THREADS is set."""

    SCRIPT = """
        import contextlib, io, os
        from coalspec.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--n", "3", "--model", "kingman", "--t", "1",
                         "--reps", "50", "--seed", "0"]) == 0
        print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
        """
    UNSET = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def test_one_thread_by_default(self):
        threads = child("import numpy, os; print(len(os.listdir('/proc/self/task')))", self.UNSET)
        if int(threads) == 1:
            pytest.skip("numpy starts no BLAS threads here")
        assert child(self.SCRIPT, self.UNSET).split() == ["1", "1"]

    def test_preset_count_kept(self):
        out = child(self.SCRIPT, {**self.UNSET, "OPENBLAS_NUM_THREADS": "2"})
        assert out.split()[1] == "2"


def test_each_command_loads_only_its_modules():
    """The package loads modules on first use, and each command what it runs;
    no exact command loads numpy, and no command ``dataclasses`` (with
    inspect, ast and dis)."""
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys

        def loaded():
            names = {m.partition(".")[2] for m in sys.modules if m.startswith("coalspec.")}
            return sorted(names | ({"numpy", "dataclasses"} & set(sys.modules)))

        def quiet(*argv):
            from coalspec.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv

        stages = {}
        import coalspec
        stages["import"] = loaded()
        coalspec.PartitionLattice(5)
        stages["lattice"] = loaded()
        quiet("lattice", "--n", "4")
        stages["lattice command"] = loaded()
        quiet("transition", "--n", "4", "--x", "1/2")
        quiet("transition", "--n", "4", "--t", "0.5")
        quiet("green", "--n", "4")
        quiet("hitting", "--n", "4")
        quiet("hitting", "--n", "4", "--model", "kingman")
        stages["pair formulas"] = loaded()
        quiet("spectral", "--n", "4")
        quiet("spectral", "--n", "4", "--block", "--model", "kingman")
        stages["spectral"] = loaded()
        quiet("verify", "--n-max", "3")
        stages["verify"] = loaded()
        for model in ("bs", "kingman"):
            quiet("simulate", "--n", "4", "--model", model, "--t", "1", "--reps", "20")
        stages["simulate"] = loaded()
        try:
            coalspec.nope
        except AttributeError as exc:
            stages["nope"] = str(exc)
        print(json.dumps(stages))
        """
    )
    out = child(script)
    stages = json.loads(out)
    assert stages["import"] == []
    assert stages["lattice"] == ["partitions"]
    assert stages["lattice command"] == ["cli", "partitions"]
    assert stages["pair formulas"] == ["cli", "combinatorics", "dynamics", "partitions"]
    assert not {"simulate", "rrt", "oracles"} & set(stages["spectral"])
    assert {"generator", "matrices", "spectral"} <= set(stages["spectral"])
    assert stages["verify"] == [
        "_verify", "cli", "combinatorics", "dynamics", "generator", "matrices",
        "oracles", "partitions", "rrt", "spectral",
    ]
    assert {"simulate", "_ziggurat", "numpy"} <= set(stages["simulate"])
    for stage, names in stages.items():
        assert "dataclasses" not in names, stage
    assert stages["nope"] == "module 'coalspec' has no attribute 'nope'"


def test_package_binds_every_name():
    namespace = {}
    exec("from coalspec import *", namespace)
    assert set(coalspec.__all__) <= set(namespace)
    assert set(coalspec.__all__) <= set(dir(coalspec))
    assert "__version__" in vars(coalspec)  # a plain attribute, no module loads
    assert coalspec.spectral.bs_triple is coalspec.bs_triple


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


def _oracle_rows(lattice, cell, per_key):
    """The pair table as a dict of dicts, {source: {target: cell(i, j)}},
    cells of None left out; with ``per_key`` each cell is computed on the
    first pair of its key and reused for the others."""
    order = [p.to_string() for p in lattice]
    memo = {}
    rows = {}
    for i, js, keys in lattice.comparable_rows():
        if per_key:
            texts = [memo[key] if key in memo else memo.setdefault(key, cell(i, j))
                     for j, key in zip(js, keys)]
        else:
            texts = [cell(i, j) for j in js]
        rows[order[i]] = {order[j]: text for j, text in zip(js, texts) if text is not None}
    return rows


def _exact(formula):
    """The exact cell of ``formula``: "p/q", None for zero."""

    def cell(lattice):
        el = lattice.elements

        def text(i, j):
            v = formula(el[i], el[j])
            return format_rational(v) if v else None

        return text

    return cell


# name: (argv, head without n, cell of a lattice, per_key)
PAIR_COMMANDS = {
    "transition-x": (
        ("transition", "--x", "3/7"), {"model": "bs", "x": "3/7"},
        _exact(lambda pi, rho: bs_transition_exact(pi, rho, Fraction(3, 7))), True,
    ),
    "transition-t-bs": (
        ("transition", "--t", "0.3"), {"model": "bs", "t": "0.3"},
        lambda lat: lambda i, j: format_real(bs_transition(lat[i], lat[j], 0.3)), True,
    ),
    "transition-t-kingman": (
        ("transition", "--t", "0.3", "--model", "kingman"), {"model": "kingman", "t": "0.3"},
        lambda lat: lambda i, j: format_real(_kingman_transition(lat.n, 0.3)[i, j]), False,
    ),
    "green": (("green",), {"model": "bs"}, _exact(bs_green), True),
    "hitting-bs": (("hitting",), {"model": "bs"}, _exact(bs_hitting), True),
    "hitting-kingman": (
        ("hitting", "--model", "kingman"), {"model": "kingman"}, _exact(kingman_hitting), True,
    ),
}


class TestPairTables:
    """Every pair command prints the dict-of-dicts table, as JSON and CSV."""

    @staticmethod
    def oracle(name, n):
        argv, head, cell_of, per_key = PAIR_COMMANDS[name]
        lattice = PartitionLattice(n)
        head = {"model": head["model"], "n": n, **head}
        return argv, head, _oracle_rows(lattice, cell_of(lattice), per_key)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("name", sorted(PAIR_COMMANDS))
    def test_json(self, capsys, name, n):
        argv, head, rows = self.oracle(name, n)
        code, out, err = run(capsys, *argv, "--n", str(n))
        assert code == 0, err
        assert out == json.dumps({**head, "rows": rows}, indent=2) + "\n"

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("name", sorted(PAIR_COMMANDS))
    def test_csv(self, capsys, name, n):
        argv, _, rows = self.oracle(name, n)
        code, out, err = run(capsys, *argv, "--n", str(n), "--format", "csv")
        assert code == 0, err
        expect = [["source", "target", "value"]]
        expect += [[source, target, text] for source, row in rows.items()
                   for target, text in row.items()]
        assert list(csv.reader(io.StringIO(out))) == expect

    @pytest.mark.parametrize("per_key", [True, False])
    def test_rows_with_no_cells(self, per_key):
        # every cell of the rows with two blocks is None, and every cell of
        # n = 4 at the second call
        lat = PartitionLattice(4)
        for cell in (lambda i, j: None if len(lat[i]) == 2 else f"{i}/{j}", lambda i, j: None):
            rows = _oracle_rows(lat, cell, per_key)
            assert {} in rows.values()
            text = _json_text({"rows": _pair_table(lat, cell, per_key)})
            assert text == json.dumps({"rows": rows}, indent=2)
            assert '": {}' in text

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_hostile_cells_escaped(self, n, data):
        lat = PartitionLattice(n)
        pairs = [(i, j) for i, js, _ in lat.comparable_rows() for j in js]
        texts = data.draw(st.lists(st.one_of(st.none(), _hostile_text),
                                   min_size=len(pairs), max_size=len(pairs)))
        table = dict(zip(pairs, texts))
        cell = lambda i, j: table[i, j]  # noqa: E731
        want = json.dumps({"rows": _oracle_rows(lat, cell, False)}, indent=2)
        assert _json_text({"rows": _pair_table(lat, cell, False)}) == want

    def test_each_name_and_key_escaped_once(self, monkeypatch):
        lat = PartitionLattice(6)
        keys = {key for _, _, row_keys in lat.comparable_rows() for key in row_keys}
        cell = _exact(bs_green)(lat)
        calls = Counter()

        def counted(i, j):
            calls["cell"] += 1
            return cell(i, j)

        def escape(text, _escape=cli._escape):
            calls["escape"] += 1
            return _escape(text)

        monkeypatch.setattr(cli, "_escape", escape)
        _json_text({"rows": _pair_table(lat, counted, True)})
        # the payload's key once, each name once, each cell once
        assert calls == {"cell": len(keys), "escape": 1 + len(lat) + len(keys)}
        # without per_key, one cell per pair
        calls.clear()
        pairs = sum(len(js) for _, js, _ in _pair_rows(lat, counted, False))
        assert calls == {"cell": pairs} and pairs > len(keys)

    def test_each_row_written_as_it_is_made(self):
        lat = PartitionLattice(7)
        rows = _pair_table_rows(lat, _exact(bs_green)(lat), True)
        made, writes = _streamed({"n": 7}, "rows", "{}", rows)
        assert len(made) == len(lat)
        want = {"n": 7, "rows": _oracle_rows(lat, _exact(bs_green)(lat), True)}
        assert "".join(text for _, text in writes) == json.dumps(want, indent=2) + "\n"


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
        import coalspec._verify as suite
        from coalspec import spectral

        calls = Counter()
        for module, name in ((spectral, "bs_triple"), (suite, "build_generator")):
            def counted(*args, _original=getattr(module, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        checks = dict(suite.checks(4))
        assert "tree-containment" in checks and all(checks.values())
        # one BS triple and one generator per model, shared by the n <= 5 checks
        assert calls == {"bs_triple": 1, "build_generator": 2}

    def test_model_functions_read_from_their_modules(self, capsys, monkeypatch):
        # verify and spectral read a model's triple from its module when they
        # run, so a replaced module attribute is the one both call
        import coalspec._verify as suite
        from coalspec import spectral

        calls = []

        def counted(lattice, _original=spectral.kingman_triple):
            calls.append(lattice.n)
            return _original(lattice)

        monkeypatch.setattr(spectral, "kingman_triple", counted)
        assert all(ok for _, ok in suite.checks(3))
        assert calls == [3]
        assert run_json(capsys, "spectral", "--n", "3", "--model", "kingman")["n"] == 3
        assert calls == [3, 3]

    def test_bad_nmax(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "1")
        assert code == 2

    def test_cap_checked_before_any_check(self, capsys, monkeypatch):
        import coalspec._verify as suite

        entered = []
        monkeypatch.setattr(suite, "checks", lambda *a: entered.append(a) or [])
        monkeypatch.setenv("COALSPEC_N_CAP", "5")
        with pytest.raises(SizeLimitError) as exc:
            PartitionLattice(6)
        code, out, err = run(capsys, "verify", "--n-max", "6")
        assert (code, out, entered) == (2, "", [])
        assert err == f"error: {exc.value}\n"

    def test_hitting_oracle_shares_a_memo_per_target(self, monkeypatch):
        import coalspec._verify as suite
        import coalspec.oracles as oracles

        calls = Counter()

        def counted(sigma, _original=oracles.merge_covers):
            calls["merge_covers"] += 1
            return _original(sigma)

        monkeypatch.setattr(oracles, "merge_covers", counted)
        oracles._hitting_from.cache_clear()
        checks = dict(suite.checks(5))
        assert all(checks.values())
        # one solve per state and model, 2 * bell(5); a memo per target takes
        # 561 and a fresh memo per pair 1586
        assert calls["merge_covers"] <= 104

    @pytest.mark.parametrize("name, check", [
        ("bs_green", "bs-green-vs-fundamental"),
        ("bs_hitting", "bs-hitting-vs-bruteforce"),
        ("kingman_hitting", "kingman-hitting-vs-bruteforce"),
        ("count_maximal_chains", "maximal-chains"),
        ("count_trees_containing", "tree-containment"),
        ("bs_transition", "bs-transition-vs-matexp"),
    ])
    def test_each_oracle_check_fails_on_its_own(self, monkeypatch, name, check):
        import coalspec._verify as suite

        lattice = PartitionLattice(4)
        bad = (lattice[0], lattice[-2])  # transient, comparable, two blocks

        def wrong_at_one_pair(pi, rho, *rest, _original=getattr(suite, name)):
            value = _original(pi, rho, *rest)
            return value + 1 if (pi, rho) == bad else value

        monkeypatch.setattr(suite, name, wrong_at_one_pair)
        checks = dict(suite.checks(4))
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
    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_non_finite_time_rejected(self, capsys, command, model, t):
        code, out, err = run(capsys, command, "--n", "3", "--model", model, f"--t={t}")
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("command", ["transition", "simulate"])
    @pytest.mark.parametrize("model", ["bs", "kingman"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_zero_time_reads_as_zero(self, capsys, command, model, fmt):
        # -0 passes the nonnegative check, and is echoed and computed as 0
        argv = (command, "--n", "3", "--model", model, "--format", fmt, "--reps", "50")
        argv = argv[:-2] if command == "transition" else argv
        zero = run(capsys, *argv, "--t", "0")
        assert zero[0] == 0
        assert run(capsys, *argv, "--t", "-0") == zero
        assert run(capsys, *argv, "--t=-0.0") == zero

    def test_negative_seed_rejected_before_any_import(self, capsys, monkeypatch):
        # the estimator and numpy cannot load, so the check must come first
        monkeypatch.setitem(sys.modules, "coalspec.simulate", None)
        monkeypatch.setitem(sys.modules, "numpy", None)
        code, out, err = run(capsys, "simulate", "--n", "3", "--t", "1", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("x", ["1/0", "-3/0", "3", "5/4", "-1/2"])
    def test_x_rejected(self, capsys, x):
        # x = e^-t for some t >= 0 only on (0, 1]
        code, out, err = run(capsys, "transition", "--n", "3", f"--x={x}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("zero denominator" if x.endswith("/0") else "0 < x <= 1") in err

    @pytest.mark.parametrize("x", ["abc", "", "1 /2", "1/2/3"])
    def test_x_not_a_rational(self, capsys, x):
        code, out, err = run(capsys, "transition", "--n", "3", f"--x={x}")
        assert (code, out) == (2, "")
        assert err == f"error: --x {x!r} is not a rational p/q\n"

    def test_lattice_cap_reported_before_x(self, capsys, monkeypatch):
        # the lattice is built before --x is read, so the cap error wins
        monkeypatch.delenv("COALSPEC_N_CAP", raising=False)
        code, out, err = run(capsys, "transition", "--n", "9", "--x", "0")
        assert code == 2 and out == ""
        assert "beyond the cap 8" in err and "--x" not in err

    @pytest.mark.parametrize("command", [
        "lattice", "spectral", "green", "transition --t 0.5 --format csv",
    ])
    def test_out_in_missing_directory(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "table.json"
        code, out, err = run(capsys, *command.split(), "--n", "3", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(target) in err
        assert not target.parent.exists()


# sha256 of each command's stdout.  Every value printed is exact (no float
# beyond verify's tol echo), so the digests hold on any platform; a changed digest
# is a changed output format or a changed value.
GOLDEN = [
    ("lattice --n 5",
     "5872e74ef6b93b85d98eaa845cda9eeab22f6efe79177cae4dcccb1375ffb30e"),
    ("lattice --n 5 --format csv",
     "32962f3800e0a70eeb557a061f9ddf7fc0abdb0304a01dddb722899689403fda"),
    ("qmatrix --n 5",
     "0dd22acd6e28c747bc355ea4a1242b93d090934a283de2841c28f3405216fb91"),
    ("qmatrix --n 5 --model kingman --format csv",
     "720eae0266c81da198c3e2762f3cf1ab220bae5343c972be7d717a559cbcd52d"),
    ("qmatrix --n 20 --block",
     "ab90db8c535e8f7095354733e0dac71c7e944d1ee223867e3b4481c3ddccef36"),
    ("qmatrix --n 20 --block --model kingman --format csv",
     "b1ae35100465aa48e92fa4564efee930dec43c1ec9d85e31efbf39acd192154b"),
    # the CSV entries of both models, read off the stored rows: lattice rows
    # that share a denominator, and block rows each over their own
    ("qmatrix --n 6 --format csv",
     "7823d68ef7f3d3ad3655d1126ce6b005c3fd243eee49ebc97479568685a543c1"),
    ("qmatrix --n 6 --model kingman --format csv",
     "59e4444ce6741a009458e4756b8cdcab9833e7929c30f1ceaa10b83aa672a1b2"),
    ("qmatrix --n 40 --block --format csv",
     "3f6cf976fe237f35376b619ce4fdb55d123d637a2471eeff6d50bb9a321c392a"),
    ("qmatrix --n 40 --block --model kingman --format csv",
     "2fe95900ac0b27ed1580a885b2fde582a9754d3e1c605e88db056b0f014275dc"),
    ("spectral --n 5",
     "fadb5901b471db0b7ae29c6235cdf57d5af70161bb8e0c05bd3054f0778a42a4"),
    ("spectral --n 5 --model kingman",
     "17e08fa03e81c90c6e5832c36c8c24c2f4871e55b9701554c583d1852f013077"),
    ("spectral --n 20 --block",
     "e8885a23735896f64c1bdf9d2280b03b817063f8fea2d52979156ae517c8ed87"),
    ("spectral --n 20 --block --model kingman",
     "a8a676fd038811a39c482274c6176f53edfe2e7cc26b3dbdc36d1bd10f46a957"),
    ("transition --n 5 --x 2/7",
     "75c0e19cdde5539cc1ab54aee064a267501c0c453f4b98a1924ca499e0bbbd9f"),
    ("transition --n 5 --x 2/7 --format csv",
     "2ddab88df34852f4f7db04abc2d770feacf1fefcee4bebe0549f2dd7f010c6d3"),
    ("green --n 5",
     "2ae1202397b949982a1a0f584d2b9ae176472d63b822a6c711a42c8ca802f39c"),
    ("green --n 5 --format csv",
     "b101246c104f022338be0dab635d76fc43d25e2489bee7097aaba49f2f07d7cb"),
    ("hitting --n 5",
     "739fcd06f91562e37c74f1fe8eba0d7a302297c6e8d1d4b89a7307dad04a6dd2"),
    ("hitting --n 5 --format csv",
     "727dcf1b9c80f33d24fcfa5222c429d8744dfb8a6f0b69f8e353bbb7b0ef5595"),
    ("hitting --n 5 --model kingman",
     "0fb08dd6cbe9cf37069d9233541e005e5939d2bddbab77cd62ed9a885790425c"),
    ("hitting --n 5 --model kingman --format csv",
     "21966a8ed7be2f38a5e9f17e14295b7006ae5f3aaf27d97b12711fa27d60aaf4"),
    ("verify --n-max 4",
     "2f9bccce32d2e6aa957558a255ee3ae4a01c2f0992c2949e4f71527978778702"),
    # the degenerate shapes: an empty entry list, a one-state triple, the
    # divergent "inf" cell, an exact row at x = 1
    ("qmatrix --n 1",
     "c3c5086d22794860e777d0cdbaa90ac63680bc4e8a7112cb3b154c8598eabdd0"),
    ("spectral --n 1",
     "222f1759fe7ec25598035fc5a5b3f2ade6fc0cf1c5c947ba648ef2699a0648a5"),
    ("green --n 1",
     "fe95fd6dda51135a5a7748d9a0cca341fc1eadaf270a0b962092e8aff5db95e8"),
    ("transition --n 2 --x 1",
     "48617053d1f33f7a53639cd2d601799bccc61d2a62ccaabd152436171758ff35"),
    # transition --x shares the exact-table path of green and hitting; at
    # x = 1 only the diagonal cells are nonzero
    ("transition --n 6 --x 1/3 --format csv",
     "ff3950f5e68e368420898c7af41cf99b05471decd8909fb8e0d57057e53eefd1"),
    ("transition --n 4 --x 1",
     "9787ebf91b4a3ca4a5f1acb672907d13267677642927ddca26b356704bebba9a"),
    ("green --n 6 --format csv",
     "751861215fa0ffca2aca06cd98b66e66406b4a5dabb801e461e20c4a41db162b"),
    ("hitting --n 6 --model kingman",
     "e3b625e8f4b460efb5e79d6c96dba48b2924907c1039e6e25516208578772aad"),
    # the block-chains benchmark workload, whose digests these are too
    ("spectral --n 80 --block",
     "781ae7ebc98748e3e78a3acfc613f0e640ddff392d15383157c9b1d74af0be29"),
    ("spectral --n 80 --block --model kingman",
     "4bebe449e542959e06610c888fb4671ac65fbc6c1f24bf2016265c930400bd72"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
    def test_stdout_digest(self, capsys, command, digest):
        code, out, err = run(capsys, *command.split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest
