"""Command-line interface for batch use.

Subcommands: lattice, qmatrix, spectral, transition, green, hitting,
simulate, verify.  Output is JSON (default) or CSV, to stdout or --out;
JSON output is exactly ``json.dumps(payload, indent=2)`` and a newline, so
every non-ASCII character is escaped.
Rationals serialize as "p/q", reals with 15 significant digits, divergent
Green entries as "inf".  Exit codes: 0 success, 1 verification failure,
2 usage or domain error.  Seeded commands are byte-reproducible for a fixed
seed on one machine.  The Kingman float cells of ``transition --t`` and
``simulate`` come from a BLAS product, whose last bits depend on the number
of threads it runs on, so ``main`` runs BLAS on one thread unless
OPENBLAS_NUM_THREADS is already set; then the bytes do not depend on the
core count.  It sets that variable, if unset, before any command imports
numpy; ``import coalspec`` and library calls leave the environment alone.
One thread also spares every numpy command OpenBLAS's thread pool at start
up, at the cost of wall time at n = 8, where the Kingman product is
4140 x 4140; setting OPENBLAS_NUM_THREADS gets the threads back.

A JSON payload is a flat dict.  Its tables are written as they are
produced: a matrix table is read off its computed matrix, and a pair table
(``transition``, ``green``, ``hitting``) off the comparable-pair walk, a
row at a time, and written in batches of about 16 Ki characters, a row
longer than that on its own.  Every other value (a header field, the
lattice's names, ``simulate``'s records, ``verify``'s checks) is
``json.dumps(value, indent=2)``, written whole.  So peak memory is set by
the matrices, or by the lattice and one row, not by the size of the
tables.  Every matrix, product and verification, and every check that can
raise, finishes before the first byte is written, and --out is opened only
then, so a failing command writes nothing.

Each command imports the library modules it runs when it runs, so start-up
pays only for them.  ``lattice`` loads ``partitions`` and ``combinatorics``;
``transition --x``, BS ``transition --t``, ``green`` and ``hitting`` add
``dynamics``; Kingman ``transition --t`` adds ``spectral``, ``matrices`` and
numpy to those; ``simulate`` adds ``simulate`` and numpy to its model's
``transition --t``; ``qmatrix`` loads ``generator`` and ``matrices`` over
``lattice``, ``spectral`` those and ``spectral``; ``verify`` loads every
module but ``simulate``, through ``coalspec._verify``.  No exact command
loads numpy, and no command loads ``dataclasses`` (which loads ``inspect``,
``ast`` and ``dis``).

Configuration precedence is flags over environment over defaults; the only
environment knob of coalspec is COALSPEC_N_CAP, which bounds full-lattice
enumeration (default 8).
"""

from __future__ import annotations

import argparse
import csv as csv_module
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from fractions import Fraction
from importlib import import_module
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from math import gcd
from typing import TYPE_CHECKING

from .partitions import PartitionLattice, _check_cap

if TYPE_CHECKING:
    from .matrices import RatMatrix

__all__ = ["main", "console_main"]


def format_rational(value) -> str:
    """Serialize exact values: "p/q" for rationals, "inf" for divergence."""
    if type(value) is float and value == math.inf:
        return "inf"
    return f"{value.numerator}/{value.denominator}"


def format_real(x: float) -> str:
    """Serialize reals with 15 significant digits."""
    return f"{x:.15g}"


# role -> (module, BS function, Kingman function); None: no closed form
_MODELS = {
    "rates": ("generator", "bs_rates", "kingman_rates"),
    "block_generator": ("generator", "bs_block_generator", "kingman_block_generator"),
    "triple": ("spectral", "bs_triple", "kingman_triple"),
    "block_triple": ("spectral", "bs_block_triple", "kingman_block_triple"),
    "hitting": ("dynamics", "bs_hitting", "kingman_hitting"),
    "transition": ("dynamics", "bs_transition", None),
}


def _model(name: str, role: str):
    """Model ``name``'s function for ``role``, or None without a closed form.

    The module is imported and the function read from it on every call, so
    a command loads only the modules it uses, and a replaced module
    attribute (a tracer's wrapper, a test's counter) is the one called.
    """
    module_name, bs, kingman = _MODELS[role]
    module = import_module(f".{module_name}", __package__)
    attr = bs if name == "bs" else kingman
    return None if attr is None else getattr(module, attr)


def _ratio_text(v: int, d: int) -> str:
    """``format_rational(Fraction(v, d))`` for d > 0, reduced with one gcd."""
    g = gcd(v, d)
    return f"{v // g}/{d // g}"


class _Table:
    """The JSON list of [i, j, "p/q"] per entry of ``mat.nonzeros()``, written
    a stored row at a time."""

    __slots__ = ("mat",)
    brackets = "[]"

    def __init__(self, mat: RatMatrix):
        self.mat = mat

    def json_rows(self, inner: str) -> Iterator[str]:
        """Yield the text of each stored row's entries as ``json.dumps``
        prints them at indent ``inner``, joined by commas.

        An entry is its row's prefix, its column and the tail of its value
        ("p/q" needs no escaping).  A stored row holds its values over one
        denominator d > 0, so within a run of rows that share d a value is
        its numerator, and each numerator's tail is made once per run: the
        cache is emptied whenever d changes.  Lattice rows share their values
        (R and L take one per key) in a few long runs; a block-counting row
        has a denominator and values of its own, so there the cache holds one
        row's tails.
        """
        deep = inner + "  "
        tails: dict[int, str] = {}
        run = None
        for i, d, cols, nums in self.mat._row_entries():
            if d != run:
                tails.clear()
                run = d
            for v in nums:
                if v not in tails:
                    tails[v] = f',{deep}"{_ratio_text(v, d)}"{inner}]'
            prefix = f"{inner}[{deep}{i},{deep}"
            yield ",".join([f"{prefix}{j}{tails[v]}" for j, v in zip(cols, nums)])


def _lattice_order(lattice: PartitionLattice) -> list[str]:
    return [p.to_string() for p in lattice]


def _pair_rows(lattice: PartitionLattice, cell, per_key: bool) -> Iterator[tuple]:
    """Yield (i, js, texts) per row of ``comparable_rows()``, texts[k] =
    ``cell(i, js[k])`` (an iterable read once), None for a cell left out.

    With ``per_key`` the cell is computed on the first pair of each key
    (|π|, |ρ|, restriction sizes) and reused for the others: the first row
    with p blocks holds every key of p blocks, so a row whose diagonal key is
    known reads all its cells from the memo.  The walk is streamed, so the
    memo and one row are all a table holds.
    """
    memo: dict[tuple, str | None] = {}
    for i, js, keys in lattice.comparable_rows():
        if not per_key:
            texts = [cell(i, j) for j in js]
        else:
            if keys[0] not in memo:
                for j, key in zip(js, keys):
                    if key not in memo:
                        memo[key] = cell(i, j)
            texts = map(memo.__getitem__, keys)
        yield i, js, texts


class _PairTable:
    """The JSON object {source: {target: cell(i, j)}} over ``_pair_rows``,
    written a row at a time; cells of None are left out, and ``cell``
    returns str."""

    __slots__ = ("lattice", "cell", "per_key")
    brackets = "{}"

    def __init__(self, lattice: PartitionLattice, cell, per_key: bool):
        self.lattice = lattice
        self.cell = cell
        self.per_key = per_key

    def json_rows(self, inner: str) -> Iterator[str]:
        """Yield the text of each source's item as ``json.dumps`` prints
        it at indent ``inner``.

        Each name is escaped once, and each cell where ``_pair_rows``
        computes it, so once per key.  A row is joined once: its source
        goes into its first item and its closing brace into its last.
        """
        deep, close = inner + "  ", inner + "}"
        names = [_escape(p.to_string()) for p in self.lattice]
        cell = self.cell

        def escaped(i: int, j: int) -> str | None:
            text = cell(i, j)
            return None if text is None else _escape(text)

        for i, js, texts in _pair_rows(self.lattice, escaped, self.per_key):
            items = [f"{deep}{names[j]}: {text}" for j, text in zip(js, texts) if text is not None]
            if not items:
                yield f"{inner}{names[i]}: {{}}"
                continue
            items[0] = f"{inner}{names[i]}: {{{items[0]}"
            items[-1] += close
            yield ",".join(items)


_BATCH_CHARS = 1 << 14


def _write_json(payload: dict, write) -> None:
    """Pass ``json.dumps(payload, indent=2)`` and a newline to ``write``.

    ``payload`` is a command's flat, non-empty dict with str keys.  A
    ``_Table`` or ``_PairTable`` value is read once, a row at a time, and the
    text is passed to ``write`` whenever it holds ``_BATCH_CHARS``
    characters, so no write is longer than that plus the table's longest
    row; a row longer than a batch is passed on as it is.  Every other value
    is ``json.dumps(value, indent=2)`` with each line break indented two
    spaces deeper, which is safe as json.dumps escapes a newline within a
    string.
    """
    out: list[str] = []
    lead = "{\n  "
    for key, value in payload.items():
        out.append(f"{lead}{_escape(key)}: ")
        lead = ",\n  "
        if not isinstance(value, (_Table, _PairTable)):
            out.append(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        opening, closing = value.brackets
        size = sum(map(len, out))
        sep = opening
        for text in value.json_rows("\n    "):
            out.append(sep)
            sep = ","
            if len(text) >= _BATCH_CHARS:
                write("".join(out))
                write(text)
                out.clear()
                size = 0
                continue
            out.append(text)
            size += len(text) + 1
            if size >= _BATCH_CHARS:
                write("".join(out))
                out.clear()
                size = 0
        out.append("\n  " + closing if sep == "," else opening + closing)
    out.append("\n}\n")
    write("".join(out))


@contextmanager
def _output(path: str | None):
    """The destination: stdout, or ``path`` opened for writing on entry."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _emit_json(payload: dict, path: str | None) -> None:
    with _output(path) as fh:
        _write_json(payload, fh.write)


def _emit_csv(rows: Iterable[list[str]], path: str | None) -> None:
    with _output(path) as fh:
        csv_module.writer(fh, lineterminator="\n").writerows(rows)


def cmd_lattice(args) -> int:
    lattice = PartitionLattice(args.n)
    order = _lattice_order(lattice)
    if args.format == "csv":
        _emit_csv([[s] for s in order], args.out)
    else:
        _emit_json({"n": args.n, "count": len(lattice), "partitions": order}, args.out)
    return 0


def _generator(model: str, n: int, block: bool):
    """Returns (Q, order): the lattice generator built from the model's rate
    table, or the block-counting generator with states labelled 1..n."""
    if block:
        order = [str(i) for i in range(1, n + 1)]
        return _model(model, "block_generator")(n), order
    from .generator import build_generator

    lattice = PartitionLattice(n)
    return build_generator(lattice, _model(model, "rates")(n)), _lattice_order(lattice)


def cmd_qmatrix(args) -> int:
    Q, order = _generator(args.model, args.n, args.block)
    if args.format == "csv":
        entries = (
            [i, j, _ratio_text(v, d)]
            for i, d, cols, nums in Q._row_entries()
            for j, v in zip(cols, nums)
        )
        _emit_csv(chain([["row", "col", "value"]], entries), args.out)
    else:
        payload = {
            "model": args.model,
            "block_counting": bool(args.block),
            "n": args.n,
            "order": order,
            "entries": _Table(Q),
        }
        _emit_json(payload, args.out)
    return 0


def cmd_spectral(args) -> int:
    if args.format == "csv":
        raise ValueError("spectral output is JSON only")
    from .matrices import _diagonal_counts
    from .spectral import verify_triple

    Q, order = _generator(args.model, args.n, args.block)
    if args.block:
        triple = _model(args.model, "block_triple")(args.n)
    else:
        triple = _model(args.model, "triple")(Q.lattice)
    report = verify_triple(Q, triple)
    # Q is triangular, so its spectrum is its diagonal; -λ_b falls as b grows,
    # so the largest value, at one block, comes first
    eigenvalues = sorted(_diagonal_counts(Q).items(), reverse=True)
    payload = {
        "model": args.model,
        "block_counting": bool(args.block),
        "n": args.n,
        "order": order,
        "R": _Table(triple.R),
        "D": [format_rational(d) for d in triple.D],
        "L": _Table(triple.L),
        "eigenvalues": [[format_rational(ev), mult] for ev, mult in eigenvalues],
        "verification": report.as_dict(),
    }
    _emit_json(payload, args.out)
    return 0 if report.all_pass else 1


def _emit_pair_rows(args, lattice: PartitionLattice, head: dict, cell, per_key=True):
    """Emit ``cell(i, j)`` over the comparable pairs as JSON rows or CSV
    triples, each row computed as it is written; ``cell`` must not raise."""
    if args.format == "csv":
        order = _lattice_order(lattice)
        triples = (
            [order[i], order[j], text]
            for i, js, texts in _pair_rows(lattice, cell, per_key)
            for j, text in zip(js, texts)
            if text is not None
        )
        _emit_csv(chain([["source", "target", "value"]], triples), args.out)
    else:
        _emit_json({**head, "rows": _PairTable(lattice, cell, per_key)}, args.out)


def _check_time(t: float) -> float:
    """Reject a --t outside [0, inf) up front: the closed form would raise
    only at its first cell, while the table is being written.  Returns t with
    -0 read as 0, so that both print alike."""
    if not 0 <= t < math.inf:
        raise ValueError(f"--t must be finite and nonnegative, got {t!r}")
    return t + 0.0


def _float_transition(model: str, lattice: PartitionLattice, t: float):
    """Returns (p, per_key) with p(i, j) = P(Π(t) = ρ_j | Π(0) = π_i) in doubles.

    A closed form depends on the pair's key only; R e^(tD) L is read per pair,
    as the float product's last bits differ between pairs of a key.
    """
    el = lattice.elements
    closed = _model(model, "transition")
    if closed is not None:
        return (lambda i, j: closed(el[i], el[j], t)), True
    from .dynamics import transition_via_triple

    P = transition_via_triple(_model(model, "triple")(lattice), t)
    return (lambda i, j: float(P[i, j])), False


def cmd_transition(args) -> int:
    if (args.t is None) == (args.x is None):
        raise ValueError("give exactly one of --t (real time) or --x (exact point)")
    lattice = PartitionLattice(args.n)
    if args.x is None:
        args.t = _check_time(args.t)
        head = {"model": args.model, "n": args.n, "t": format_real(args.t)}
        p, per_key = _float_transition(args.model, lattice, args.t)
        _emit_pair_rows(args, lattice, head, lambda i, j: format_real(p(i, j)), per_key)
        return 0
    if args.model != "bs":
        raise ValueError("exact evaluation at --x is available for --model bs only")
    try:
        x = Fraction(args.x)
    except ZeroDivisionError:
        raise ValueError(f"--x {args.x!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--x {args.x!r} is not a rational p/q") from None
    if not 0 < x <= 1:
        raise ValueError(f"--x {args.x!r} is not e^-t for a time t >= 0; use 0 < x <= 1")
    from .dynamics import bs_transition_exact

    head = {"model": args.model, "n": args.n, "x": format_rational(x)}
    return _exact_table(args, lattice, head, lambda pi, rho: bs_transition_exact(pi, rho, x))


def _exact_table(args, lattice: PartitionLattice, head: dict, formula) -> int:
    """Emit the exact ``formula(π, ρ)`` over the comparable pairs, zeros left out."""
    el = lattice.elements

    def cell(i, j):
        v = formula(el[i], el[j])
        return format_rational(v) if v else None

    _emit_pair_rows(args, lattice, head, cell)
    return 0


def cmd_green(args) -> int:
    from .dynamics import bs_green

    return _exact_table(args, PartitionLattice(args.n), {"model": "bs", "n": args.n}, bs_green)


def cmd_hitting(args) -> int:
    head = {"model": args.model, "n": args.n}
    return _exact_table(args, PartitionLattice(args.n), head, _model(args.model, "hitting"))


def cmd_simulate(args) -> int:
    args.t = _check_time(args.t)
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
    # load the exact law's modules first, then simulate with numpy: loaded
    # after the replicates, they land above the replicates' freed memory and
    # raise peak RSS (and loaded after numpy, a little above it)
    _model(args.model, "transition") or _model(args.model, "triple")
    from .simulate import _estimate_transition

    lattice, estimates = _estimate_transition(args.model, args.n, args.t, args.reps, args.seed)
    p, _ = _float_transition(args.model, lattice, args.t)
    records = []
    for j, rho in enumerate(lattice):
        p_hat, se = estimates[rho]
        ex = p(0, j)
        z = (float(p_hat) - ex) / se if se > 0 else 0.0
        records.append(
            {
                "partition": rho.to_string(),
                "estimate": format_real(float(p_hat)),
                "std_error": format_real(se),
                "exact": format_real(ex),
                "z_score": format_real(z),
            }
        )
    if args.format == "csv":
        fields = ["partition", "estimate", "std_error", "exact", "z_score"]
        _emit_csv([fields] + [[r[f] for f in fields] for r in records], args.out)
    else:
        payload = {
            "model": args.model,
            "n": args.n,
            "t": format_real(args.t),
            "reps": args.reps,
            "seed": args.seed,
            "rows": records,
        }
        _emit_json(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.format == "csv":
        raise ValueError("verify output is JSON only")
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    if not 0 < args.tol < math.inf:
        raise ValueError("--tol must be positive and finite")
    _check_cap(args.n_max)
    from . import _verify

    checks = []
    for n in range(2, args.n_max + 1):
        for name, ok in _verify.checks(n, args.tol):
            checks.append({"n": n, "check": name, "pass": bool(ok)})
    all_pass = all(c["pass"] for c in checks)
    payload = {
        "n_max": args.n_max,
        "tol": format_real(args.tol),
        "checks": checks,
        "all_pass": all_pass,
    }
    _emit_json(payload, args.out)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalspec",
        description="Exact coalescent generators, spectra, Green's matrices, "
        "hitting probabilities and seeded Monte Carlo on the partition lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument("--model", choices=["bs", "kingman"], default="bs")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output path, '-' for stdout")

    p = sub.add_parser("lattice", help="enumerate P([n]) in lattice order")
    add_common(p, model=False)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("qmatrix", help="generator matrix (lattice or block counting)")
    add_common(p)
    p.add_argument("--block", action="store_true", help="block-counting generator")
    p.set_defaults(func=cmd_qmatrix)

    p = sub.add_parser("spectral", help="R, D, L factorization with verification")
    add_common(p)
    p.add_argument("--block", action="store_true", help="block-counting triple")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("transition", help="transition matrix at a time or exact point")
    add_common(p)
    p.add_argument("--t", type=float, default=None, help="real time horizon")
    p.add_argument("--x", default=None, help="exact rational point p/q (bs only)")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("green", help="Bolthausen-Sznitman Green's matrix")
    add_common(p, model=False)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("hitting", help="hitting probabilities for all pairs")
    add_common(p)
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("simulate", help="seeded Monte Carlo vs exact values")
    add_common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the exact invariant suite")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # before any command imports numpy: OpenBLAS sizes its thread pool then
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
