"""Run one coalspec CLI job with spans recorded around the library's public calls.

Usage: python3 coalbench/launch.py TRACE_OUT JOB_ID -- CLI_ARGS...

The job's standard output is the CLI's own, byte for byte.  Before
``coalspec.cli.main`` runs, every binding of a traced function in any
coalspec module is replaced by a wrapper: ``cli.bs_triple`` and
``spectral.bs_triple`` are separate bindings and both are wrapped.  Traced
methods are replaced on their class.

Coarse calls (lattice, generator, triples, verification, matmul, estimators,
oracles and the job itself) are kept as spans: name, start, end, parent span
and job id.  Per-pair, per-cut and per-replicate calls would distort the run
as spans, so they are folded into per-name call counts, inclusive time and
self time.  A call's self time is its duration minus the time its traced
children cover; time the tracer spends computing counters is excluded from
the enclosing call's self time.  Everything is kept in memory and written to
TRACE_OUT as JSON when the job ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import coalspec.cli
from coalspec import dynamics, generator, matrices, oracles, partitions, rrt, simulate, spectral

# Closed forms whose calls are keyed by (|π|, |ρ|, sorted restriction sizes).
PAIR_FORMULAS = ("bs_transition", "bs_transition_exact", "bs_green", "bs_hitting", "kingman_hitting")


class Tracer:
    """In-memory spans, per-name totals and counters for one job."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list = []
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter[str] = Counter()
        self.peaks: Counter[str] = Counter()
        self.keys: set = set()
        self.stack: list[list] = []  # [name, start, child s, span index or -1]
        self.origin = perf_counter()

    def enter(self, name: str, span: bool) -> list:
        index = -1
        if span:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, index]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def leave(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        name, start, child, index = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            parent = next((f[3] for f in reversed(self.stack) if f[3] >= 0), None)
            self.spans[index] = [
                index, name, start - self.origin, end - self.origin, parent, self.job
            ]
        return end

    def exclude_since(self, since: float) -> None:
        """Count tracer work since ``since`` as a child of the enclosing call."""
        if self.stack:
            self.stack[-1][2] += perf_counter() - since

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def dump(self, path: str) -> None:
        record = {
            "job": self.job,
            "spans": [s for s in self.spans if s is not None],
            "totals": self.totals,
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "keys": sorted(self.keys),
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def wrap_call(tracer: Tracer, name: str, fn, span: bool, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            since = perf_counter()
            before(args)
            tracer.exclude_since(since)
        frame = tracer.enter(name, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tracer.leave(frame)
        if after is not None:
            after(result)
            tracer.exclude_since(end)
        return result

    return wrapper


def wrap_generator(tracer: Tracer, name: str, fn, counter: str):
    """Time each step of a generator; the consumer's work between steps is not its."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        steps = fn(*args, **kwargs)
        while True:
            frame = tracer.enter(name, False)
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                tracer.leave(frame)
            tracer.counts[counter] += 1
            yield item

    return wrapper


def install(tracer: Tracer):
    """Wrap the traced functions everywhere coalspec binds them; returns traced main."""
    counts, peaks = tracer.counts, tracer.peaks

    def generator_nnz(Q):
        counts["generator.nnz"] += Q.nnz()

    def matmul_work(args):
        a, b = args
        rows_b = Counter(i for i, _, _ in b.nonzeros())
        madds = bits = 0
        for _, k, v in a.nonzeros():
            madds += rows_b[k]
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        for _, _, v in b.nonzeros():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        counts["matrices.madds"] += madds
        peaks["matrices.entry_bits_max"] = max(peaks["matrices.entry_bits_max"], bits)

    def pair_key(args):
        # Calls made by another closed form (bs_hitting -> bs_green) are
        # that call's work, not a new request.
        parent = tracer.parent_name()
        if parent is not None and parent.startswith("dynamics.") and parent[9:] in PAIR_FORMULAS:
            return
        pi, rho = args[0], args[1]
        counts["dynamics.calls"] += 1
        if pi.refines(rho):
            sizes = tuple(sorted(partitions.restriction_sizes(pi, rho)))
            tracer.keys.add((len(pi), len(rho), sizes))

    functions = {
        (partitions, "coarsenings"): None,
        (generator, "build_generator"): dict(span=True, after=generator_nnz),
        (spectral, "bs_triple"): dict(span=True),
        (spectral, "kingman_triple"): dict(span=True),
        (spectral, "bs_block_triple"): dict(span=True),
        (spectral, "kingman_block_triple"): dict(span=True),
        (spectral, "verify_triple"): dict(span=True),
        (dynamics, "transition_via_triple"): dict(span=True),
        (rrt, "sample_rrt"): dict(span=False),
        (rrt, "cut_random"): dict(span=False),
        (simulate, "estimate_transition"): dict(span=True),
        (simulate, "simulate_bs"): dict(span=False),
        (simulate, "simulate_kingman"): dict(span=False),
        (oracles, "matexp_series"): dict(span=True),
        (oracles, "fundamental_matrix"): dict(span=True),
        (oracles, "hitting_bruteforce"): dict(span=False),
    }
    for formula in PAIR_FORMULAS:
        functions[(dynamics, formula)] = dict(span=False, before=pair_key)

    replacements = {}
    for (module, attr), options in functions.items():
        original = getattr(module, attr)
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        if options is None:
            replacements[id(original)] = wrap_generator(tracer, name, original, "partitions.pairs")
        else:
            replacements[id(original)] = wrap_call(tracer, name, original, **options)
    for module_name, module in list(sys.modules.items()):
        if module_name == "coalspec" or module_name.startswith("coalspec."):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and callable(value):
                    setattr(module, attr, replacements[id(value)])

    lattice_init = partitions.PartitionLattice.__init__
    partitions.PartitionLattice.__init__ = wrap_call(
        tracer, "partitions.PartitionLattice", lattice_init, span=True
    )
    matmul = matrices.RatMatrix.matmul
    matrices.RatMatrix.matmul = wrap_call(
        tracer, "matrices.matmul", matmul, span=True, before=matmul_work
    )
    return wrap_call(tracer, "cli.main", coalspec.cli.main, span=True)


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    trace_out, job = sys.argv[1], sys.argv[2]
    tracer = Tracer(job)
    traced_main = install(tracer)
    try:
        code = traced_main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
