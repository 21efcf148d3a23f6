"""Reference implementations that validate the closed forms by other routes.

Each oracle deliberately avoids the formula it is used to check: the matrix
exponential is a scaling-and-squaring Taylor series, the Green's matrix comes
from an exact triangular solve of the fundamental-matrix equation, maximal
chains are enumerated by depth-first search over pair mergers, and hitting
probabilities follow the memoized jump-chain recursion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import inf, isfinite, ldexp

from . import _EXPORTS
from .generator import bs_rates, kingman_rates
from .matrices import RatMatrix, TriMatrix, _over_lcm
from .partitions import (
    SetPartition,
    SizeLimitError,
    merge_covers,
    pair_covers,
    pair_key,
)

__all__ = list(_EXPORTS["oracles"])

_CHAIN_ENUM_CAP = 6


def matexp_series(Q, t: float, tol: float = 1e-13) -> list[list[float]]:
    """e^(tQ) by scaling-and-squaring Taylor summation, in plain Python floats.

    Q is any square matrix given as rows of reals (nested lists, a numpy
    array); the result is a list of float rows.  Scales so the infinity norm
    of the scaled argument is below 1/2, sums the series until the term norm
    drops below ``tol``, then squares back.  Every product runs over the
    nonzeros of each row, so the sparse lattice generators stay cheap.
    """
    try:
        A = [[float(x) for x in row] for row in Q]
    except TypeError:
        raise ValueError("matexp needs a square matrix") from None
    dim = len(A)
    if any(len(row) != dim for row in A):
        raise ValueError("matexp needs a square matrix")
    if not 0 < tol < inf:
        raise ValueError("tolerance must be positive and finite")
    if not isfinite(t):
        raise ValueError("matexp needs a finite t")
    t = float(t)
    B = [[t * x for x in row] for row in A]
    norm = max((sum(map(abs, row)) for row in B), default=0.0)
    if not isfinite(norm):
        raise ValueError("matexp needs a finite t·Q")
    s = 0
    while norm > 0.5:
        norm /= 2.0
        s += 1
    # ldexp is exact, where 2.0 ** s overflows from s = 1024
    B = [{j: ldexp(x, -s) for j, x in enumerate(row) if x} for row in B]
    X = [{i: 1.0} for i in range(dim)]
    term = [{i: 1.0} for i in range(dim)]
    k = 0
    while True:
        k += 1
        term = [{j: v / k for j, v in _row_times(row, B).items()} for row in term]
        for x_row, row in zip(X, term):
            for j, v in row.items():
                x_row[j] = x_row.get(j, 0.0) + v
        if max((sum(map(abs, row.values())) for row in term), default=0.0) < tol:
            break
        if k > 200:
            raise ArithmeticError("matrix exponential series failed to converge")
    for _ in range(s):
        X = [_row_times(row, X) for row in X]
    return [[row.get(j, 0.0) for j in range(dim)] for row in X]


def _row_times(row: dict[int, float], M: list[dict[int, float]]) -> dict[int, float]:
    """The sparse row ``row`` times the matrix of sparse rows ``M``."""
    acc: dict[int, float] = {}
    get = acc.get
    for k, a in row.items():
        for j, b in M[k].items():
            acc[j] = get(j, 0.0) + a * b
    return acc


def fundamental_matrix(Q: TriMatrix) -> RatMatrix:
    """Exact Green's matrix N = (-Q_TT)^-1 over the transient states.

    Q must be a lattice generator whose unique absorbing state is the last
    index (the one-block partition); the triangular system is solved by
    back-substitution in exact rationals.
    """
    size = len(Q.lattice)
    m = size - 1
    if len(Q.lattice.top) != 1:
        raise ValueError("the lattice's last element must be the one-block partition")
    for i in range(m):
        if Q.get(i, i) == 0:
            raise ValueError(
                f"transient state {Q.lattice[i].to_string()} has zero total rate"
            )
    if Q.get(size - 1, size - 1) != 0:
        raise ValueError("the absorbing state must have zero rate")
    # solve U N = I with U = -Q restricted to transient states (upper triangular)
    rows: list[dict[int, Fraction]] = [dict() for _ in range(m)]
    for i in reversed(range(m)):
        qrow = Q.row(i)
        diag = -qrow.pop(i)
        acc: dict[int, Fraction] = {i: Fraction(1)}
        for k, v in qrow.items():
            if k >= m:
                continue
            for j, w in rows[k].items():
                coeff = v * w  # U[i,k] = -q[i,k], moved to the right-hand side
                prev = acc.get(j)
                acc[j] = coeff if prev is None else prev + coeff
        rows[i] = {j: v / diag for j, v in acc.items() if v != 0}
    return RatMatrix.from_rows(m, ((i, *_over_lcm(row)) for i, row in enumerate(rows)))


def enumerate_maximal_chains(
    pi: SetPartition, rho: SetPartition
) -> list[list[SetPartition]]:
    """All maximal chains π = σ_0 ⋖ σ_1 ⋖ ... ⋖ σ_k = ρ, by DFS over pair mergers."""
    if not pi.refines(rho):
        raise ValueError("chain enumeration requires π ≤ ρ")
    if pi.n > _CHAIN_ENUM_CAP:
        raise SizeLimitError(
            f"chain enumeration is capped at ground sets of size {_CHAIN_ENUM_CAP}"
        )
    if pi == rho:
        return [[pi]]
    out = []
    for sigma in pair_covers(pi):
        if sigma.refines(rho):
            for tail in enumerate_maximal_chains(sigma, rho):
                out.append([pi] + tail)
    return out


def hitting_bruteforce(model: str, pi: SetPartition, rho: SetPartition) -> Fraction:
    """Exact hitting probability by the memoized jump-chain recursion.

    h(σ, ·) = 1_σ + Σ_τ (λ(b, k) / λ_b) h(τ, ·) over the single mergers
    σ → τ of k of b blocks, with the rates from the model's table (Kingman's
    are 0 for k > 2); a state the chain cannot reach from π scores 0.  One
    memo per model and ground-set size holds, for each state σ solved, h(σ, ρ)
    for every ρ it can reach, so any call order solves each state once.  The
    trade is a costly first call: it solves every state above π, which from
    the singletons takes about half a second at n = 7.
    """
    if model not in ("bs", "kingman"):
        raise ValueError(f"unknown model {model!r}; use 'bs' or 'kingman'")
    pair_key(pi, rho)  # ValueError when the ground sets differ
    return _hitting_from(model, pi.n)(pi).get(rho, Fraction(0))


@cache
def _hitting_from(model: str, n: int):
    """σ ↦ {ρ: h(σ, ρ)} over the states ρ reachable from σ, memoized over σ."""
    rates = (bs_rates if model == "bs" else kingman_rates)(n)
    memo: dict[SetPartition, dict[SetPartition, Fraction]] = {}

    def h(sigma: SetPartition) -> dict[SetPartition, Fraction]:
        row = memo.get(sigma)
        if row is not None:
            return row
        b = len(sigma)
        total = rates.total_rate(b)
        row = {sigma: Fraction(1)}
        for tau in merge_covers(sigma):
            v = rates.rate(b, b - len(tau) + 1)
            if v:
                p = v / total
                for rho, x in h(tau).items():
                    row[rho] = row.get(rho, 0) + p * x
        memo[sigma] = row
        return row

    return h
