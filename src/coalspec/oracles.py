"""Reference implementations that validate the closed forms by other routes.

Each oracle deliberately avoids the formula it is used to check: the matrix
exponential is a scaling-and-squaring Taylor series, the Green's matrix comes
from an exact triangular solve of the fundamental-matrix equation, maximal
chains are enumerated by depth-first search over pair mergers, and hitting
probabilities follow the memoized jump-chain recursion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isfinite, lcm
from typing import TYPE_CHECKING

from .generator import bs_rates, kingman_rates
from .matrices import RatMatrix, TriMatrix
from .partitions import (
    SetPartition,
    SizeLimitError,
    merge_covers,
    pair_covers,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "matexp_series",
    "fundamental_matrix",
    "enumerate_maximal_chains",
    "hitting_bruteforce",
]

_CHAIN_ENUM_CAP = 6


def matexp_series(Q, t: float, tol: float = 1e-13) -> np.ndarray:
    """e^(tQ) by scaling-and-squaring Taylor summation.

    Scales so the infinity norm of the scaled argument is below 1/2, sums
    the series until the term norm drops below ``tol``, then squares back.
    """
    import numpy as np

    A = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matexp needs a square matrix")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not isfinite(t):
        raise ValueError("matexp needs a finite t")
    with np.errstate(over="ignore", invalid="ignore"):
        B = t * A
        norm = np.max(np.sum(np.abs(B), axis=1)) if A.size else 0.0
    if not isfinite(norm):
        raise ValueError("matexp needs a finite t·Q")
    s = 0
    while norm > 0.5:
        norm /= 2.0
        s += 1
    B = np.ldexp(B, -s)  # exact, where 2.0 ** s overflows from s = 1024
    dim = A.shape[0]
    X = np.eye(dim)
    term = np.eye(dim)
    k = 0
    while True:
        k += 1
        term = term @ B / k
        X = X + term
        if np.max(np.sum(np.abs(term), axis=1)) < tol:
            break
        if k > 200:
            raise ArithmeticError("matrix exponential series failed to converge")
    for _ in range(s):
        X = X @ X
    return X


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

    def over_common_denominator(row: dict[int, Fraction]) -> tuple[int, dict]:
        d = lcm(*[v.denominator for v in row.values()])
        return d, {j: v.numerator * (d // v.denominator) for j, v in row.items()}

    return RatMatrix.from_rows(
        m, ((i, *over_common_denominator(row)) for i, row in enumerate(rows))
    )


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

    h(σ) = Σ_τ (λ(b, k) / λ_b) h(τ) over the single mergers σ → τ of k of
    b blocks, with h(ρ) = 1 and the rates from the model's table (Kingman's
    are 0 for k > 2); states not below ρ can never reach it and score 0.
    Consecutive calls for the same model and ρ share one memo.
    """
    if model not in ("bs", "kingman"):
        raise ValueError(f"unknown model {model!r}; use 'bs' or 'kingman'")
    return _hitting_to(model, rho)(pi)


@lru_cache(maxsize=1)
def _hitting_to(model: str, rho: SetPartition):
    """σ ↦ h(σ), the probability of hitting ρ, memoized over σ."""
    rates = (bs_rates if model == "bs" else kingman_rates)(rho.n)
    memo: dict[SetPartition, Fraction] = {}

    def h(sigma: SetPartition) -> Fraction:
        if sigma == rho:
            return Fraction(1)
        if not sigma.refines(rho):
            return Fraction(0)
        cached = memo.get(sigma)
        if cached is not None:
            return cached
        b = len(sigma)
        total = rates.total_rate(b)
        acc = Fraction(0)
        for tau in merge_covers(sigma):
            v = rates.rate(b, b - len(tau) + 1)
            if v:
                acc += (v / total) * h(tau)
        memo[sigma] = acc
        return acc

    return h
