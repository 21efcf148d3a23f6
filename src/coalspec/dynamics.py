"""Transition probabilities, Green's matrix and hitting probabilities.

Closed forms for the Bolthausen-Sznitman coalescent started from π:

    p(π, ρ; t) = (-1)^|ρ| e^t ((|ρ|-1)!/(|π|-1)!) ∏_B (-e^-t)^(m_B ascending)

with m_B = |restrict(π, B)| and x^(k ascending) the ascending factorial.  One
private evaluator holds it: ``bs_transition`` feeds it x = e^-t in doubles,
``bs_transition_exact`` a free rational x (at x = 1 it collapses to the
indicator of π = ρ, which is the statement L = R^-1).

The Green's matrix g(π, ρ) (expected total time in ρ before absorption) is
an exact sum over the coefficients c_K of ∏_B z^(m_B ascending); it is
+infinity exactly on the absorbing column ρ = {[n]}, which is hit with
certainty, and elsewhere the hitting probability is h(π, ρ) = g(π, ρ)
(|ρ| - 1).  Lumped over the ρ with j blocks, the c_K become the Stirling
products [i, K] {K, j} of i = |π|, and the same sum gives the block-counting
Green's matrix.  Kingman hitting probabilities come from maximal-chain
counting and reduce to a Lah-number product.

Nothing here needs the full lattice: every formula runs off the two
partitions alone.  ``transition_via_triple`` exponentiates a spectral
triple in floating point; it is meant for lattice triples, and cancels badly
on block-counting triples past n ≈ 20 (see its docstring).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from . import _EXPORTS
from .combinatorics import ascending_factorial, lah, stirling_first, stirling_second
from .partitions import SetPartition, pair_key

if TYPE_CHECKING:
    import numpy as np

    from .spectral import SpectralTriple

__all__ = list(_EXPORTS["dynamics"])


def _bs_polynomial(key, x, inv_x):
    """The closed form at a pair's key, given x and x^-1 (e^-t and e^t in doubles)."""
    p, r, sizes = key
    value = inv_x * factorial(r - 1) / factorial(p - 1)
    for s in sizes:
        value *= ascending_factorial(-x, s)
    return -value if r % 2 else value


def bs_transition(pi: SetPartition, rho: SetPartition, t: float) -> float:
    """P(Π(t) = ρ | Π(0) = π) for the Bolthausen-Sznitman coalescent.

    In [0, 1] for every finite t >= 0.  Once e^t itself overflows a double
    (t >= 709.79) it returns the t → ∞ limit, 1 on ρ = {[n]} and 0
    elsewhere, off by about H_(|π|-1) e^-t < 1e-307.  Where the doubles
    cannot hold an intermediate, (|π|-1)! for |π| >= 172 or e^t (|ρ|-1)!
    (from t ≈ 3.2 at |ρ| = 171), the polynomial is evaluated exactly at the
    rational value of the double e^-t and rounded once.
    """
    key = pair_key(pi, rho)
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be {'nonnegative' if t < 0 else 'finite'}")
    if key is None:
        return 0.0
    try:
        inv_x = math.exp(t)
    except OverflowError:
        return 1.0 if key[1] == 1 else 0.0
    x = math.exp(-t)
    try:
        value = _bs_polynomial(key, x, inv_x)
    except OverflowError:  # (|π|-1)! is beyond a double
        value = math.inf
    if value == math.inf:  # an intermediate overflowed: evaluate exactly, round once
        x = Fraction(x)
        value = float(_bs_polynomial(key, x, 1 / x))
    # a product with no cancellation: only rounding (e^t e^-t) can pass 1
    return min(value, 1.0)


def bs_transition_exact(pi: SetPartition, rho: SetPartition, x) -> Fraction:
    """The transition polynomial Σ_σ r(π, σ) x^(|σ|-1) l(σ, ρ), exactly.

    Evaluated through the same closed form as ``bs_transition``, valid for
    any rational x != 0; x = e^-t recovers the transition probability and
    x = 1 the identity matrix.
    """
    key = pair_key(pi, rho)
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    if key is None:
        return Fraction(0)
    return _bs_polynomial(key, x, 1 / x)


def _green_sum(p: int, r: int, coeffs) -> Fraction:
    """(-1)^r ((r-1)!/(p-1)!) Σ_{K≥2} (-1)^K c_K/(K-1) with c_K = coeffs[K]."""
    terms = enumerate(coeffs[2:], 2)
    total = sum(Fraction(-c if k % 2 else c, k - 1) for k, c in terms if c)
    value = Fraction(factorial(r - 1), factorial(p - 1)) * total
    return -value if r % 2 else value


def bs_green(pi: SetPartition, rho: SetPartition):
    """Expected total time the Bolthausen-Sznitman coalescent spends in ρ.

    Returns an exact Fraction for ρ below the top, ``math.inf`` when
    ρ = {[n]} (the absorbing state is never left), and 0 when π is not finer
    than ρ.  With c_K the coefficients of the integer polynomial
    ∏_B z(z+1)…(z+m_B-1) (products of unsigned Stirling numbers of the first
    kind), g(π, ρ) = (-1)^|ρ| ((|ρ|-1)!/(|π|-1)!) Σ_{K≥2} (-1)^K c_K/(K-1).
    """
    key = pair_key(pi, rho)
    if key is None:
        return Fraction(0)
    p, r, sizes = key
    if r == 1:
        return math.inf
    coeffs = [1]  # of z^0, z^1, ...
    for s in sizes:
        for a in range(s):  # times (z + a)
            coeffs = [a * c + below for c, below in zip(coeffs + [0], [0] + coeffs)]
    return _green_sum(p, r, coeffs)


def bs_hitting(pi: SetPartition, rho: SetPartition) -> Fraction:
    """P(the Bolthausen-Sznitman coalescent from π ever visits ρ).

    Equals g(π, ρ) (|ρ| - 1) since the chain leaves ρ at rate |ρ| - 1 and
    never returns; 1 on the absorbing ρ = {[n]}, where g is infinite.  Raises
    only when the ground sets differ.
    """
    g = bs_green(pi, rho)
    return Fraction(1) if g == math.inf else g * (len(rho) - 1)


def bs_block_green(i: int, j: int, n: int) -> Fraction:
    """Aggregated Green's matrix of the block-counting process.

    Expected total time with j blocks started from i blocks,

        (-1)^j ((j-1)!/(i-1)!) Σ_{k=j}^{i} ((-1)^k/(k-1)) [i, k] {k, j},

    requiring 2 <= j <= i <= n (j = 1 is the absorbing count).
    """
    if not (1 <= j <= i <= n):
        raise ValueError(f"need 1 <= j <= i <= n, got i={i}, j={j}, n={n}")
    if j == 1:
        raise ValueError("the one-block count is absorbing; its Green entry diverges")
    coeffs = [stirling_first(i, k) * stirling_second(k, j) for k in range(i + 1)]
    return _green_sum(i, j, coeffs)


def kingman_hitting(pi: SetPartition, rho: SetPartition) -> Fraction:
    """P(the Kingman coalescent from π ever visits ρ).

    The jump chain picks uniform pair mergers, so the probability is the
    ratio of maximal-chain counts through ρ and reduces to

        h(π, ρ) = (∏_B m_B!) / L(|π|, |ρ|)

    with L the Lah number.  Zero when π is not finer than ρ.
    """
    key = pair_key(pi, rho)
    if key is None:
        return Fraction(0)
    p, r, sizes = key
    prod = 1
    for s in sizes:
        prod *= factorial(s)
    return Fraction(prod, lah(p, r))


def transition_via_triple(triple: SpectralTriple, t: float) -> np.ndarray:
    """Floating-point transition matrix e^(tQ) = R e^(tD) L from a triple.

    Meant for lattice triples.  On block-counting triples R e^(tD) L cancels
    in floats: at t = 0.01 the last row is clean for BS at n = 20 (row sum
    off by 2.1e-12), but at n = 60 it has 13 negative cells, cells of -5.18
    and 4.75, and a row sum off by -2.83; for Kingman it has 3 negative cells
    (down to -7.1e-13) at n = 20 and 18 (down to -3.96e-3) at n = 60.  Exact
    block-counting laws are ROADMAP item 4.
    """
    import numpy as np

    if not 0 <= t < math.inf:
        raise ValueError(f"time must be {'nonnegative' if t < 0 else 'finite'}")
    R = triple.R.to_float()
    L = triple.L.to_float()
    # products in Python floats: an overflow is -inf, and e^-inf = 0, unwarned;
    # R's columns are scaled in place, so no third dense array is made
    R *= np.exp([t * float(d) for d in triple.D])
    return R @ L
