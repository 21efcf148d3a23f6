"""Exact combinatorial numbers used throughout the closed forms.

Everything here is arbitrary-precision integer (or ``fractions.Fraction``)
arithmetic.  The Stirling triangles are memoized module-wide, so repeated
queries after the first are dictionary lookups.
"""

from __future__ import annotations

from math import comb, factorial

__all__ = [
    "stirling_first",
    "stirling_second",
    "lah",
    "bell",
    "ascending_factorial",
]

_FIRST: dict[tuple[int, int], int] = {}
_SECOND: dict[tuple[int, int], int] = {}


def _triangle(memo: dict, first: bool, i: int, j: int) -> int:
    """Entry (i, j) of a Stirling triangle, filling ``memo`` without recursion.

    T(i, j) = T(i-1, j-1) + w T(i-1, j) with w = i - 1 for the first kind and
    w = j for the second; T(0, 0) = 1, and T(i, j) = 0 for j = 0 < i and for
    j > i.  Only entries with 1 <= j <= i are stored.  A missing entry waits
    on an explicit stack while its missing parents are filled, so the depth
    of the triangle is not bounded by the interpreter's recursion limit.
    """
    if i < 0 or j < 0:
        raise ValueError("Stirling indices must be nonnegative")
    if j == 0 or j > i:
        return 1 if i == j else 0
    get = memo.get
    pending = []
    a, c = i, j
    while True:
        left = (1 if a == 1 else 0) if c == 1 else get((a - 1, c - 1))
        if left is None:
            pending.append((a, c))
            a, c = a - 1, c - 1
            continue
        right = 0 if c == a else get((a - 1, c))
        if right is None:
            pending.append((a, c))
            a -= 1
            continue
        v = memo[a, c] = left + (a - 1 if first else c) * right
        if not pending:
            return v
        a, c = pending.pop()


def stirling_first(i: int, j: int) -> int:
    """Unsigned Stirling number of the first kind ``[i, j]``.

    Counts permutations of an ``i``-element set with exactly ``j`` cycles.
    Computed by the triangle ``[i, j] = [i-1, j-1] + (i-1) [i-1, j]``.
    """
    v = _FIRST.get((i, j))
    return _triangle(_FIRST, True, i, j) if v is None else v


def stirling_second(i: int, j: int) -> int:
    """Stirling number of the second kind ``{i, j}``.

    Counts partitions of an ``i``-element set into exactly ``j`` blocks.
    Computed by the triangle ``{i, j} = {i-1, j-1} + j {i-1, j}``.
    """
    v = _SECOND.get((i, j))
    return _triangle(_SECOND, False, i, j) if v is None else v


def lah(i: int, j: int) -> int:
    """Lah number ``L(i, j) = C(i-1, j-1) * i! / j!``.

    Counts partitions of an ``i``-element set into ``j`` nonempty linearly
    ordered blocks.  Zero for ``j > i``.
    """
    if i < 1 or j < 1:
        raise ValueError("Lah indices must be positive")
    if j > i:
        return 0
    return comb(i - 1, j - 1) * (factorial(i) // factorial(j))


def bell(n: int) -> int:
    """Bell number: the number of set partitions of an ``n``-element set."""
    if n < 0:
        raise ValueError("Bell index must be nonnegative")
    return sum(stirling_second(n, j) for j in range(n + 1))


def ascending_factorial(x, k: int):
    """Ascending factorial ``x (x+1) ... (x+k-1)``; the empty product is 1.

    Exact for int or Fraction ``x``; works elementwise on floats too.
    """
    if k < 0:
        raise ValueError("ascending factorial length must be nonnegative")
    out = 1
    for m in range(k):
        out = out * (x + m)
    return out
