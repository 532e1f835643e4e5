"""Independent output checks.

Each check works from the benchmark's own copy of the input edge list and
the witness the program returned, never from the program's parsed graph, and
compares in integers.  A failed check raises `CheckFailed`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


class CheckFailed(Exception):
    """The program's output does not pass the benchmark's own check."""


def _partition(n: int, X, Y) -> set[int]:
    xs = set(X)
    if len(xs) != len(X) or any(not 0 <= v < n for v in xs):
        raise CheckFailed("X has repeated or out-of-range vertices")
    if sorted(Y) != [v for v in range(n) if v not in xs]:
        raise CheckFailed("Y is not the complement of X")
    return xs


def check_cut(n: int, edges, X, Y, cut_edges, size: int, bound: Fraction,
              opt: Optional[int]) -> None:
    """X induces exactly `cut_edges`, which meet the bound and, where the
    oracle ran, do not exceed the optimum."""
    xs = _partition(n, X, Y)
    cut = [e for e in edges if e[0] in xs and e[1] not in xs]
    if sorted(cut) != sorted(cut_edges) or size != len(cut):
        raise CheckFailed(f"claimed cut of {size} edges does not match X ({len(cut)})")
    if size * bound.denominator < bound.numerator:
        raise CheckFailed(f"cut {size} below bound {bound}")
    if opt is not None and size > opt:
        raise CheckFailed(f"cut {size} exceeds the optimum {opt}")


def _degrees(n: int, edges) -> tuple[list[int], list[int]]:
    din, dout = [0] * n, [0] * n
    for u, v in edges:
        dout[u] += 1
        din[v] += 1
    return din, dout


def check_peel(n: int, edges, k: int, rest_edges, removed) -> None:
    """R is a subset of E, the remainder is E - R and lies in D(k-1,k-1),
    and (2k+1)|R| <= 2m."""
    E = set(edges)
    R = set(removed)
    if len(R) != len(removed) or not R <= E:
        raise CheckFailed("removed set repeats edges or leaves E")
    rest = sorted(E - R)
    if sorted(rest_edges) != rest:
        raise CheckFailed("returned remainder is not E - R")
    din, dout = _degrees(n, rest)
    for v in range(n):
        if din[v] > k - 1 and dout[v] > k - 1:
            raise CheckFailed(f"remainder leaves D({k - 1},{k - 1}) at {v}")
    if (2 * k + 1) * len(R) > 2 * len(E):
        raise CheckFailed(f"|R| = {len(R)} exceeds 2m/(2k+1)")


def check_split(n: int, edges, p1: int, p2: int, X, Y, part1, part2) -> None:
    """The parts are disjoint, cover E, and both meet their class budgets on
    the shared (X, Y): X in-degree <= p_j, Y out-degree <= p_j."""
    xs = _partition(n, X, Y)
    s1, s2 = set(part1), set(part2)
    if len(s1) != len(part1) or len(s2) != len(part2) or s1 & s2:
        raise CheckFailed("split parts overlap")
    if s1 | s2 != set(edges):
        raise CheckFailed("split parts do not give E")
    for part, p in ((s1, p1), (s2, p2)):
        din, dout = _degrees(n, part)
        for v in range(n):
            if (din[v] if v in xs else dout[v]) > p:
                raise CheckFailed(f"vertex {v} exceeds budget {p}")
