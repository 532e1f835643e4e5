"""Splitting a D(p1+p2, p1+p2) digraph into a D(p1,p1) part and a D(p2,p2)
part that share one (X, Y) vertex witness, via bipartite edge coloring."""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    Digraph,
    Edge,
    InputError,
    AlgorithmBugError,
    PreconditionError,
    class_partition,
)


def bipartite_edge_coloring(
    left_n: int,
    right_n: int,
    edges: list[tuple[int, int]],
    delta: int,
) -> list[int]:
    """Properly color the edges of a bipartite multigraph with colors
    1..delta; returns the color of each edge by its position in `edges`, so
    parallel edges stay distinct.

    Incremental insertion: when both endpoints have a free color but no common
    one, swap colors along the alternating path (Vizing fan degenerates to a
    path in the bipartite case, which is why delta colors always suffice).
    """
    deg_l = [0] * left_n
    deg_r = [0] * right_n
    for u, v in edges:
        if not (0 <= u < left_n and 0 <= v < right_n):
            raise InputError(f"edge ({u}, {v}) out of range")
        deg_l[u] += 1
        deg_r[v] += 1
    if any(d > delta for d in deg_l) or any(d > delta for d in deg_r):
        raise InputError("maximum degree exceeds delta")

    # at_l[u][c] / at_r[v][c]: index of the edge colored c at that vertex
    at_l: list[dict[int, int]] = [{} for _ in range(left_n)]
    at_r: list[dict[int, int]] = [{} for _ in range(right_n)]
    colors = [0] * len(edges)

    def free(used: dict[int, int]) -> int:
        return next(c for c in range(1, delta + 1) if c not in used)

    for i, (u, v) in enumerate(edges):
        a = free(at_l[u])
        b = free(at_r[v])
        if a != b:
            # walk the a/b alternating path from v and swap its colors;
            # it cannot return to u because the path alternates sides on
            # alternating colors and u misses a entirely
            side, x, want = "r", v, a
            path = []
            while True:
                used = at_r[x] if side == "r" else at_l[x]
                if want not in used:
                    break
                f = used[want]
                path.append(f)
                x = edges[f][0] if side == "r" else edges[f][1]
                side = "l" if side == "r" else "r"
                want = b if want == a else a
            for f in path:
                del at_l[edges[f][0]][colors[f]]
                del at_r[edges[f][1]][colors[f]]
            for f in path:
                new = b if colors[f] == a else a
                colors[f] = new
                at_l[edges[f][0]][new] = f
                at_r[edges[f][1]][new] = f
            b = a
        colors[i] = a
        at_l[u][a] = i
        at_r[v][a] = i

    # properness is cheap to recheck and the swap logic is fiddly: assert it
    for vmap in (*at_l, *at_r):
        for c, f in vmap.items():
            if colors[f] != c:
                raise AlgorithmBugError("edge coloring bookkeeping broken")
    return colors


@dataclass(frozen=True)
class SplitResult:
    D1: Digraph
    D2: Digraph
    X: tuple[int, ...]
    Y: tuple[int, ...]


def split_dkk(D: Digraph, p1: int, p2: int,
              balance_f: bool = False) -> SplitResult:
    """Split D in D(p1+p2, p1+p2) into edge-disjoint D1 in D(p1,p1) and
    D2 in D(p2,p2), both witnessed by the same (X, Y) partition.

    The Y->X edges form a bipartite graph of maximum degree <= p1+p2 (in-side
    X, out-side Y); a proper (p1+p2)-edge-coloring splits them so that every
    constrained degree lands under its budget.  X->Y edges are unconstrained
    and go to D1 (or alternate when balance_f is set).
    """
    if p1 < 0 or p2 < 0:
        raise PreconditionError("p1 and p2 must be non-negative")
    p = p1 + p2
    part = class_partition(D, p, p)
    if part is None:
        raise PreconditionError(f"digraph is not in D({p},{p})")
    X, Y = set(part.X), set(part.Y)

    B = [e for e in D.edges if e[0] in Y and e[1] in X]
    F = [e for e in D.edges if e[0] in X and e[1] in Y]

    # color B: left side indexes X (by head), right side indexes Y (by tail)
    xi = {v: i for i, v in enumerate(sorted(X))}
    yi = {v: i for i, v in enumerate(sorted(Y))}
    bip = [(xi[v], yi[u]) for u, v in B]
    # for p = 0, B is empty: a Y vertex has out-degree 0 in D(0,0)
    e1: set[Edge] = set()
    e2: set[Edge] = set()
    for e, c in zip(B, bipartite_edge_coloring(len(xi), len(yi), bip, p)):
        (e1 if c <= p1 else e2).add(e)

    # fill the remaining constrained stars greedily under the budgets;
    # B-edges are already placed and count against them
    def fill(star: list[Edge]) -> None:
        used1 = sum(1 for e in star if e in e1)
        used2 = sum(1 for e in star if e in e2)
        for e in star:
            if e in e1 or e in e2:
                continue
            if used1 < p1:
                e1.add(e)
                used1 += 1
            elif used2 < p2:
                e2.add(e)
                used2 += 1
            else:
                raise AlgorithmBugError("star budget exhausted")

    for x in sorted(X):
        fill(D.in_edges(x))
    for y in sorted(Y):
        fill(D.out_edges(y))

    # unconstrained X->Y edges, in no star above
    for i, e in enumerate(F):
        if balance_f:
            (e1 if i % 2 == 0 else e2).add(e)
        elif p1 > 0:
            e1.add(e)
        else:
            e2.add(e)
    leftover = set(D.edges) - e1 - e2
    if leftover:
        raise AlgorithmBugError(f"edges assigned to neither part: {sorted(leftover)}")

    D1 = Digraph(D.n, sorted(e1))
    D2 = Digraph(D.n, sorted(e2))
    for Dj, pj in ((D1, p1), (D2, p2)):
        for x in X:
            if Dj.in_deg(x) > pj:
                raise AlgorithmBugError("X-side in-degree budget violated")
        for y in Y:
            if Dj.out_deg(y) > pj:
                raise AlgorithmBugError("Y-side out-degree budget violated")
        if class_partition(Dj, pj, pj) is None:
            raise AlgorithmBugError("split part fails class membership")
    return SplitResult(D1, D2, tuple(sorted(X)), tuple(sorted(Y)))
