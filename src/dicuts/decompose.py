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
    One table holds every vertex: right vertex v is numbered left_n + v.
    """
    ends = []
    deg = [0] * (left_n + right_n)
    for u, v in edges:
        if not (0 <= u < left_n and 0 <= v < right_n):
            raise InputError(f"edge ({u}, {v}) out of range")
        ends.append((u, left_n + v))
        deg[u] += 1
        deg[left_n + v] += 1
    if any(d > delta for d in deg):
        raise InputError("maximum degree exceeds delta")

    # at[x][c]: index of the edge colored c at vertex x
    at: list[dict[int, int]] = [{} for _ in deg]
    colors = [0] * len(edges)

    def free(used: dict[int, int]) -> int:
        return next(c for c in range(1, delta + 1) if c not in used)

    for i, (u, v) in enumerate(ends):
        a = free(at[u])
        b = free(at[v])
        if a != b:
            # walk the a/b alternating path from v and swap its colors;
            # it cannot return to u because the path alternates between
            # left and right on alternating colors and u misses a entirely
            x, want = v, a
            path = []
            while want in at[x]:
                f = at[x][want]
                path.append(f)
                x = sum(ends[f]) - x  # the edge's other end
                want = b if want == a else a
            for f in path:
                for y in ends[f]:
                    del at[y][colors[f]]
            for f in path:
                colors[f] = b if colors[f] == a else a
                for y in ends[f]:
                    at[y][colors[f]] = f
        colors[i] = a
        at[u][a] = i
        at[v][a] = i

    # properness is cheap to recheck and the swap logic is fiddly: assert it
    for vmap in at:
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
    constrained degree lands under its budget.  A star's other edges, those
    within its vertex's side, then fill D1's budget and go to D2 past it.
    X->Y edges are unconstrained and go to D1 (or alternate when balance_f
    is set).
    """
    if p1 < 0 or p2 < 0:
        raise PreconditionError("p1 and p2 must be non-negative")
    p = p1 + p2
    part = class_partition(D, p, p)
    if part is None:
        raise PreconditionError(f"digraph is not in D({p},{p})")
    # pos: a vertex's index on its side of the witness
    pos, in_x = [0] * D.n, [False] * D.n
    for i, x in enumerate(part.X):
        pos[x], in_x[x] = i, True
    for i, y in enumerate(part.Y):
        pos[y] = i
    B = [e for e in D.edges if in_x[e[1]] and not in_x[e[0]]]
    F = [e for e in D.edges if in_x[e[0]] and not in_x[e[1]]]

    # color B: left side indexes X (by head), right side indexes Y (by tail)
    bip = [(pos[v], pos[u]) for u, v in B]
    # for p = 0, B is empty: a Y vertex has out-degree 0 in D(0,0)
    e1: list[Edge] = []
    e2: list[Edge] = []
    used1 = [0] * D.n  # B edges in D1 at each vertex
    for e, c in zip(B, bipartite_edge_coloring(len(part.X), len(part.Y),
                                               bip, p)):
        if c <= p1:
            e1.append(e)
            used1[e[0]] += 1
            used1[e[1]] += 1
        else:
            e2.append(e)

    # the B edges at a star hold used1 of D1's budget
    for v in D.vertices:
        star = ([(u, v) for u in D.pred[v] if in_x[u]] if in_x[v]
                else [(v, w) for w in D.succ[v] if not in_x[w]])
        e1 += star[:p1 - used1[v]]
        e2 += star[p1 - used1[v]:]

    # unconstrained X->Y edges, in no star above
    if balance_f:
        e1 += F[::2]
        e2 += F[1::2]
    else:
        (e1 if p1 > 0 else e2).extend(F)
    leftover = D.edge_set.difference(e1, e2)
    if leftover:
        raise AlgorithmBugError(f"edges assigned to neither part, least {min(leftover)}")
    # with no leftover, m edges in all means e1 and e2 partition D's edges,
    # so neither part is checked again as a Digraph
    if len(e1) + len(e2) != D.m:
        raise AlgorithmBugError("an edge was assigned to both parts or twice")

    D1 = Digraph._derived(D.n, tuple(sorted(e1)))
    D2 = Digraph._derived(D.n, tuple(sorted(e2)))
    for Dj, pj in ((D1, p1), (D2, p2)):
        for x in part.X:
            if Dj.in_deg(x) > pj:
                raise AlgorithmBugError("X-side in-degree budget violated")
        for y in part.Y:
            if Dj.out_deg(y) > pj:
                raise AlgorithmBugError("Y-side out-degree budget violated")
    return SplitResult(D1, D2, part.X, part.Y)
