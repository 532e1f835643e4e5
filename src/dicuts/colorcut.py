"""Coloring-based directed cuts: the balanced-class counting bound, the
acyclic D(k,k) algorithm, and the 3m/10 algorithm for all of D(2,2)."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb

from .digraph import (
    AlgorithmBugError,
    CutCertificate,
    Digraph,
    Edge,
    InputError,
    PreconditionError,
    ResourceLimitError,
    Step,
    _cut_of,
    class_partition,
    cut_from_banked,
    shortest_bipartite_cycle,
)

MAX_SPLIT_WORK = 10**8  # C(gamma, gamma // 2) * (gamma + class pairs)


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring of an undirected graph with colors 0..gamma-1."""

    colors: tuple[int, ...]
    gamma: int


def _underlying_adj(n: int, und_edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in und_edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def degeneracy_order(adj: list[set[int]]) -> tuple[list[int], int]:
    """Remove a minimum-degree vertex of the graph on 0..len(adj)-1,
    `adj[v]` the neighbour set of v, repeatedly, the least one on ties;
    returns (order, d) where d is the largest degree seen at removal time.
    Greedy coloring along the reverse order needs at most d+1 colors.

    A heap finds each minimum in O(log n).  Its entries are packed keys
    deg << b | v, with b = len(adj).bit_length() so that v fits below the
    degree: the keys order as (degree, vertex) pairs would, and compare as
    single ints.  A removed vertex reads degree -1, so its entries, like
    stale ones, no longer match and are skipped when popped."""
    b = len(adj).bit_length()
    low = (1 << b) - 1
    deg = [len(a) for a in adj]
    heap = [dv << b | v for v, dv in enumerate(deg)]
    heapify(heap)
    order = []
    d = 0
    while heap:
        key = heappop(heap)
        v = key & low
        dv = key >> b
        if dv != deg[v]:
            continue
        if dv > d:
            d = dv
        order.append(v)
        deg[v] = -1
        for w in adj[v]:
            dw = deg[w]
            if dw >= 0:
                deg[w] = dw = dw - 1
                heappush(heap, dw << b | w)
    return order, d


def greedy_color(n: int, und_edges, most: int) -> Coloring:
    """Color the n vertices smallest-last: in reverse `degeneracy_order`,
    each takes the least color unused by its already-colored neighbors, so
    d+1 colors suffice; a degeneracy d above `most` is a bug."""
    adj = _underlying_adj(n, und_edges)
    order, d = degeneracy_order(adj)
    if d > most:
        raise AlgorithmBugError(f"degeneracy {d} exceeds {most}")
    colors = [-1] * n
    for v in reversed(order):
        used = {colors[w] for w in adj[v]}  # -1 for an uncolored neighbour
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return Coloring(tuple(colors), max(colors, default=-1) + 1)


def best_balanced_class_bipartition(
    coloring: Coloring, und_edges
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the color classes of all the vertices `coloring` colors into
    groups of floor(gamma/2) and the rest with the most crossing edges; the
    average such split crosses (floor(gamma^2/4) / C(gamma,2)) * m edges.
    Raises `ResourceLimitError` before scoring any split, or building any
    table per class, when scoring all of them would take more than
    MAX_SPLIT_WORK steps.

    An edge inside a group S meets two of its classes and a crossing edge
    one, so with deg(c) the edges at class c and inside(S) the edges
    between classes of S, crossing(S) = sum of deg(c) over c in S minus
    2 * inside(S): floor(gamma/2) + C(floor(gamma/2), 2) table reads.
    With 2 or 3 classes a group is one class, so only deg is built."""
    gamma = coloring.gamma
    if gamma < 2:
        raise InputError("need at least two color classes")
    # edges per unordered class pair, so no split reads an edge
    colors = coloring.colors
    pair_count: dict[tuple[int, int], int] = {}
    for u, v in und_edges:
        cu, cv = colors[u], colors[v]
        if cu == cv:
            raise InputError("coloring is not proper")
        pair = (cu, cv) if cu < cv else (cv, cu)
        pair_count[pair] = pair_count.get(pair, 0) + 1
    # the guard charges each split gamma + len(pair_count) steps; the
    # binomial grows term by term and stops once past the guard, as a huge
    # gamma makes it huge too, and the tables per class come after it
    work, half = gamma + len(pair_count), gamma // 2
    splits = 1
    for i in range(1, half + 1):
        splits = splits * (gamma - half + i) // i
        if splits * work > MAX_SPLIT_WORK:
            raise ResourceLimitError(
                f"C({gamma}, {half}) splits of {work} steps each exceed "
                f"the split guard {MAX_SPLIT_WORK}")
    deg = [0] * gamma
    # a group of one class holds no class pair to read
    between = [[0] * gamma for _ in range(gamma)] if half > 1 else None
    for (cu, cv), c in pair_count.items():
        deg[cu] += c
        deg[cv] += c
        if between:
            between[cu][cv] = between[cv][cu] = c
    best = None
    for group in combinations(range(gamma), half):
        crossing = sum(map(deg.__getitem__, group)) - 2 * sum(
            [between[cu][cv] for cu, cv in combinations(group, 2)])
        if best is None or crossing > best:
            best = crossing
            best_group = set(group)
    m = sum(pair_count.values())
    need = Fraction((gamma * gamma // 4) * m, comb(gamma, 2))
    if best < need:
        raise AlgorithmBugError(
            f"balanced split crosses {best} < guaranteed {need}")
    S = tuple(v for v, c in enumerate(colors) if c in best_group)
    T = tuple(v for v, c in enumerate(colors) if c not in best_group)
    return S, T


def _leaving_side(coloring: Coloring, edges) -> set[int]:
    """The side of the best balanced class split that more of `edges` leave
    than enter, S itself on a tie: one orientation gets at least half of
    the crossing edges."""
    S, T = best_balanced_class_bipartition(coloring, edges)
    ss = set(S)
    leave_minus_enter = sum((u in ss) - (v in ss) for u, v in edges)
    return ss if leave_minus_enter >= 0 else set(T)


def dicut_acyclic(D: Digraph, k: int) -> CutCertificate:
    """A directed cut of size >= (k+1)m/(4k+2) for acyclic D in D(k,k).

    Both sides of the degree witness induce k-degenerate underlying graphs,
    so 2k+2 colors suffice; a best balanced class split then donates at
    least half of its crossing edges to one orientation.
    """
    if not D.is_acyclic():
        raise PreconditionError("digraph is not acyclic")
    if class_partition(D, k, k) is None:
        raise PreconditionError(f"digraph is not in D({k},{k})")
    # one pass colors both sides over the edges within a side: none of them
    # joins the sides, so neither side's heap pops or color choices see the
    # other, and the sides' colors only need an offset to stay apart
    high = [D.out_deg(v) > k for v in range(D.n)]
    same_side = [(u, v) for u, v in D.edges if high[u] == high[v]]
    col = greedy_color(D.n, same_side, k)
    colors = [c + k + 1 if h else c for c, h in zip(col.colors, high)]
    for u, v in D.edges:
        if colors[u] == colors[v]:
            raise AlgorithmBugError("combined coloring is not proper")
    full = Coloring(tuple(colors), 2 * k + 2)
    return _cut_of(D, _leaving_side(full, D.edges),
                   Fraction((k + 1) * D.m, 4 * k + 2))


def dicut_d22(D: Digraph, trace: list[Step] | None = None) -> CutCertificate:
    """A directed cut of size >= 3m/10 for any D in D(2,2).

    While the bipartite graph of X->Y edges has a cycle, bank the cycle
    edges (P3-free after deleting their in/out neighborhoods) and delete
    them; what is left is 5-degenerate, 6-colorable, and a balanced class
    split gives 3m/5 bichromatic edges, half of them oriented one way.

    Each step goes to `trace` as `Step("cycle", F_C, E_C)`: the cycle edges,
    all oriented X -> Y, and the side edges deleted alongside, whose head
    is a tail of F_C or whose tail is a head of F_C.  A step deletes E_C by
    emptying the in-sets of the cycle's X vertices and the out-sets of its
    Y vertices; it touches F's lists only for F_C, and it lists E_C as
    edges only for a trace.
    """
    if class_partition(D, 2, 2) is None:
        raise PreconditionError("digraph is not in D(2,2)")
    S = _d22_p3free(D, trace)
    return cut_from_banked(D, S, Fraction(3 * D.m, 10))


def _d22_p3free(D: Digraph, trace: list[Step] | None) -> set[Edge]:
    """D is in D(2,2), and stays there as edges go, so the witness
    (X, Y) of `class_partition` is X = {v : d-(v) <= 2} at every step.

    The working graph is kept as succ/pred sets, X flags and the undirected
    adjacency of F (the X -> Y edges) as ascending lists.  A step empties
    the in-sets of the cycle's X vertices and the out-sets of its Y
    vertices (E_C, whose edges never lie in F), then deletes F_C, the only
    deleted edges on F's lists; E_C is listed as edges only for a trace.
    F's lists change per F_C edge and per vertex whose in-degree falls to
    2; X only grows, as in-degrees only fall.  `lo` never exceeds the
    least node with an F edge: a node gains F edges only when it joins X
    or becomes a joining vertex's new neighbour, and both lower `lo`.  So
    the finder neither sorts a list nor rescans the empty nodes below
    `lo`.  The base case reads the remainder as an edge list."""
    n = D.n
    succ = [set(vs) for vs in D.succ]
    pred = [set(us) for us in D.pred]
    in_x = [len(pred[v]) <= 2 for v in range(n)]
    # D.edges ascends, so both ends' lists come out ascending
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in D.edges:
        if in_x[u] and not in_x[v]:
            adj[u].append(v)
            adj[v].append(u)
    banked: set[Edge] = set()
    lo = 0
    while True:
        while lo < n and not adj[lo]:
            lo += 1
        if (cyc := shortest_bipartite_cycle(adj, lo)) is None:
            break
        F_C = []
        for i, v in enumerate(cyc):
            w = cyc[i - 1]
            x, y = (v, w) if in_x[v] else (w, v)
            if not (in_x[x] and not in_x[y] and y in succ[x]):
                raise AlgorithmBugError("cycle edge missing from F")
            F_C.append((x, y))
        # the check proved that the cycle alternates between X and Y
        xc, yc = cyc[0::2], cyc[1::2]
        if not in_x[xc[0]]:
            xc, yc = yc, xc
        # F_C runs X -> Y, so it holds no in-edge of X and no out-edge of Y
        if trace is not None:
            E_C = ({(u, x) for x in xc for u in pred[x]}
                   | {(y, w) for y in yc for w in succ[y]})
            trace.append(Step("cycle", tuple(sorted(F_C)), tuple(sorted(E_C))))
        banked.update(F_C)
        # E_C by vertex: its edges end in X or start in Y, so none is on
        # F's lists, and only heads outside X can join it; a head outside
        # X has in-degree at least 3, so it falls to 2 once, on one edge
        joined = []
        for x in xc:
            for u in pred[x]:
                succ[u].discard(x)
            pred[x].clear()
        for y in yc:
            for w in succ[y]:
                pw = pred[w]
                pw.discard(y)
                if len(pw) == 2 and not in_x[w]:
                    joined.append(w)
            succ[y].clear()
        for x, y in F_C:
            succ[x].discard(y)
            pred[y].discard(x)
            adj[x].remove(y)
            adj[y].remove(x)
            if len(pred[y]) == 2:
                joined.append(y)
        for v in joined:
            in_x[v] = True
            for u in pred[v]:
                if in_x[u]:  # u -> v leaves F
                    adj[u].remove(v)
                    adj[v].remove(u)
            for w in succ[v]:
                if not in_x[w]:  # v -> w joins F
                    insort(adj[v], w)
                    insort(adj[w], v)
                    lo = min(lo, v, w)
    return banked | _d22_base(n, [(u, v) for u in range(n) for v in succ[u]])


def _d22_base(n: int, edges: list[Edge]) -> set[Edge]:
    """The X->Y edges form a forest, so the graph is 5-degenerate: 6-color it
    and take the best balanced class split's better orientation.  The order
    of `edges` does not matter."""
    if not edges:
        return set()
    side = _leaving_side(greedy_color(n, edges, 5), edges)
    return {(u, v) for u, v in edges if u in side and v not in side}
