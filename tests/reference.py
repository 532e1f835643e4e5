"""Instance builders, brute-force references and a construction counter
that several test files use.

Each helper lives here once, and every test file imports it from here; no
test module imports another.  The module needs only the standard library
and `dicuts` when it is imported, so the golden corpus writer
(`python tests/test_golden.py`) runs without pytest, hypothesis or
networkx.  `forest_reference` imports networkx when it is called.

The name is not `instances`: `tests/test_scale.py` puts `bench/` on the
path after this directory, and `bench/instances.py` must stay reachable.
"""

from __future__ import annotations

import itertools
import random

from dicuts import d11
from dicuts.d11 import contraction_graph
from dicuts.digraph import (AlgorithmBugError, CutCertificate, Digraph, Piece,
                            WorkGraph)


# -- instance builders -----------------------------------------------------

def triangle_chain(t):
    """t directed triangles in a row, a bridge from each apex to the next
    tail: m = 4t - 1, and t disjoint triangles."""
    edges = []
    for i in range(t):
        a = 3 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a)]
        if i:
            edges.append((a - 2, a))
    return Digraph(3 * t, edges)


def book(pages):
    """Triangles 0->1->x->0 on the one edge 0->1, x = 2..pages+1: in
    D(1,1), m = 2 pages + 1, and no two triangles are disjoint."""
    edges = [(0, 1)]
    for x in range(2, pages + 2):
        edges += [(1, x), (x, 0)]
    return Digraph(pages + 2, edges)


# one hand-built instance per reducing-pair pattern, chosen so that all
# earlier patterns in the scan order stay silent; each has more than 6
# edges, so dicut_d11 does not hand it to the oracle whole
PATTERN_INSTANCES = {
    "leaf-in-minus": Digraph(8, [(6, 0), (0, 4), (1, 4), (2, 5), (3, 5),
                                 (4, 5), (5, 7)]),
    "even-cycle": Digraph(8, [(i, (i + 1) % 4) for i in range(4)]
                          + [(i, 4 + i) for i in range(4)]),
    "v0-attach-with-inedge": Digraph(9, [(0, 1), (1, 2), (2, 0)]
                                     + [(3 + i, i) for i in range(3)]
                                     + [(6 + i, 3 + i) for i in range(3)]),
    "v0-attach-source": Digraph(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, i) for i in range(5)]),
    "path-or-cycle": Digraph(9, [(i, (i + 1) % 9) for i in range(9)]),
    "multiedge-in-M": Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                  (5, 3), (0, 3), (1, 4), (2, 5)]),
}


def _gamma_instance():
    edges = []
    for i in range(3):
        p = [3 * i, 3 * i + 1, 3 * i + 2]
        z = [9 + 3 * i, 9 + 3 * i + 1, 9 + 3 * i + 2]
        edges += [(p[0], p[1]), (p[1], p[2]), (p[2], p[0])]
        edges += [(z[0], z[1]), (z[1], z[2]), (z[2], z[0])]
    for i in range(3):
        for j in range(3):
            edges.append((3 * i + j, 9 + 3 * j + i))
    return Digraph(18, edges)


PATTERN_INSTANCES["gamma-cycle"] = _gamma_instance()


def linked_cycles(rng, N):
    """N vertices of D+ and N of D- (N >= 3, N != 4), each side a union of
    directed cycles whose lengths are drawn from {3, 5, 7}, and each plus
    vertex linked to its own minus vertex, on shuffled labels.  Every plus
    vertex has out-degree 2 and every minus vertex in-degree 2, so no leaf
    or triangle step applies and d11's first step is a later pattern."""
    def lengths():
        out, left = [], N
        while left:
            out.append(rng.choice([L for L in (3, 5, 7)
                                   if left - L in (0, 3) or left - L >= 5]))
            left -= out[-1]
        return out

    edges, n = [], 0
    sides = []
    for _ in range(2):
        side = []
        for length in lengths():
            c = list(range(n, n + length))
            n += length
            side += c
            edges += zip(c, c[1:] + c[:1])
        sides.append(side)
    plus, minus = sides
    rng.shuffle(minus)
    edges += zip(plus, minus)
    label = list(range(n))
    rng.shuffle(label)
    return Digraph(n, [(label[u], label[v]) for u, v in edges])


def double_star(k):
    """k sources -> b -> c -> k sinks, b and c the highest ids: m = 2k + 1,
    and b and c hubs of in- and out-degree k."""
    b, c = 2 * k, 2 * k + 1
    return Digraph(2 * k + 2, [(a, b) for a in range(k)] + [(b, c)]
                   + [(c, d) for d in range(k, 2 * k)])


def dense_d22(n, seed):
    """A D(2,2) member with m = Theta(n^2): X is the first half, each X->Y
    pair is kept with probability 1/2, every x gets two in-edges from X and
    every y two out-edges into Y."""
    rng = random.Random(seed)
    X, Y = range(n // 2), range(n // 2, n)
    edges = {(x, y) for x in X for y in Y if rng.random() < 0.5}
    for x in X:
        edges.update((u, x) for u in rng.sample([u for u in X if u != x], 2))
    for y in Y:
        edges.update((y, w) for w in rng.sample([w for w in Y if w != y], 2))
    return Digraph(n, edges)


def random_dkk(rng, n, k):
    """A random member of D(k,k), digons allowed: each ordered pair is
    drawn with probability 1/2 unless it would lift an X vertex's in-degree
    or a Y vertex's out-degree past k."""
    X = set(rng.sample(range(n), rng.randint(0, n)))
    indeg, outdeg, edges = [0] * n, [0] * n, []
    for u, v in itertools.permutations(range(n), 2):
        if (rng.random() < 0.5 and not (v in X and indeg[v] == k)
                and not (u not in X and outdeg[u] == k)):
            edges.append((u, v))
            indeg[v] += 1
            outdeg[u] += 1
    return Digraph(n, edges)


# -- references --------------------------------------------------------------

def contraction_of(D):
    """The plus cycles, the minus cycles and the links of D's contraction
    graph, from one walk of D- and one of D+ as `find_reducing_pair` makes
    them.  The plus cycles run backwards, which the links do not see."""
    _, minus_cycles = d11._leaf_in_minus(D)
    _, plus_cycles = d11._leaf_in_minus(D.reverse())
    return plus_cycles, minus_cycles, contraction_graph(
        D, plus_cycles, minus_cycles)


def leaf_in_minus_by_components(D):
    """Claim 1.3's leaf rule as first written: walk the weak components of
    D- in order of least vertex, and fire on the first one that has a leaf
    (no in-neighbour in the component), at its least leaf, or that is a
    cycle with a vertex of two in-neighbours outside it, at the least such
    vertex.  Returns (step, None) or (None, D-'s cycles, each from its
    least vertex)."""
    succ, pred = D.succ, D.pred
    seen, cycles = set(), []
    for s in D.vertices:
        if s in seen or len(pred[s]) < 2:
            continue
        seen.add(s)
        stack, comp = [s], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in succ[v] + pred[v]:
                if w not in seen and len(pred[w]) >= 2:
                    seen.add(w)
                    stack.append(w)
        comp.sort()
        cs = set(comp)
        leaves = [v for v in comp if cs.isdisjoint(pred[v])]
        for v0 in leaves or comp:
            ext = [u for u in pred[v0] if u not in cs]
            if len(ext) >= 2:
                B = set(D.out_edges(v0)) | set(D.in_edges(ext[0])) | set(
                    D.in_edges(ext[1]))
                return d11._pair(D, {(ext[0], v0), (ext[1], v0)}, B,
                                 "leaf-in-minus"), None
        order = comp[:1]
        while True:
            nxt = [w for w in succ[order[-1]] if w in cs]
            assert len(nxt) == 1, "component is not a directed cycle"
            if nxt[0] == order[0]:
                break
            order.append(nxt[0])
        cycles.append(order)
    return None, cycles


def forest_reference(D):
    """The triangles of the triangle-forest shape by brute force: every set
    of t = (m+1)/4 vertex-disjoint triangles covering the vertices with
    edges, whose other t-1 edges join them into a tree.  Asserts that at
    most one such set exists."""
    import networkx as nx

    if (D.m + 1) % 4:
        return None
    t = (D.m + 1) // 4
    live = {v for e in D.edges for v in e}
    found = []
    for cover in itertools.combinations(D.triangles(), t):
        tri_of = {v: i for i, tri in enumerate(cover) for v in tri}
        if len(tri_of) != 3 * t or set(tri_of) != live:
            continue
        tri_edges = {e for a, b, c in cover for e in ((a, b), (b, c), (c, a))}
        G = nx.MultiGraph()
        G.add_nodes_from(range(t))
        G.add_edges_from((tri_of[u], tri_of[v]) for u, v in D.edges
                         if (u, v) not in tri_edges)
        if nx.is_connected(G):
            found.append(cover)
    assert len(found) <= 1
    return found[0] if found else None


def validate_by_edge_lists(D, A, B, tag):
    """`d11.validate_reducing_pair` as first written: it lists the in-edges
    of each tail and the out-edges of each head of A, looks each one up in
    B and in A, and finds A | B in `succ`."""
    A, B = frozenset(A), frozenset(B)
    if not A:
        raise AlgorithmBugError(f"{tag}: empty A")
    if A & B:
        raise AlgorithmBugError(f"{tag}: A and B intersect")
    succ, pred = D.succ, D.pred
    if any(v not in succ[u] for u, v in A | B):
        raise AlgorithmBugError(f"{tag}: pair uses edges outside D")
    if not {v for _, v in A}.isdisjoint(u for u, _ in A):
        raise AlgorithmBugError(f"{tag}: A contains a directed P3")
    for a, b in A:
        for e in [(u, a) for u in pred[a]]:
            if e not in B and e not in A:
                raise AlgorithmBugError(f"{tag}: uncovered P3 {e} -> {(a, b)}")
        for e in [(b, w) for w in succ[b]]:
            if e not in B and e not in A:
                raise AlgorithmBugError(f"{tag}: uncovered P3 {(a, b)} -> {e}")
    if 2 * len(B) > 3 * len(A):
        raise AlgorithmBugError(f"{tag}: |B| = {len(B)} > 3/2 |A| = {len(A)}")


def pieces_reference(succ, pred, vertices):
    """`WorkGraph.pieces` as first written: a fresh set and stack per call,
    walking the concatenation of each vertex's successors and predecessors."""
    seen = set()
    out = []
    for s in vertices:
        if s in seen or not (succ[s] or pred[s]):
            continue
        seen.add(s)
        stack, comp, m = [s], [], 0
        while stack:
            v = stack.pop()
            comp.append(v)
            m += len(succ[v])
            for w in succ[v] + pred[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort()
        out.append(Piece(comp, succ, pred, m))
    return out


def reduction_by_pieces(D, trace):
    """d11's reduction loop on the digon-free D(1,1) digraph D as it was
    before it ran on the union of its large pieces: a stack of pieces,
    where a piece of at most 6 edges goes to the oracle and any other
    takes `find_triangle_reduction` or `find_reducing_pair`, and what a
    step leaves of its piece is walked again (`pieces_reference`).
    Appends each step to `trace` and returns the banked edge set."""
    W = WorkGraph(D)
    work = pieces_reference(W.succ, W.pred, D.vertices)
    K = set()
    while work:
        H = work.pop()
        if H.m <= 6:
            step = d11._base_step(H)
        else:
            step = (d11.find_triangle_reduction(H)
                    or d11.find_reducing_pair(H))
            W.delete(step.kept + step.dropped)
            work.extend(pieces_reference(W.succ, W.pred, H.vertices))
        K.update(step.kept)
        trace.append(step)
    return K


def shortest_cycle_reference(adj, nodes):
    """The cycle finder as first written: BFS from each node in `nodes`
    order, and at each non-tree edge a walk over a list of the path up to
    the root."""
    best = None
    for s in nodes:
        if not adj[s]:
            continue
        parent = {s: None}
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in sorted(adj[v]):
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    path_v = []
                    x = v
                    while x is not None:
                        path_v.append(x)
                        x = parent[x]
                    path_w = []
                    x = w
                    while x not in path_v:
                        path_w.append(x)
                        x = parent[x]
                    join = path_v.index(x)
                    cand = path_v[: join + 1] + list(reversed(path_w))
                    if len(cand) >= 3 and (best is None or len(cand) < len(best)):
                        best = cand
                        if len(best) == 4:
                            return best
    return best


# -- counters ----------------------------------------------------------------

def certificates_built(monkeypatch, run) -> int:
    """The `CutCertificate`s that `run()` constructs, counted through
    pytest's `monkeypatch`; the one it returns must carry a positive bound."""
    built = []
    init = CutCertificate.__init__
    monkeypatch.setattr(CutCertificate, "__init__",
                        lambda c, *a: built.append(a) or init(c, *a))
    assert run().bound > 0
    return len(built)
