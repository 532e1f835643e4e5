"""Constructive directed-cut algorithms for digon-free digraphs in D(1,1).

The work horse is a loop that repeatedly either peels a triangle edge into
the growing P3-free set, or finds a *reducing pair* (A, B): disjoint edge
sets where A is P3-free and every directed P3 with one edge in A has its
other edge in B, with |B| <= 3/2 |A|.  Adding A to the cut-in-progress and
deleting A u B keeps the 2/5 accounting.  Every constructed pair is
validated at runtime; a failed validation is an algorithm bug, never a
silently degraded answer.  Each step, a reducing pair included, is a `Step`
of the edges it banks (`kept`) and the other edges it deletes (`dropped`).

`dicut_d11` and `dicut_d11_connected` run from entry to certificate on one
`WorkGraph` of their input and build no `Digraph`.  Both are the same
reduction loop, which starts from the pieces its caller walked; d11c counts
them to check connectivity, and the loop alone clears 7m/20 on a triangle
forest too (proof at `dicut_d11_connected`).  A piece is a `Piece` view of
one weakly connected component with at least one edge, on the original
vertex ids.  A piece of at most 6 edges goes to the exact oracle, and its
base step splits the edges into kept and dropped in one pass.  Every other
piece stays in the working graph, and the loop steps on their union: a step
reads and deletes edges of one piece only, so steps in different pieces
commute, and each piece takes the steps it would take alone.  Min-heaps of
candidate vertices find the least vertex where the triangle step, the leaf
step of D- or the leaf step of D+ fires, each walked by `_first`, the one
heap walk; a run lists its input's triangles once (`Digraph.triangle_list`),
and d11's t, d11c's forest test and the triangle heap read that one
listing.  A deletion can make one of these patterns fire only where it
leaves a degree at 1, so only the neighbours there are pushed again.  Where
no candidate fires, `find_reducing_pair` runs on the piece of the least
vertex that still has an edge.  After each step, walks from the ends of its
edges that give up past 6 edges hand every piece it leaves of at most 6
edges to the oracle, so no step walks a whole piece again.  A reducing-pair
search scans D- and then D+ once each, in vertex order and read from the
degrees.  Each scan stops at the first vertex with two in- (out-) neighbours
outside its side, where the leaf pattern fires, or else follows that side's
cycles and hands them on to the later patterns and the contraction
graph.  `_leaf_at` is the one place the leaf pattern (Claim 1.3) is tested,
for these scans and for the loop's leaf heaps alike.  A bare path or cycle
is the case where both sides are empty.  The validation finds edges in
`succ` and reads the P3s through A straight off the tails' `pred` and the
heads' `succ`: no step lists a piece's edges or its V+ and V- sets.
Claims 1.5, 1.6 and the gamma step build their pairs from an (l+1)-set on
an odd cycle of D-, the last two also from a b-path along a cycle of D+.
Each of these side constructions returns one (A, B) pair, each pattern adds
its own edges where its parts meet, and `_pair` takes B - A once.  Every
choice below (sorted triangles, scans of ``D.vertices``, sorted adjacency)
follows vertex order, so a piece makes the same choices as its component
relabelled onto 0..n-1, and the functions below take a `Digraph` just as
well.

The input class is checked once, at the entries `dicut_d11` and
`dicut_d11_connected`.  Deleting edges keeps a digraph digon-free and in
D(1,1), so every piece is a connected, edge-carrying, digon-free D(1,1)
digraph.  The step finders `find_triangle_reduction` and
`find_reducing_pair` take such a piece, and `is_triangle_forest` the
connected input of `dicut_d11_connected`, isolated vertices and all; none
checks it again.  The two finders return the `Step` they found, and the
forest test the forest's triangles, by which d11c refuses a lone triangle.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from types import SimpleNamespace
from typing import Iterable, Optional

from .digraph import (
    AlgorithmBugError,
    CutCertificate,
    Digraph,
    Edge,
    Piece,
    PreconditionError,
    Step,
    WorkGraph,
    _triangles,
    class_partition,
    cut_from_banked,
    shortest_bipartite_cycle,
)
from . import oracle


def _require_d11(D: Digraph) -> None:
    if D.has_digon():
        raise PreconditionError("digraph contains a digon")
    if class_partition(D, 1, 1) is None:
        raise PreconditionError("digraph is not in D(1,1)")


def find_triangle_reduction(D: Digraph) -> Optional[Step]:
    """The triangle step on an edge x->y of a directed triangle of the
    piece D with d-(x) = 1 and d+(y) = 1: it keeps x->y and drops the
    triangle's other two edges.

    Absent exactly when every triangle lies inside D+ or D-.
    """
    return _first([a for a, _, _ in _triangles(D.vertices, D.succ, D.pred)],
                  _triangle_at, D)


def _triangle_at(D, a: int) -> Optional[Step]:
    """`find_triangle_reduction` on the triangles with least vertex a, in
    the order `Digraph.triangles` lists them."""
    succ, pred = D.succ, D.pred
    for a, b, c in _triangles((a,), succ, pred):
        for x, y in ((a, b), (b, c), (c, a)):
            if len(pred[x]) == 1 and len(succ[y]) == 1:
                return Step("triangle", ((x, y),), tuple(sorted(
                    {(a, b), (b, c), (c, a)} - {(x, y)})))
    return None


def validate_reducing_pair(D: Digraph, A: Iterable[Edge],
                           B: Iterable[Edge], tag: str) -> None:
    """Raise `AlgorithmBugError` unless (A, B) is a reducing pair of the
    digon-free D; there A is P3-free iff no head of A is a tail of A.

    The P3s through A are read off `pred` and `succ` directly.  Once A is
    P3-free, no edge into a tail of A or out of a head of A lies in A, so
    such an edge is covered iff it lies in B."""
    A, B = frozenset(A), frozenset(B)
    if not A:
        raise AlgorithmBugError(f"{tag}: empty A")
    if not A.isdisjoint(B):
        raise AlgorithmBugError(f"{tag}: A and B intersect")
    succ, pred = D.succ, D.pred
    for u, v in chain(A, B):
        if v not in succ[u]:
            raise AlgorithmBugError(f"{tag}: pair uses edges outside D")
    heads = {v for _, v in A}
    for u, _ in A:
        if u in heads:
            raise AlgorithmBugError(f"{tag}: A contains a directed P3")
    for a, b in A:
        for u in pred[a]:
            if (u, a) not in B:
                raise AlgorithmBugError(
                    f"{tag}: uncovered P3 {(u, a)} -> {(a, b)}")
        for w in succ[b]:
            if (b, w) not in B:
                raise AlgorithmBugError(
                    f"{tag}: uncovered P3 {(a, b)} -> {(b, w)}")
    if 2 * len(B) > 3 * len(A):
        raise AlgorithmBugError(f"{tag}: |B| = {len(B)} > 3/2 |A| = {len(A)}")


def _pair(D: Digraph, A, B, tag: str) -> Step:
    """The reducing pair (A, B - A), validated, as a step."""
    A = frozenset(A)
    B = frozenset(B) - A
    validate_reducing_pair(D, A, B, tag)
    return Step(tag, tuple(sorted(A)), tuple(sorted(B)))


def _reverse_pair(step: Optional[Step],
                  tag: str | None = None) -> Optional[Step]:
    """`step`, found on the reverse digraph, read on D; None stays None."""
    if step is None:
        return None
    flip = lambda S: tuple(sorted((v, u) for u, v in S))
    return Step(tag or step.tag, flip(step.kept), flip(step.dropped))


# -- pattern (1): a D- (D+) component that is not a cycle, or a cycle
#    vertex with more than one external edge (Claim 1.3) ------------------

def _leaf_in_minus(D: Digraph):
    """(Claim 1.3's step, None) if it fires in D-, the vertices of in-degree
    >= 2 (D+ is D- of the reverse), else (None, D-'s cycles in cyclic
    order, by least vertex).  It fires at the least v0 of D- where
    `_leaf_at` does.  One exists iff a component of D- is not a directed
    cycle (its leaves qualify) or a cycle vertex has two external in-edges:
    a vertex of D- has out-degree <= 1 in D(1,1), so where each has an
    in-neighbour in D-, D- is a union of directed cycles."""
    pred = D.pred
    minus = []
    for v0 in D.vertices:
        if len(pred[v0]) >= 2:
            step = _leaf_at(D, v0)
            if step:
                return step, None
            minus.append(v0)
    cycles, listed = [], set()
    for v in minus:
        if v not in listed:
            cycles.append(_directed_cycle_order(D, v))
            listed.update(cycles[-1])
    return None, cycles


def _leaf_at(D, v0: int) -> Optional[Step]:
    """Claim 1.3's step at v0, if v0 has two in-neighbours outside D-, of
    in-degree below 2; else None.  It keeps the edges into v0 of the first
    two and drops v0's out-edges and their in-edges.  The one place the
    leaf pattern is tested; it reads only `D.succ` and `D.pred`."""
    pred = D.pred
    ext = []
    for u in pred[v0]:
        if len(pred[u]) < 2:
            ext.append(u)
            if len(ext) == 2:
                B = {(v0, w) for w in D.succ[v0]}
                B.update((x, u) for u in ext for x in pred[u])
                return _pair(D, {(u, v0) for u in ext}, B, "leaf-in-minus")
    return None


def _first(heap: list[int], fires, D) -> Optional[Step]:
    """`fires(D, v)` at the least vertex v of `heap` where it gives a step,
    after popping the vertices before it, where it gives None; None once
    `heap` is empty."""
    while heap:
        step = fires(D, heap[0])
        if step:
            return step
        heappop(heap)
    return None


# -- pattern (2): even cycle in D+ or D- (Claim 1.4) -----------------------

def _directed_cycle_order(D: Digraph, start: int) -> list[int]:
    """The directed cycle through `start`, from `start` along each vertex's
    one out-edge."""
    succ = D.succ
    order = [start]
    for _ in D.vertices:
        nxt = succ[order[-1]]
        if len(nxt) != 1:
            break
        if nxt[0] == start:
            return order
        order.append(nxt[0])
    raise AlgorithmBugError("component is not a directed cycle")


def _even_cycle_in_plus(D: Digraph, plus_cycles) -> Optional[Step]:
    """Claim 1.4 construction on an even cycle of D+, given in cyclic order
    (both out-edges of every second cycle vertex go to A)."""
    for order in plus_cycles:
        if len(order) % 2 != 0:
            continue
        cs = set(order)
        A: set[Edge] = set()
        B: set[Edge] = set()
        for idx, x in enumerate(order):
            edges = D.out_edges(x)
            if idx % 2 == 1:  # x_2, x_4, ... (0-based odd positions)
                A.update(edges)
                for _, y in edges:
                    if y not in cs:  # the chord endpoint y_i
                        B.update(D.out_edges(y))
            else:
                B.update(edges)
        return _pair(D, A, B, "even-cycle")
    return None


# -- the two sides of the Claim 1.5/1.6/gamma constructions ---------------

def _minus_side(D: Digraph, order: list[int], include: set[int],
                exclude: set[int]):
    """The minus-cycle part (A0, B) on the odd cycle `order` of D-, in
    cyclic order, for its first (l+1)-set L in rotation order that holds
    `include` and misses `exclude`.  The complements of the maximum
    independent sets of C_{2l+1} are exactly the rotations of the pattern
    {s, s+2, ..., s+2(l-1)}.  A0 holds the cycle edges out of the other l
    vertices and the other edges into L; B the cycle edges out of L and
    the in-edges of A0's tails.  A D- vertex has out-degree 1, its
    out-edge the cycle edge."""
    length = len(order)
    for s in range(length):
        mis = {(s + 2 * i) % length for i in range((length - 1) // 2)}
        L = [order[i] for i in range(length) if i not in mis]
        if include.issubset(L) and exclude.isdisjoint(L):
            break
    else:
        raise AlgorithmBugError(
            f"no (l+1)-set with include={sorted(include)} "
            f"exclude={sorted(exclude)}")
    succ = D.succ
    cycle_edges = {(v, succ[v][0]) for v in order}
    B = {(v, succ[v][0]) for v in L}
    A = (cycle_edges - B) | {
        (u, w) for w in L for u in D.pred[w] if (u, w) not in cycle_edges
    }
    B.update(e for t, _ in A for e in D.in_edges(t))
    return A, B


def _plus_path(D: Digraph, order: list[int], u: int, v: int):
    """The b-path part (A', B') along the cycle `order` of D+, in cyclic
    order, from u to v, with interior b_1 .. b_r: A' holds u's cycle edge
    and the out-edges of the even b's, B' the out-edges of the odd b's and
    of the heads of A'.  Claim 1.6 walks an even r, the gamma step an odd
    one.  Like `_minus_side`'s, B' may meet A': `_pair` takes B - A."""
    i = order.index(u)
    walk = order[i:] + order[:i]
    A = {(u, walk[1])}
    B: set[Edge] = set()
    for j, b in enumerate(walk[1:walk.index(v)], start=1):
        (A if j % 2 == 0 else B).update(D.out_edges(b))
    B.update(e for _, h in A for e in D.out_edges(h))
    return A, B


# -- pattern (3): V0 attachment (Claim 1.5), plus the degenerate
#    path-or-cycle case the proof skips -----------------------------------

def _v0_attach(D: Digraph, minus_cycles) -> Optional[Step]:
    """`minus_cycles`: the cycles of D-, each in cyclic order."""
    cycle_at = {v: order for order in minus_cycles for v in order}
    # V0: in neither V+ nor V-
    V0 = (v for v in D.vertices if D.in_deg(v) <= 1 and D.out_deg(v) <= 1)
    for y in V0:
        for z in D.succ[y]:
            if z not in cycle_at:
                continue
            order = cycle_at[z]
            if D.in_deg(y) != 0:
                x = D.pred[y][0]
                A, B = _minus_side(D, order, set(), {z})
                A.add((x, y))
                B.update(D.in_edges(x))
                return _pair(D, A, B, "v0-attach-with-inedge")
            return _pair(D, *_minus_side(D, order, {z}, set()),
                         "v0-attach-source")
    return None


def _path_or_cycle(D: Digraph) -> Step:
    """All degrees <= 1: a bare directed path or cycle (V+ = V- = empty)."""
    for v in D.vertices:
        if D.in_deg(v) == 0 and D.out_deg(v) == 1:
            w = D.succ[v][0]
            return _pair(D, {(v, w)}, set(D.out_edges(w)), "path-or-cycle")
    # directed cycle, each vertex's one out-edge on it; alternate edges,
    # leaving out an odd cycle's last
    order = _directed_cycle_order(
        D, next(v for v in D.vertices if D.out_deg(v) == 1))
    A = {(v, D.succ[v][0]) for v in order[:-1:2]}
    B = {(v, D.succ[v][0]) for v in order}
    return _pair(D, A, B, "path-or-cycle")


# -- contraction multigraph M, patterns (4) and (5) ------------------------

def contraction_graph(D: Digraph, plus_cycles,
                      minus_cycles) -> dict[tuple[int, int], list[Edge]]:
    """The links of the contraction multigraph M by node pair.  M contracts
    each cycle of D+ and of D-, given in cyclic order, to a node and keeps
    the external D+ -> D- edges as links, multiplicity preserved; the links
    from plus-cycle i to minus-cycle j come under the key (i, j), in edge
    order.  M is bipartite once the earlier patterns no longer apply."""
    # V+ and V- are disjoint in D(1,1), so one map holds both cycle indices
    node_of = {v: i for cycles in (plus_cycles, minus_cycles)
               for i, cyc in enumerate(cycles) for v in cyc}
    # once patterns 1-3 fail, every edge is a cycle edge or a + -> - link,
    # and every V+ vertex lies on a plus-cycle; its out-edges in ascending
    # order of tail are the links in edge order
    succ, pred = D.succ, D.pred
    between: dict[tuple[int, int], list[Edge]] = {}
    for u in sorted(v for cyc in plus_cycles for v in cyc):
        for v in succ[u]:
            if len(pred[v]) >= 2:
                between.setdefault((node_of[u], node_of[v]), []).append((u, v))
    return between


def _multiedge_in_M(D: Digraph, plus_cycles, minus_cycles,
                    between) -> Optional[Step]:
    for (pi, mi), es in sorted(between.items()):
        if len(es) < 2:
            continue
        plus_order = plus_cycles[pi]
        minus_order = minus_cycles[mi]
        # each cycle vertex has one external edge (Claim 1.3), so the
        # linked vertices of the plus-cycle map to their one link head;
        # between two consecutive ones pick an even gap
        link_of = dict(es)
        length = len(plus_order)
        linked = [i for i, a in enumerate(plus_order) if a in link_of]
        for i, j in zip(linked, linked[1:] + linked[:1]):
            if (j - i - 1) % length % 2 == 0:
                break
        else:
            raise AlgorithmBugError("no even gap between parallel M-links")
        u, v = plus_order[i], plus_order[j]
        A0, B0 = _minus_side(D, minus_order, {link_of[u]}, {link_of[v]})
        A2, B2 = _plus_path(D, plus_order, u, v)
        f0 = (v, plus_order[(j + 1) % length])  # f'_0, v's cycle out-edge
        return _pair(D, A0 | A2, B0 | B2 | {f0}, "multiedge-in-M")
    return None


def _gamma_cycle(D: Digraph, plus_cycles, minus_cycles, between) -> Step:
    # node i of M is plus-cycle i, node P + j minus-cycle j
    P = len(plus_cycles)
    M_adj = [[] for _ in range(P + len(minus_cycles))]
    for i, j in sorted(between):  # so each node's list ascends
        M_adj[i].append(P + j)
        M_adj[P + j].append(i)
    # M is bipartite (+ to -) and, after _multiedge_in_M, simple: the gamma
    # link of a (plus, minus) pair is its one D-edge
    cyc = shortest_bipartite_cycle(M_adj)
    if cyc is None:
        raise AlgorithmBugError("no reducing pair found where one must exist")
    # rotate so the cycle starts at a plus node, and read minus nodes as j
    start = 0 if cyc[0] < P else 1
    cyc = [nd if nd < P else nd - P for nd in cyc[start:] + cyc[:start]]
    A: set[Edge] = set()
    B: set[Edge] = set()
    for i in range(0, len(cyc), 2):
        # plus node C+_i, its two links to the minus nodes beside it on the
        # cycle, and the next minus node with its two link heads
        pnode, mnode = cyc[i], cyc[i + 1]
        a_v = between[(pnode, cyc[i - 1])][0][0]
        b_v, z = between[(pnode, mnode)][0]
        z_next = between[(cyc[(i + 2) % len(cyc)], mnode)][0][1]
        order = plus_cycles[pnode]
        # choose the direction with an odd number of interior vertices
        gap_ab = (order.index(b_v) - order.index(a_v) - 1) % len(order)
        u, v = (a_v, b_v) if gap_ab % 2 == 1 else (b_v, a_v)
        A2, B2 = _plus_path(D, order, u, v)
        A0, B0 = _minus_side(D, minus_cycles[mnode], {z, z_next}, set())
        A |= A2 | A0
        B |= B2 | B0
    return _pair(D, A, B, "gamma-cycle")


def find_reducing_pair(D: Digraph) -> Step:
    """A validated reducing pair for a piece D with no triangle reduction
    and m >= 7; tried pattern by pattern in the order of the claims of the
    2/5 bound's proof."""
    # a pattern that does not apply returns None; a Step is never falsy
    rp, minus_cycles = _leaf_in_minus(D)
    if rp:
        return rp
    Dr = D.reverse()
    rp, back_plus = _leaf_in_minus(Dr)
    if rp:
        return _reverse_pair(rp, "leaf-in-plus")
    if not minus_cycles and not back_plus:
        return _path_or_cycle(D)
    # no leaf on either side: every component of D+ and D- is a cycle;
    # Dr walks each one backwards from its least vertex
    backwards = lambda cycles: [c[:1] + c[:0:-1] for c in cycles]
    plus_cycles = backwards(back_plus)
    between = contraction_graph(D, plus_cycles, minus_cycles)
    return (_even_cycle_in_plus(D, plus_cycles)
            or _reverse_pair(_even_cycle_in_plus(Dr, backwards(minus_cycles)))
            or _v0_attach(D, minus_cycles)
            or _reverse_pair(_v0_attach(Dr, back_plus))
            or _multiedge_in_M(D, plus_cycles, minus_cycles, between)
            or _gamma_cycle(D, plus_cycles, minus_cycles, between))


def _base_step(H: Digraph) -> Step:
    """The oracle-base step of the piece H: it keeps the oracle's maximum
    directed cut, found on H relabelled onto 0..n-1 in vertex order, and
    drops H's other edges."""
    succ = H.succ
    index = {v: i for i, v in enumerate(H.vertices)}
    edges = [(u, w) for u in H.vertices for w in succ[u]]
    _, x = oracle.max_dicut_mask(
        len(index), [(index[u], index[w]) for u, w in edges])
    kept, dropped = [], []
    for e in edges:
        if x >> index[e[0]] & 1 and not x >> index[e[1]] & 1:
            kept.append(e)
        else:
            dropped.append(e)
    return Step("oracle-base", tuple(kept), tuple(dropped))


def _reduction_loop(W: WorkGraph, work: list[Piece],
                    triangles: tuple[tuple[int, int, int], ...],
                    trace: list | None) -> set[Edge]:
    """Run the Theorem 1 reduction on the edges of the working graph W,
    given `work`, all of W's pieces as `W.pieces` lists them, and
    `triangles`, W's triangles as `Digraph.triangles` lists them; returns
    the accumulated P3-free edge set.

    Every piece of at most 6 edges goes to the oracle and leaves W, so W
    holds only larger pieces, and each step is the one its piece takes
    alone (module docstring).  It is a triangle step, a leaf-in-minus or a
    leaf-in-plus at the least vertex where that pattern fires, the first
    of the three that fires anywhere, or else `find_reducing_pair`'s step
    on the piece of the least vertex with an edge.  `_first` walks each
    candidate heap, popping the vertices that no longer fire; the leaf
    heaps test Claim 1.3 by `_leaf_at`, on W and on W backwards.
    `WorkGraph.delete` names the vertices whose in- or out-degree a step
    left at 1; their neighbours and the triangles through them are pushed
    again.  Then `WorkGraph.small_pieces` finds the pieces of at most 6
    edges the step left, or one walk finds every piece once at most 6 edges
    are left.  `bank` adds every step, base steps too, to K and the trace.
    """
    K: set[Edge] = set()

    def bank(step: Step) -> None:
        K.update(step.kept)
        if trace is not None:
            trace.append(step)

    left = 0  # edges in W
    for H in work:
        if H.m > 6:
            left += H.m
        else:
            bank(_base_step(H))
    if not left:
        return K
    for H in work:
        if H.m <= 6:
            W.drop(H)
    succ, pred = W.succ, W.pred
    n = len(succ)
    # candidates: least vertices of triangles, vertices of in-degree >= 2
    # for leaf-in-minus and of out-degree >= 2 for leaf-in-plus; ascending
    # lists are heaps already
    tri = [a for a, _, _ in triangles]
    through = None
    minus = plus = None  # listed when first needed
    lo = 0  # no vertex below it has an edge
    while left:
        step = _first(tri, _triangle_at, W)
        if step is None:
            if minus is None:
                minus = [v for v in range(n) if len(pred[v]) >= 2]
            step = _first(minus, _leaf_at, W)
        if step is None:
            if plus is None:
                plus = [v for v in range(n) if len(succ[v]) >= 2]
                back = SimpleNamespace(succ=pred, pred=succ)  # W backwards
            step = _reverse_pair(_first(plus, _leaf_at, back), "leaf-in-plus")
        if step is None:
            while not (succ[lo] or pred[lo]):
                lo += 1
            step = find_reducing_pair(W.pieces((lo,))[0])
        bank(step)
        gone = step.kept + step.dropped
        heads, tails = W.delete(gone)
        left -= len(gone)
        if left <= 6:  # every piece left goes to the oracle
            small = W.pieces(range(lo, n))
        else:
            # a vertex whose in-degree falls to 1 may be the second
            # in-neighbour outside D- that a leaf-in-minus needs; mirrored
            # for leaf-in-plus, and a triangle edge x->y needs both
            for heap, ends, out, into in ((minus, heads, succ, pred),
                                          (plus, tails, pred, succ)):
                if heap is not None:
                    for v in ends:
                        for w in out[v]:
                            if len(into[w]) >= 2:
                                heappush(heap, w)
            if triangles:
                if through is None:
                    through = _least_through(triangles)
                for v in chain(heads, tails):
                    for a in through.get(v, ()):
                        heappush(tri, a)
            small = W.small_pieces(gone, 6)
        for H in small:
            bank(_base_step(H))
            W.drop(H)
            left -= H.m
    return K


def _least_through(triangles) -> dict[int, list[int]]:
    """Each vertex of `triangles` mapped to the least vertices of those
    through it."""
    through: dict[int, list[int]] = {}
    for abc in triangles:
        for v in abc:
            through.setdefault(v, []).append(abc[0])
    return through


def dicut_d11(D: Digraph, trace: list | None = None) -> CutCertificate:
    """A directed cut of size at least (2m - t)/5, t the maximum number of
    vertex-disjoint directed triangles (`_books`)."""
    _require_d11(D)
    W = WorkGraph(D)
    K = _reduction_loop(W, W.pieces(D.vertices), D.triangle_list, trace)
    return cut_from_banked(D, K, Fraction(2 * D.m - _books(D), 5))


def _books(D: Digraph) -> int:
    """t of `dicut_d11`'s bound, for a digon-free D(1,1) digraph D.
    Triangles that share a vertex share an edge there, and two on a->b
    leave a no other out-edge and b no other in-edge: each group of
    vertex-sharing triangles is a book on one edge, and any maximal
    packing, as the greedy one below, takes one triangle per book."""
    used: set[int] = set()
    for tri in D.triangle_list:
        if used.isdisjoint(tri):
            used.update(tri)
    return len(used) // 3


# -- Theorem 5: connected case, 7m/20 --------------------------------------

def is_triangle_forest(
    D: Digraph,
) -> Optional[tuple[tuple[int, int, int], ...]]:
    """The triangles of the connected digraph D, as its one listing
    `D.triangle_list` holds them, if it is t triangles joined by t - 1
    tree bridges: iff its triangles are pairwise disjoint, cover
    every vertex that carries an edge, and m = 4t - 1.  Digon-free, the
    only edges among a triangle's vertices are its own, so the other t - 1
    edges are bridges that join the t triangles into one component: a tree.
    """
    tris = D.triangle_list
    covered = {v for tri in tris for v in tri}
    if (len(covered) != 3 * len(tris) or D.m != 4 * len(tris) - 1
            or any(u not in covered or v not in covered for u, v in D.edges)):
        return None
    return tris


def dicut_d11_connected(D: Digraph, trace: list | None = None) -> CutCertificate:
    """A directed cut of size at least 7m/20 for connected D(1,1) digraphs
    that are not a single directed triangle, by the reduction loop of
    `dicut_d11` alone.

    The loop banks at least (2m - t)/5, t the most vertex-disjoint
    triangles (`dicut_d11`).  Joining those t triangles and every
    edge-carrying vertex they miss takes m >= 4t - 1 edges, so
    (2m - t)/5 >= 7m/20 unless m = 4t - 1.  Then D is a triangle forest
    (`is_triangle_forest`): t triangles, every edge-carrying vertex on one,
    joined by t - 1 bridges in a tree.  There 7m/20 = (2m - t)/5 + 1/20,
    and t >= 2, as a lone triangle is refused.  The trace removes every
    edge once, and each step keeps at least its share of what it removes:

    - a triangle step keeps 1 of 3 edges, its share (2*3 - 1)/5;
    - a reducing pair keeps |A| >= 2(|A| + |B|)/5;
    - an oracle base on the piece H keeps opt(H) >= (2m_H - t_H)/5, t_H the
      triangles intact in H (Theorem 1 on H).

    Five times a share is an integer, so each surplus is a multiple of 1/5,
    and |K| >= (2m - t')/5 + s, where t' <= t counts the triangles stepped
    or intact in a base piece and s >= 0 is the total surplus.  So t' < t
    or s > 0 gives 5|K| >= 2m - t + 1, above 7m/20.  Suppose t' = t: each
    triangle's edges go only in its own step or base piece, so no
    reducing pair takes a triangle edge.  A triangle vertex has in- and
    out-degree 1 on its triangle, so no vertex is both a bridge tail and a
    bridge head.  A bridge goes in a base piece or a reducing pair, and
    either one has a surplus:

    - a base piece with a bridge has b >= 1 bridges and at most one
      triangle, whole, as two triangles and a bridge make 7 edges.  X = the
      bridge tails, plus a triangle vertex that is no head where no
      triangle vertex is a tail, cuts every bridge and a triangle edge;
      where all three are tails or all are heads, it cuts the b = 3
      bridges.  Either way it beats the share, 2b/5 or 1 + 2b/5;
    - a leaf pair (or its mirror) takes no triangle edge, so v0 and both
      ext vertices carry bridges only: v0 is a head, so it has no
      out-edge, and they are tails, so they have no in-edge.  B is empty
      and the surplus 6/5;
    - every other pattern takes an edge of a cycle of D- or D+, and the
      only cycles of a forest are its whole triangles.  A bare path or
      cycle of m >= 7 edges does not occur: bridges make no path of two.

    `cut_from_banked` checks the bound at runtime all the same.
    """
    _require_d11(D)
    W = WorkGraph(D)
    work = W.pieces(D.vertices)
    # isolated vertices are allowed: only edge-carrying components count
    if len(work) > 1:
        raise PreconditionError("digraph is not connected")
    tris = is_triangle_forest(D)
    if tris is not None and len(tris) == 1:
        raise PreconditionError("input is a directed triangle")
    K = _reduction_loop(W, work, D.triangle_list, trace)
    return cut_from_banked(D, K, Fraction(7 * D.m, 20))
