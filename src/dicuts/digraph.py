"""Loopless digraphs on dense integer vertex ids, and the certificates built on them.

A `Digraph` is an immutable value: no algorithm mutates one.  Algorithms that
delete edges step by step keep a mutable working graph instead and build a
`Digraph` only of what they hand on.  d11 and d11c run from entry to
certificate on one `WorkGraph`: sorted successor and predecessor lists,
copied once, which deleting an edge edits in place.  They read it one weak
component at a time through a `Piece`, a view over the component's sorted
vertex list that offers the reads of a `Digraph` the pattern functions
make (`vertices`, `succ`, `pred`, degrees, `triangles`, `reverse`, ...)
on the original vertex ids; a piece lists no edges of its own, so its
readers find edges in `succ`, and it stays valid until an edge at one of
its vertices is deleted.  The walk behind `WorkGraph.pieces` finds the
weak components for d11 and for `Digraph.weak_components`.
`Digraph` and `Piece` list triangles through one function.
`Digraph.triangle_list` keeps one listing per digraph; a d11 run reads
it, and its `WorkGraph` marks each listed triangle's least vertex, so a
piece scans only the marked vertices for triangles.  Every
algorithm that works in steps (d11, d11c, d22, peel) records them in
its trace as `Step`s.  All set-like outputs are emitted in ascending order
so that golden tests and the CLI are deterministic.

Each digraph is checked once.  `parse_dg` makes `.dg` text into int pairs
in one pass and checks them for loops, range and duplicates as the
constructor does, without its id conversion.  A digraph whose edges come
from a checked one (`without_edges`, which peel's remainder uses,
`reverse` and `split_dkk`'s parts) is built by `Digraph._derived`, which
checks nothing again.

Each certificate is built once, carrying its bound.  `cut_from_banked`
makes the cut of the tails of an algorithm's banked edge set and checks
that the set lies in it and that it meets the algorithm's bound; either
miss is that algorithm's bug.  `cut_from_partition` checks a vertex set
from outside and carries bound 0.  `CutCertificate.verify` checks all of
it again: the partition, the cut and the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from operator import index
from typing import Iterable, NamedTuple, Optional

Edge = tuple[int, int]

MAX_VERTICES = 1 << 20  # the adjacency lists are built per vertex


class Step(NamedTuple):
    """One certified step of an algorithm, as its trace records it.

    `kept` holds the edges the step commits to the output: cut edges for
    d11, d11c and d22, the edges returned to the remainder for peel.
    `dropped` holds the other edges the step takes out of the work.  Both
    are sorted and disjoint.
    """

    tag: str
    kept: tuple[Edge, ...]
    dropped: tuple[Edge, ...]


class InputError(ValueError):
    """Malformed input data (bad file, edge outside the graph, ...)."""


class PreconditionError(ValueError):
    """An operation was called on a digraph outside its declared domain."""


class AlgorithmBugError(AssertionError):
    """An internal construction failed validation; never silently returned."""


class ResourceLimitError(RuntimeError):
    """An input or an exact search exceeded its explicit guard."""


def check_vertex_count(n: int) -> int:
    """n as an int, refused unless it is an integer in 0..MAX_VERTICES; a
    generator calls it before it builds any list of that size."""
    try:
        n = index(n)
    except TypeError as exc:
        raise InputError(f"vertex count {n!r} is not an integer") from exc
    if n < 0:
        raise InputError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"more than {MAX_VERTICES} vertices")
    return n


def _checked_edges(n: int, pairs: list[Edge]) -> tuple[Edge, ...]:
    """`pairs`, a list of int pairs sorted in place, as a tuple, refused on
    a loop, an id outside 0..n-1 or a duplicate: one pass, where the least
    bad edge in sorted order names the error."""
    pairs.sort()
    edges = tuple(pairs)
    prev = None  # sorted, so a duplicate follows its twin
    for edge in edges:
        u, v = edge
        if u == v:
            raise InputError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        if edge == prev:
            raise InputError(f"duplicate edge ({u}, {v})")
        prev = edge
    return edges


def _triangles(vertices: Iterable[int], succ, pred):
    """The directed 3-cycles a->b->c->a with a in `vertices` and least, in
    lexicographic order: `vertices` ascends and each `succ[v]` is sorted.

    The closing edge c->a is looked up in the shorter of `succ[c]` and
    `pred[a]`, so on a D(1,1) digraph the lookups cost O(m) in all."""
    for a in vertices:
        pa = pred[a]
        if not pa:
            continue
        for b in succ[a]:
            if b > a:
                for c in succ[b]:
                    if c > a and (c in pa if len(pa) < len(succ[c])
                                  else a in succ[c]):
                        yield a, b, c


class _AdjacencyReads:
    """Degree and edge reads in terms of the sorted `succ` and `pred`."""

    def out_deg(self, v: int) -> int:
        return len(self.succ[v])

    def in_deg(self, v: int) -> int:
        return len(self.pred[v])

    def out_edges(self, v: int) -> list[Edge]:
        return [(v, w) for w in self.succ[v]]

    def in_edges(self, v: int) -> list[Edge]:
        return [(u, v) for u in self.pred[v]]


@dataclass(frozen=True)
class Digraph(_AdjacencyReads):
    """A digraph without loops or parallel edges on vertices 0..n-1.

    Antiparallel pairs (digons) are representable; operations that need
    digon-free input check for themselves.
    """

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[Edge]):
        n = check_vertex_count(n)
        try:
            pairs = [(index(u), index(v)) for u, v in edges]
        except (TypeError, ValueError) as exc:
            raise InputError("edges must be pairs of integer vertex ids") from exc
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _checked_edges(n, pairs))

    @classmethod
    def _derived(cls, n: int, edges: tuple[Edge, ...]) -> "Digraph":
        """The digraph on `edges`, a sorted tuple of int pairs taken from
        a checked digraph on n vertices (in range, no loop, no duplicate);
        nothing is checked again."""
        D = object.__new__(cls)
        object.__setattr__(D, "n", n)
        object.__setattr__(D, "edges", edges)
        return D

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        # edges are sorted, so every list comes out sorted
        for u, v in self.edges:
            out[u].append(v)
        return tuple(map(tuple, out))

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        # edges are sorted by tail, so every list comes out sorted
        for u, v in self.edges:
            inc[v].append(u)
        return tuple(map(tuple, inc))

    def without_edges(self, remove: Iterable[Edge]) -> "Digraph":
        gone = set(remove)
        bad = gone - self.edge_set
        if bad:
            raise InputError(f"edges not in digraph: {sorted(bad)}")
        return Digraph._derived(
            self.n, tuple([e for e in self.edges if e not in gone]))

    def reverse(self) -> "Digraph":
        return Digraph._derived(
            self.n, tuple(sorted([(v, u) for u, v in self.edges])))

    def has_digon(self) -> bool:
        return any((v, u) in self.edge_set for u, v in self.edges)

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", dict[int, int]]:
        """Induced subgraph on `vertices`, relabeled densely.

        Returns the subgraph and the old-id -> new-id map.
        """
        vs = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(vs)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u in remap and v in remap
        ]
        return Digraph(len(vs), edges), remap

    # -- structural queries ------------------------------------------------

    def weak_components(self) -> list[list[int]]:
        """Weakly connected components, each sorted, ordered by least vertex."""
        succ, pred = self.succ, self.pred
        comps = [P.vertices for P in
                 _walk(succ, pred, self.vertices, [0] * self.n, 1)]
        comps += [[v] for v in self.vertices if not (succ[v] or pred[v])]
        return sorted(comps)

    def is_weakly_connected(self) -> bool:
        return len(self.weak_components()) <= 1

    def triangles(self) -> list[tuple[int, int, int]]:
        """All directed 3-cycles, as (a, b, c) with a minimal and a->b->c->a."""
        return list(_triangles(self.vertices, self.succ, self.pred))

    @cached_property
    def triangle_list(self) -> tuple[tuple[int, int, int], ...]:
        """`triangles()`, listed by one call and kept: a d11 or d11c run
        reads its t, its forest test and its start marks off this one
        listing."""
        return tuple(self.triangles())

    def is_acyclic(self) -> bool:
        indeg = [self.in_deg(v) for v in range(self.n)]
        queue = [v for v in range(self.n) if indeg[v] == 0]
        done = 0
        while queue:
            v = queue.pop()
            done += 1
            for w in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return done == self.n


class WorkGraph:
    """A mutable copy of a digraph's adjacency under edge deletion.

    `succ[v]` and `pred[v]` are sorted lists over the digraph's vertex
    ids, copied once; deleting an edge removes it from both lists in place.
    `mark` and `epoch` let each `pieces` call walk without a set of its own.
    `starts[v]` is 0 only where `mark_starts` found that v starts no
    triangle; every piece's triangle scan skips those vertices.
    """

    def __init__(self, D: Digraph):
        self.succ = list(map(list, D.succ))
        self.pred = list(map(list, D.pred))
        self.mark = [0] * D.n
        self.epoch = 0
        self.starts = bytearray(b"\1") * D.n

    def mark_starts(self, triangles: Iterable[tuple[int, int, int]]) -> None:
        """Clear every start mark but those of the least vertices of
        `triangles`, the digraph's own listing.  Deleting edges only kills
        triangles, so a vertex without a mark never starts a live one, and
        the pieces, walked before or after, scan the same triangles in the
        same order."""
        starts = self.starts
        starts[:] = bytes(len(starts))
        for a, _, _ in triangles:
            starts[a] = 1

    def delete(self, edges: Iterable[Edge]) -> None:
        succ, pred = self.succ, self.pred
        for u, v in edges:
            if v not in succ[u]:
                raise AlgorithmBugError(f"edge ({u}, {v}) is not in the working graph")
            succ[u].remove(v)
            pred[v].remove(u)

    def pieces(self, vertices: Iterable[int]) -> list["Piece"]:
        """The weak components that carry an edge among `vertices`, ordered
        by least vertex.

        `vertices` comes in ascending order and is a union of weak
        components (all vertices, or the vertices of a piece since cut).
        """
        self.epoch += 1
        return _walk(self.succ, self.pred, vertices, self.mark, self.epoch,
                     self.starts)


def _walk(succ, pred, vertices, mark: list[int], epoch: int,
          starts: Optional[bytearray] = None) -> list["Piece"]:
    """The pieces of `vertices` as `WorkGraph.pieces` gives them, over this
    `succ` and `pred` and with these `starts`: the walk stamps each vertex
    it reaches with `epoch` in `mark`, where no vertex may read `epoch` on
    entry."""
    out = []
    for s in vertices:
        if mark[s] == epoch or not (succ[s] or pred[s]):
            continue
        mark[s] = epoch
        comp, m = [s], 0
        for v in comp:  # comp grows as the walk reaches new vertices
            m += len(succ[v])
            for w in succ[v]:
                if mark[w] != epoch:
                    mark[w] = epoch
                    comp.append(w)
            for w in pred[v]:
                if mark[w] != epoch:
                    mark[w] = epoch
                    comp.append(w)
        comp.sort()
        out.append(Piece(comp, succ, pred, m, starts))
    return out


class Piece(_AdjacencyReads):
    """One weak component of a `WorkGraph`, read like a `Digraph` on its
    original vertex ids.  It and its `m` are valid until an edge at one of
    its vertices is deleted; deleting edges of other pieces leaves it
    intact.

    `vertices` is sorted, and `triangles` come in the order a `Digraph`
    gives them, so a pattern that scans `vertices` makes the same choices
    on a piece as on the component relabelled onto 0..n-1.  The scan
    starts only at vertices whose `starts` entry is set, or at every
    vertex without `starts`.
    """

    def __init__(self, vertices: list[int], succ: list, pred: list, m: int,
                 starts: Optional[bytearray] = None):
        self.vertices = vertices
        self.succ = succ
        self.pred = pred
        self.m = m
        self.starts = starts

    def triangles(self):
        """All directed 3-cycles as in `Digraph.triangles`, lazily."""
        vertices, starts = self.vertices, self.starts
        if starts is not None:
            vertices = compress(vertices, map(starts.__getitem__, vertices))
        return _triangles(vertices, self.succ, self.pred)

    def reverse(self) -> "Piece":
        # a triangle reversed has the same least vertex
        return Piece(self.vertices, self.pred, self.succ, self.m, self.starts)


@dataclass(frozen=True)
class ClassPartition:
    """The D(k, ell) witness of `class_partition`: X has d- <= k, Y d+ <= ell."""

    X: tuple[int, ...]
    Y: tuple[int, ...]


@dataclass(frozen=True)
class CutCertificate:
    """A vertex bipartition and the directed cut it induces, with the bound
    its algorithm guarantees (0 for a bare cut)."""

    X: tuple[int, ...]
    Y: tuple[int, ...]
    cut_edges: tuple[Edge, ...]
    size: int
    bound: Fraction = field(default=Fraction(0), compare=False)

    def verify(self, D: Digraph) -> None:
        if sorted(self.X + self.Y) != list(range(D.n)):
            raise AlgorithmBugError("X, Y do not partition V")
        xs = set(self.X)
        expect = tuple(e for e in D.edges if e[0] in xs and e[1] not in xs)
        if expect != self.cut_edges or self.size != len(expect):
            raise AlgorithmBugError("stored cut does not match its partition")
        _check_bound(self.size, self.bound)


def class_partition(D: Digraph, k: int, ell: int) -> Optional[ClassPartition]:
    """The (X, Y) witness of D in D(k, ell), or None if D is not a member.

    Vertices satisfying both degree bounds go to X.
    """
    if k < 0 or ell < 0:
        raise InputError("k and ell must be non-negative")
    X, Y = [], []
    for v, ins, outs in zip(range(D.n), D.pred, D.succ):
        if len(ins) <= k:
            X.append(v)
        elif len(outs) <= ell:
            Y.append(v)
        else:
            return None
    return ClassPartition(tuple(X), tuple(Y))


def is_p3_free(D: Digraph, S: Iterable[Edge]) -> bool:
    """True iff no two edges of S form a directed path on three distinct vertices."""
    S = set(S)
    bad = S - D.edge_set
    if bad:
        raise InputError(f"edges not in digraph: {sorted(bad)}")
    heads = {}
    for u, v in S:
        heads.setdefault(v, []).append(u)
    for u, v in S:
        # u is the middle vertex of a P3 if some S-edge ends at u
        for w in heads.get(u, ()):
            if w != v:
                return False
    return True


def cut_from_partition(D: Digraph, X: Iterable[int]) -> CutCertificate:
    try:
        xs = set(map(index, X))
    except TypeError as exc:
        raise InputError("X must hold integer vertex ids") from exc
    if any(not 0 <= v < D.n for v in xs):
        raise InputError("vertex outside digraph")
    return _cut_of(D, xs, Fraction(0))


def _cut_of(D: Digraph, xs: set[int], bound: Fraction,
            banked: set[Edge] = frozenset()) -> CutCertificate:
    """The cut of xs carrying its algorithm's `bound`, checked to meet it
    and to hold every edge of `banked`; every vertex of xs is one of D's
    or the tail of a banked edge."""
    cut = tuple(e for e in D.edges if e[0] in xs and e[1] not in xs)
    lost = banked.difference(cut)
    if lost:
        raise AlgorithmBugError(f"banked edges outside the cut: {sorted(lost)}")
    _check_bound(len(cut), bound)
    Y = tuple(v for v in range(D.n) if v not in xs)
    return CutCertificate(tuple(sorted(xs)), Y, cut, len(cut), bound)


def _check_bound(size: int, bound: Fraction) -> None:
    if size * bound.denominator < bound.numerator:
        raise AlgorithmBugError(f"cut of {size} misses its bound {bound}")


def extend_p3free_to_cut(D: Digraph, S: Iterable[Edge]) -> CutCertificate:
    """Grow a P3-free, digon-free edge set into a directed cut containing it.

    Tails of S go to X, heads to Y; vertices not touched by S go to Y.
    """
    S = set(S)
    if not is_p3_free(D, S):
        raise PreconditionError("edge set is not P3-free")
    if any((v, u) in S for u, v in S):
        raise PreconditionError("edge set contains a digon")
    return cut_from_banked(D, S, Fraction(0))


def cut_from_banked(D: Digraph, S: Iterable[Edge],
                    bound: Fraction) -> CutCertificate:
    """The cut of the tails of S, carrying `bound`, for a set an algorithm
    banked itself toward that bound.

    S lies in that cut iff S is a P3-free, digon-free set of D's edges, so
    anything else is a bug of that algorithm, not of its input, as is a
    cut below the bound.  A tail outside D leaves its edge outside the
    cut, so the tails need no range check of their own."""
    S = set(S)
    return _cut_of(D, {u for u, _ in S}, bound, S)


def shortest_bipartite_cycle(adj: list[list[int]],
                             start: int = 0) -> Optional[list[int]]:
    """A shortest cycle of a simple bipartite graph on the nodes
    0..len(adj)-1, `adj[v]` the ascending neighbour list of v, as a node
    list; None for a forest.  No node below `start` may have a neighbour.
    d22's F and d11's gamma-cycle contraction graph both meet these terms.

    The cycle is the one `_bfs_cycle` returns: BFS from every node from
    `start` on, scanning neighbours in list order, where the first cycle
    of the least length wins, and a first 4-cycle at once, as a bipartite
    graph has none shorter.  Most calls read that 4-cycle in closed form.
    Let s be the first node with a neighbour and r be s, or s's one
    neighbour when s is a leaf; let k0 < k1 be the first two neighbours of
    r that are not leaves (so neither is s), and w the least node other
    than r on both their lists, found by one walk over the two.  The BFS
    from s queues r's neighbours, then scans them in order.  A leaf queues
    nothing and closes nothing.  k0 queues its neighbours but r and closes
    nothing, as r is the one queued node on their side.  When k1 is
    scanned, the queued nodes on that side are r and k0's children, so
    the first of its neighbours but r that is queued is w, and the BFS
    returns [k1, r, k0, w].  If r has fewer than two such neighbours, or
    k0 and k1 share no node but r, the BFS runs from s; it walks each
    cycle-free component once, from its least node.
    """
    n = len(adj)
    s = start
    while s < n and not adj[s]:
        s += 1
    if s == n:
        return None
    r = adj[s][0] if len(adj[s]) == 1 else s
    k0 = None
    for k1 in adj[r]:
        if len(adj[k1]) < 2:  # a leaf, s itself when s is one
            continue
        if k0 is None:
            k0 = k1
            continue
        a, b = adj[k0], adj[k1]
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] < b[j]:
                i += 1
            elif a[i] > b[j]:
                j += 1
            elif a[i] == r:
                i += 1
                j += 1
            else:
                return [k1, r, k0, a[i]]
        break
    return _bfs_cycle(adj, s)


def _bfs_cycle(adj: list[list[int]], start: int) -> Optional[list[int]]:
    """`shortest_bipartite_cycle` by BFS from every node from `start` on.
    A BFS that meets no non-tree edge has walked a tree, where no start
    finds a cycle, so that tree's nodes are skipped as later starts: each
    call walks a cycle-free component once."""
    best = None
    walked = set()  # nodes of the trees walked so far
    for s in range(start, len(adj)):
        if not adj[s] or s in walked:
            continue
        parent, queue = {s: None}, [s]
        tree = True
        for v in queue:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    tree = False
                    # a non-tree edge: both ancestries up to s, cut back to
                    # where they meet, which in BFS is above both ends
                    up_v, up_w = [v], [w]
                    for up in (up_v, up_w):
                        while parent[up[-1]] is not None:
                            up.append(parent[up[-1]])
                    while up_v[-2] == up_w[-2]:
                        up_v.pop()
                        up_w.pop()
                    cand = up_v + up_w[-2::-1]
                    if best is None or len(cand) < len(best):
                        best = cand
                        if len(best) == 4:
                            return best
        if tree:
            walked.update(queue)
    return best


# -- .dg text format -------------------------------------------------------

def parse_dg(text: str) -> Digraph:
    """Parse the `.dg` format: comments (#), an `n m` header, then m `u v` lines."""
    lines = [ln for ln in filter(None, map(str.strip, text.splitlines()))
             if ln[0] != "#"]
    if not lines:
        raise InputError("empty .dg input")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError("non-numeric header") from exc
    if len(lines) - 1 != m:
        raise InputError(f"expected {m} edge lines, found {len(lines) - 1}")
    try:
        pairs = [(int(u), int(v))
                 for u, v in map(str.split, islice(lines, 1, None))]
    except ValueError:
        # some line is bad: the line-by-line parse names the first one
        pairs = [_edge_line(ln) for ln in islice(lines, 1, None)]
    del lines  # freed before the pairs are sorted
    n = check_vertex_count(n)
    return Digraph._derived(n, _checked_edges(n, pairs))


def _edge_line(ln: str) -> Edge:
    parts = ln.split()
    if len(parts) != 2:
        raise InputError(f"bad edge line: {ln!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"bad edge line: {ln!r}") from exc


def format_dg(D: Digraph, comment: str | None = None) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{D.n} {D.m}")
    out.extend(f"{u} {v}" for u, v in D.edges)
    return "\n".join(out) + "\n"


def load_dg(path) -> Digraph:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"non-ASCII byte at offset {exc.start}") from exc
    return parse_dg(text)


def save_dg(D: Digraph, path, comment: str | None = None) -> None:
    # a comment naming a non-ASCII path is escaped; ASCII text is unchanged
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.write(format_dg(D, comment))
