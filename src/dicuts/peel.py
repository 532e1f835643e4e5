"""Edge removal from D(k,k) down to D(k-1,k-1) keeping at least
(2k-1)m/(2k+1) edges.

A removal set R is improved by guarded local-search moves.  Every move is
checked for feasibility (the remainder stays in D(k-1,k-1)) and for a strict
lexicographic decrease of the potential (|R|, -arrow score) before it is
applied, so termination is structural, not heuristic.  One rule decides
feasibility: a swap breaks a vertex whose remainder in- and out-degree are
both >= k after it, and `RemovalState.broken` alone applies it, for Crit,
the search's adds, `swap_feasible` and `apply`.  The fixpoint assertions
|Crit(R)| >= |R| and |R| <= floor(2m/(2k+1)) are the empirical guard that
the move catalog is rich enough.  A move is a `Step` whose `kept`
edges leave R and whose `dropped` edges enter it, as the trace records it.

The search keeps its state across moves: `RemovalState` refreshes what a
move touched at the move's own endpoints, and the move table lists only the
entries and adds that can fire, in the order a full scan would try them, so
every call returns that scan's first feasible move.  The state checks the
class once, with `class_partition`, colors arrows from two per-vertex flags
of D's degrees, and keeps R as a set: each search sorts it once.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

from .digraph import (
    AlgorithmBugError,
    Digraph,
    Edge,
    InputError,
    PreconditionError,
    Step,
    class_partition,
)


class RemovalState:
    """Mutable R with incremental degree tracking of the remainder D \\ R.

    A vertex is white if its in-degree in the ORIGINAL D is at most k, and
    black if its out-degree there is; D is in D(k,k) exactly when every
    vertex is one or both.  For the move search the state also keeps the R
    edges at each vertex (`r_at`), the R edges whose Crit is empty
    (`returnable`) and the arrow score (`score`, the colored R edges), and
    fills one cache on demand: the single adds that repair an R edge's
    return (`repairs`).  R must be edges of D (else `InputError`) that
    leave a remainder in D(k-1,k-1) (else `PreconditionError`); from then
    on `broken` decides what a swap breaks, and `apply` refuses a move
    that breaks a vertex before it shifts any edge.
    """

    def __init__(self, D: Digraph, k: int, R: set[Edge]):
        if class_partition(D, k, k) is None:
            raise PreconditionError(f"digraph is not in D({k},{k})")
        self.D = D
        self.k = k
        self.white = [D.in_deg(v) <= k for v in range(D.n)]
        self.black = [D.out_deg(v) <= k for v in range(D.n)]
        self.R: set[Edge] = set(R)
        bad = self.R - D.edge_set
        if bad:
            raise InputError(f"edges not in digraph: {sorted(bad)}")
        self.din = [D.in_deg(v) for v in range(D.n)]
        self.dout = [D.out_deg(v) for v in range(D.n)]
        for u, v in self.R:
            self.dout[u] -= 1
            self.din[v] -= 1
        # R comes from the caller: a remainder outside D(k-1,k-1) is its error
        for v in D.vertices:
            if self.din[v] >= k and self.dout[v] >= k:
                raise PreconditionError(
                    f"remainder leaves D({k-1},{k-1}) at vertex {v}")
        self.score = sum(1 for e in self.R if self.is_colored(e))
        self.r_at: list[set[Edge]] = [set() for _ in range(D.n)]
        for e in self.R:
            self.r_at[e[0]].add(e)
            self.r_at[e[1]].add(e)
        self.returnable = {e for e in self.R if not self.crit(e)}
        self._repairs: dict[Edge, list[tuple[Edge]]] = {}

    def is_colored(self, e: Edge) -> bool:
        """Black-tail or white-head arrow."""
        return self.black[e[0]] or self.white[e[1]]

    def potential(self) -> tuple[int, int]:
        return (len(self.R), -self.score)

    def broken(self, remove: tuple[Edge, ...],
               add: tuple[Edge, ...] = ()) -> dict[int, tuple[int, int]]:
        """The ends of the swapped edges whose remainder in- and out-degree
        would both be >= k after R - remove + add, each mapped to those two
        degrees.  `remove` edges return to the remainder, `add` edges leave
        it; as the state's remainder is in D(k-1,k-1), only ends of
        returned edges can break."""
        deg: dict[int, list[int]] = {}
        for edges, d in ((remove, 1), (add, -1)):
            for u, v in edges:
                deg.setdefault(u, [self.din[u], self.dout[u]])[1] += d
                deg.setdefault(v, [self.din[v], self.dout[v]])[0] += d
        k = self.k
        return {v: (i, o) for v, (i, o) in deg.items() if i >= k and o >= k}

    def crit(self, e: Edge) -> frozenset[int]:
        """Critical endpoints of a removed edge: returning it there would
        break membership."""
        return frozenset(self.broken((e,)))

    def crit_R(self) -> frozenset[int]:
        return frozenset(v for e in self.R for v in self.crit(e))

    def repairs(self, e: Edge) -> list[tuple[Edge]]:
        """The single adds with which returning e, an R edge with a
        non-empty Crit, is feasible, sorted."""
        got = self._repairs.get(e)
        if got is None:
            got = self._repairs[e] = list(_adds(self, (e,), 1))
        return got

    def swap_feasible(self, remove: tuple[Edge, ...],
                      add: tuple[Edge, ...]) -> bool:
        """Would R' = R - remove + add leave a D(k-1,k-1) remainder?"""
        return not self.broken(remove, add)

    def apply(self, move: Step) -> None:
        """Apply `move` and refresh what it touched: degrees, R membership,
        and so Crit and repairs, change only at its endpoints.  A move that
        would break the remainder is refused before any edge shifts."""
        bad = self.broken(move.kept, move.dropped)
        if bad:
            raise AlgorithmBugError(f"remainder leaves D({self.k - 1},"
                                    f"{self.k - 1}) at vertex {min(bad)}")
        before = self.potential()
        for e in move.kept:
            self._shift(e, -1)
        for e in move.dropped:
            self._shift(e, 1)
        for v in {v for e in (*move.kept, *move.dropped) for v in e}:
            for e in self.r_at[v]:
                self._repairs.pop(e, None)
                if self.crit(e):
                    self.returnable.discard(e)
                else:
                    self.returnable.add(e)
        if not self.potential() < before:
            raise AlgorithmBugError(
                f"move {move.tag} did not decrease the potential")

    def _shift(self, e: Edge, into: int) -> None:
        """Move e into R (into = 1) or out of it (into = -1)."""
        u, v = e
        self.dout[u] -= into
        self.din[v] -= into
        self.score += into * self.is_colored(e)
        if into > 0:
            self.R.add(e)
            self.r_at[u].add(e)
            self.r_at[v].add(e)
        else:
            self.R.remove(e)
            self.r_at[u].remove(e)
            self.r_at[v].remove(e)
            self.returnable.discard(e)
            self._repairs.pop(e, None)


def initial_removal(D: Digraph, k: int) -> RemovalState:
    """Greedy feasible start: R takes the first in-edge of each vertex of
    in-degree k, then the first out-edge of each vertex of in-degree above
    k and out-degree k with no out-edge in R yet.  Only the state checks
    the class, and so refuses a D outside D(k,k)."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    R = {(D.pred[v][0], v) for v in D.vertices if D.in_deg(v) == k}
    R |= {(v, D.succ[v][0]) for v in D.vertices
          if D.in_deg(v) > k == D.out_deg(v)
          and not any((v, w) in R for w in D.succ[v])}
    return RemovalState(D, k, R)


def _connected_triples(state: RemovalState, order: list[Edge]):
    """The triples of R edges whose union is connected, ascending, built
    one least edge at a time from `order`, R sorted."""
    r_at = state.r_at
    for e in order:
        near = {f for v in e for f in r_at[v] if f > e}
        pairs = {(f, g) if f < g else (g, f)
                 for f in near for g in near.union(r_at[f[0]], r_at[f[1]])
                 if g > e and g != f}
        for f, g in sorted(pairs):
            yield e, f, g


def _move_table(state: RemovalState):
    """(returned edges, adds, tag) in scan order, for the entries that can
    fire, listed lazily: a later kind is only built once every earlier
    entry has failed."""
    # Crit(e) is empty exactly when returning e alone is feasible, so the
    # least such e always fires
    if state.returnable:
        yield (min(state.returnable),), [()], "return-edge"
    order = sorted(state.R)
    for e in order:
        if state.is_colored(e):
            continue
        # |R| stays: only colored adds lower the potential
        adds = [add for add in state.repairs(e) if state.is_colored(add[0])]
        if adds:
            yield (e,), adds, "growth-swap"
    sharing: dict[Edge, list[Edge]] = {}
    for e in order:
        for (g,) in state.repairs(e):
            sharing.setdefault(g, []).append(e)
    for pair in sorted({p for es in sharing.values()
                        for p in combinations(es, 2)}):
        yield pair, _adds(state, pair, 1), "tree-path-swap"
    for tri in _connected_triples(state, order):
        yield tri, _adds(state, tri, 2), "short-path-swap"


def find_improvement(state: RemovalState) -> Step | None:
    """First applicable guarded move of `_move_table`, cheapest first.

    M0 return-edge: some e with Crit(e) empty goes back.
    M2/M4 growth-swap: one-for-one exchange of an uncolored arrow for a
    colored one (score rises, |R| constant); one tag covers both, as the
    move is the same whether or not the returned edge lies on a cycle of R.
    M1 tree-path-swap: two R-edges out, one in.
    M3 short-path-swap: a connected triple of R-edges out, two in.

    A swap stays feasible when it returns fewer edges or adds more, so an
    entry needs exactly `most` adds: with fewer, a sub-swap of an earlier
    entry would be feasible (M0 without adds, M1 for M3 with one).  Past M0
    every R edge has a non-empty Crit.

    Returning edges only raises degrees, so each vertex the return breaks
    (the set B that `RemovalState.broken` gives for the returned edges
    alone, which holds the Crit of every returned edge) stays broken
    unless the adds bring one of its degrees back to k-1; `most` adds can
    do that only on a side at most `most` too high.  An entry's adds are
    the `most`-sets of non-R edges that meet each vertex of B on such a
    side, in `combinations` order: with one add, exactly the feasible ones.

    The table lists only entries that can fire.  An add that makes a pair's
    return feasible makes each edge's return alone feasible, so the pairs
    are those of R edges sharing one of their `repairs`.  Past the pairs no
    triple is repaired by one add (a pair inside it would be), so each of a
    triple's two adds serves a vertex of B; the connected triples are
    walked in order, one least edge at a time, and never collected.
    """
    for remove, adds, tag in _move_table(state):
        for add in adds:
            if state.swap_feasible(remove, add):
                return Step(tag, remove, add)
    return None


def _adds(state: RemovalState, remove: tuple[Edge, ...], most: int):
    """The `most`-sets (`most` 1 or 2) of non-R edges with which returning
    `remove` can be feasible, ascending and in `combinations` order: each
    vertex of B, the vertices the return breaks by `RemovalState.broken`,
    offers the non-R edges on a side of it that `most` adds bring back to
    k-1, and each set covers B on those sides."""
    D, R, k = state.D, state.R, state.k
    B = state.broken(remove)
    if not B or len(B) > 2 * most:
        return  # no add is needed, or more of B than `most` adds have ends
    fix: dict[int, list[Edge]] = {}
    for v, (din, dout) in B.items():
        outs = ([e for e in D.out_edges(v) if e not in R]
                if dout - most < k else [])
        ins = ([e for e in D.in_edges(v) if e not in R]
               if din - most < k else [])
        if not outs and not ins:
            return
        fix[v] = sorted(outs + ins) if outs and ins else outs or ins

    def at(vs) -> list[Edge]:
        a, *rest = vs
        return [g for g in fix[a] if all(g in fix[b] for b in rest)]

    if most == 1:
        yield from ((g,) for g in at(fix))
        return
    # two adds: the second covers what the first leaves of B
    firsts = sorted({g for gs in fix.values() for g in gs})
    for g in firsts:
        rest = [v for v in fix if g not in fix[v]]
        if len(rest) <= 2:
            hs = at(rest) if rest else firsts
            for h in hs[bisect_right(hs, g):]:
                yield g, h


def peel_to_lower_class(
    D: Digraph, k: int, trace: list | None = None
) -> tuple[Digraph, frozenset[Edge]]:
    """(D \\ R, R) with D \\ R in D(k-1,k-1) and |R| <= floor(2m/(2k+1))."""
    state = initial_removal(D, k)
    guard = D.m * (D.m + 2)  # potential lattice size; loop must end before
    for _ in range(guard + 1):
        move = find_improvement(state)
        if move is None:
            break
        state.apply(move)
        if trace is not None:
            trace.append(move)
    else:
        raise AlgorithmBugError("improvement loop exceeded the potential bound")
    crit = state.crit_R()
    if len(crit) < len(state.R):
        raise AlgorithmBugError(
            f"fixpoint has |Crit(R)| = {len(crit)} < |R| = {len(state.R)}")
    if (2 * k + 1) * len(state.R) > 2 * D.m:
        raise AlgorithmBugError(
            f"fixpoint |R| = {len(state.R)} exceeds 2m/(2k+1)")
    return D.without_edges(state.R), frozenset(state.R)
