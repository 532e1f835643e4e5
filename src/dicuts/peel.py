"""Edge removal from D(k,k) down to D(k-1,k-1) keeping at least
(2k-1)m/(2k+1) edges.

A removal set R is improved by guarded local-search moves.  Every move is
checked for feasibility (the remainder stays in D(k-1,k-1)) and for a strict
lexicographic decrease of the potential (|R|, -arrow score) before it is
applied, so termination is structural, not heuristic.  The fixpoint
assertions |Crit(R)| >= |R| and |R| <= floor(2m/(2k+1)) are the empirical
guard that the move catalog is rich enough.  A move is a `Step` whose `kept`
edges leave R and whose `dropped` edges enter it, as the trace records it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .digraph import (
    AlgorithmBugError,
    Digraph,
    Edge,
    PreconditionError,
    Step,
)


@dataclass(frozen=True)
class VertexColoring:
    """White = small in-degree, black = small out-degree, in the ORIGINAL D."""

    k: int
    white: frozenset[int]
    black: frozenset[int]


def vertex_coloring(D: Digraph, k: int) -> VertexColoring:
    white = frozenset(v for v in range(D.n) if D.in_deg(v) <= k)
    black = frozenset(v for v in range(D.n) if D.out_deg(v) <= k)
    if len(white | black) < D.n:  # a vertex with d- > k and d+ > k
        raise PreconditionError(f"digraph is not in D({k},{k})")
    return VertexColoring(k, white, black)


class RemovalState:
    """Mutable R with incremental degree tracking of the remainder D \\ R."""

    def __init__(self, D: Digraph, k: int, R: set[Edge]):
        self.D = D
        self.k = k
        self.coloring = vertex_coloring(D, k)
        self.R: set[Edge] = set(R)
        self.din = [D.in_deg(v) for v in range(D.n)]
        self.dout = [D.out_deg(v) for v in range(D.n)]
        for u, v in self.R:
            self.dout[u] -= 1
            self.din[v] -= 1
        self.check_feasible()

    def is_colored(self, e: Edge) -> bool:
        """Black-tail or white-head arrow."""
        return e[0] in self.coloring.black or e[1] in self.coloring.white

    def arrow_score(self) -> int:
        return sum(1 for e in self.R if self.is_colored(e))

    def potential(self) -> tuple[int, int]:
        return (len(self.R), -self.arrow_score())

    def check_feasible(self) -> None:
        k = self.k
        for v in range(self.D.n):
            if self.din[v] > k - 1 and self.dout[v] > k - 1:
                raise AlgorithmBugError(
                    f"remainder leaves D({k-1},{k-1}) at vertex {v}")

    def crit(self, e: Edge) -> frozenset[int]:
        """Critical endpoints of a removed edge: returning it there would
        break membership."""
        x, y = e
        out = []
        if self.dout[x] == self.k - 1 and self.din[x] >= self.k:
            out.append(x)
        if self.din[y] == self.k - 1 and self.dout[y] >= self.k:
            out.append(y)
        return frozenset(out)

    def crit_R(self) -> frozenset[int]:
        return frozenset(v for e in self.R for v in self.crit(e))

    def swap_feasible(self, remove: tuple[Edge, ...],
                      add: tuple[Edge, ...]) -> bool:
        """Would R' = R - remove + add leave a D(k-1,k-1) remainder?

        `remove` edges return to the remainder, `add` edges leave it; only
        endpoints of returned edges can break membership.
        """
        delta_out: dict[int, int] = {}
        delta_in: dict[int, int] = {}
        for u, v in remove:
            delta_out[u] = delta_out.get(u, 0) + 1
            delta_in[v] = delta_in.get(v, 0) + 1
        for u, v in add:
            delta_out[u] = delta_out.get(u, 0) - 1
            delta_in[v] = delta_in.get(v, 0) - 1
        for v in set(delta_out) | set(delta_in):
            din = self.din[v] + delta_in.get(v, 0)
            dout = self.dout[v] + delta_out.get(v, 0)
            if din > self.k - 1 and dout > self.k - 1:
                return False
        return True

    def apply(self, move: Step) -> None:
        before = self.potential()
        for e in move.kept:
            self.R.discard(e)
            self.dout[e[0]] += 1
            self.din[e[1]] += 1
        for e in move.dropped:
            self.R.add(e)
            self.dout[e[0]] -= 1
            self.din[e[1]] -= 1
        self.check_feasible()
        if not self.potential() < before:
            raise AlgorithmBugError(
                f"move {move.tag} did not decrease the potential")


def initial_removal(D: Digraph, k: int) -> RemovalState:
    """Greedy feasible start: trim in-degrees of white vertices, then
    out-degrees of the other black vertices, to k-1.  Only the state builds
    the `VertexColoring`, and so refuses a D outside D(k,k)."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    white = [v for v in range(D.n) if D.in_deg(v) <= k]
    black_only = [v for v in range(D.n) if D.in_deg(v) > k >= D.out_deg(v)]
    R: set[Edge] = set()
    din = [D.in_deg(v) for v in range(D.n)]
    dout = [D.out_deg(v) for v in range(D.n)]

    def drop(e: Edge) -> None:
        R.add(e)
        dout[e[0]] -= 1
        din[e[1]] -= 1

    for v in white:
        for e in D.in_edges(v):
            if din[v] <= k - 1:
                break
            if e not in R:
                drop(e)
    for v in black_only:
        for e in D.out_edges(v):
            if dout[v] <= k - 1:
                break
            if e not in R:
                drop(e)
    return RemovalState(D, k, R)


def _r_cycle_edges(state: RemovalState) -> set[Edge]:
    """Edges of R lying on an (underlying) cycle of R: the edges left after
    repeatedly stripping degree-1 vertices."""
    deg: dict[int, int] = {}
    for u, v in state.R:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    alive = set(state.R)
    changed = True
    while changed:
        changed = False
        for e in list(alive):
            if deg[e[0]] == 1 or deg[e[1]] == 1:
                alive.discard(e)
                deg[e[0]] -= 1
                deg[e[1]] -= 1
                changed = True
    return alive


def _move_table(state: RemovalState):
    """(returned edges, most adds, tag) in scan order, listed lazily: a
    later kind is only built once every earlier entry has failed."""
    R_sorted = sorted(state.R)
    for e in R_sorted:
        yield (e,), 0, "return-edge"
    on_cycle = _r_cycle_edges(state)
    for e in R_sorted:
        if not state.is_colored(e):
            yield (e,), 1, ("cycle-recolor-swap" if e in on_cycle
                            else "growth-swap")
    for pair in combinations(R_sorted, 2):
        yield pair, 1, "tree-path-swap"
    touch: dict[int, set[Edge]] = {}
    for e in R_sorted:
        for v in e:
            touch.setdefault(v, set()).add(e)

    def touching(*es: Edge) -> set[Edge]:
        return {f for e in es for v in e for f in touch[v]} - set(es)

    triples = {tuple(sorted((e, f, g)))
               for e in R_sorted for f in touching(e) for g in touching(e, f)}
    for tri in sorted(triples):
        yield tri, 2, "short-path-swap"


def find_improvement(state: RemovalState) -> Step | None:
    """First applicable guarded move of `_move_table`, cheapest first.

    M0 return-edge: some e with Crit(e) empty goes back.
    M2 cycle-recolor-swap / M4 growth-swap: one-for-one exchange of an
    uncolored arrow for a colored one (score rises, |R| constant); tagged
    M2 when the outgoing edge lies on a cycle of R, M4 otherwise.
    M1 tree-path-swap: two R-edges out, one in.
    M3 short-path-swap: a connected triple of R-edges out, two in.

    A swap stays feasible when it returns fewer edges or adds more, so an
    entry needs exactly `most` adds: with fewer, a sub-swap of an earlier
    entry would be feasible (M0 without adds, M1 for M3 with one).  Each
    add touches a returned edge: a farther one only lowers degrees where
    none was raised, so dropping it would leave a feasible swap with too
    few adds.  The add-free swap of M0 is feasible iff Crit(e) is empty.

    Returning edges only raises degrees, so a vertex of C, the union of
    Crit(e) over the returned edges, stays broken unless some add has it
    as an endpoint.  An entry with |C| > 2 * most is skipped, and only the
    add combinations whose ends cover C are generated, in the order of
    `combinations` over the sorted non-R edges at the returned edges.
    """
    D, R = state.D, state.R
    crit = {e: state.crit(e) for e in R}
    free: dict[frozenset[int], list[Edge]] = {}

    def at(vs: frozenset[int]) -> list[Edge]:
        """The non-R edges with every vertex of `vs`, one or two, as an
        endpoint, sorted."""
        if vs not in free:
            a, b = min(vs), max(vs)
            edges = (*D.in_edges(a), *D.out_edges(a)) if a == b else (
                (a, b), (b, a))
            free[vs] = sorted(g for g in edges
                              if g in D.edge_set and g not in R)
        return free[vs]

    for remove, most, tag in _move_table(state):
        C = frozenset().union(*(crit[e] for e in remove))
        if len(C) > 2 * most:
            continue
        ends = {v for e in remove for v in e}
        for add in _covering_adds(C, most, ends, at):
            if most == len(remove) and not all(map(state.is_colored, add)):
                continue  # |R| stays: only colored adds lower the potential
            if state.swap_feasible(remove, add):
                return Step(tag, remove, add)
    return None


def _covering_adds(C: frozenset[int], most: int, ends: set[int], at):
    """The `most`-sets of non-R edges at `ends` whose endpoints cover C,
    ascending and in `combinations` order.  C lies inside `ends`, and
    `at(vs)` lists the non-R edges with every vertex of vs as an endpoint."""
    if most == 0:
        if not C:
            yield ()
        return

    def touching(vs) -> list[Edge]:
        return sorted({g for v in vs for g in at(frozenset((v,)))})

    if most == 1:
        yield from ((g,) for g in (at(C) if C else touching(ends)))
        return
    # two adds: the first must touch C when the second cannot cover it
    firsts = touching(ends) if len(C) <= 2 else touching(C)
    for g in firsts:
        rest = C - set(g)
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
