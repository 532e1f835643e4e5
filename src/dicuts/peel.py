"""Edge removal from D(k,k) down to D(k-1,k-1) keeping at least
(2k-1)m/(2k+1) edges.

A removal set R is improved by guarded local-search moves.  Every move is
checked for feasibility (the remainder stays in D(k-1,k-1)) and for a strict
lexicographic decrease of the potential (|R|, -arrow score) before it is
applied, so termination is structural, not heuristic.  The fixpoint
assertions |Crit(R)| >= |R| and |R| <= floor(2m/(2k+1)) are the empirical
guard that the move catalog is rich enough.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    AlgorithmBugError,
    Digraph,
    Edge,
    PreconditionError,
    class_partition,
)


@dataclass(frozen=True)
class VertexColoring:
    """White = small in-degree, black = small out-degree, in the ORIGINAL D."""

    k: int
    white: frozenset[int]
    black: frozenset[int]


def vertex_coloring(D: Digraph, k: int) -> VertexColoring:
    if class_partition(D, k, k) is None:
        raise PreconditionError(f"digraph is not in D({k},{k})")
    white = frozenset(v for v in range(D.n) if D.in_deg(v) <= k)
    black = frozenset(v for v in range(D.n) if D.out_deg(v) <= k)
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

    def apply(self, rw: "Rewrite") -> None:
        before = self.potential()
        for e in rw.remove:
            self.R.discard(e)
            self.dout[e[0]] += 1
            self.din[e[1]] += 1
        for e in rw.add:
            self.R.add(e)
            self.dout[e[0]] -= 1
            self.din[e[1]] -= 1
        self.check_feasible()
        if not self.potential() < before:
            raise AlgorithmBugError(
                f"move {rw.tag} did not decrease the potential")


@dataclass(frozen=True)
class Rewrite:
    remove: tuple[Edge, ...]  # leave R, return to the remainder
    add: tuple[Edge, ...]     # enter R
    tag: str


def initial_removal(D: Digraph, k: int) -> RemovalState:
    """Greedy feasible start: trim in-degrees of white vertices, then
    out-degrees of black vertices, to k-1."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    coloring = vertex_coloring(D, k)
    R: set[Edge] = set()
    din = [D.in_deg(v) for v in range(D.n)]
    dout = [D.out_deg(v) for v in range(D.n)]

    def drop(e: Edge) -> None:
        R.add(e)
        dout[e[0]] -= 1
        din[e[1]] -= 1

    for v in sorted(coloring.white):
        for e in D.in_edges(v):
            if din[v] <= k - 1:
                break
            if e not in R:
                drop(e)
    for v in sorted(coloring.black - coloring.white):
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


def find_improvement(state: RemovalState) -> Rewrite | None:
    """First applicable guarded move, scanned cheapest-first.

    M0 return-edge: some e with Crit(e) empty goes back.
    M2 cycle-recolor-swap / M4 growth-swap: one-for-one exchange of an
    uncolored arrow for a colored one (score rises, |R| constant); tagged
    M2 when the outgoing edge lies on a cycle of R, M4 otherwise.
    M1 tree-path-swap: two R-edges out, at most one in.
    M3 short-path-swap: a connected triple of R-edges out, at most two in.
    """
    R_sorted = sorted(state.R)
    # M0
    for e in R_sorted:
        if not state.crit(e):
            return Rewrite((e,), (), "return-edge")

    candidates = sorted(state.D.edge_set - state.R)

    # M2 / M4: strict score improvement at constant size
    colored_adds = [g for g in candidates if state.is_colored(g)]
    uncolored_rs = [e for e in R_sorted if not state.is_colored(e)]
    if colored_adds and uncolored_rs:
        on_cycle = _r_cycle_edges(state)
        for e in uncolored_rs:
            for g in colored_adds:
                if state.swap_feasible((e,), (g,)):
                    tag = ("cycle-recolor-swap" if e in on_cycle
                           else "growth-swap")
                    return Rewrite((e,), (g,), tag)

    # M1: strict size decrease, pairs out / one (or zero) in
    for i, e in enumerate(R_sorted):
        for f in R_sorted[i + 1:]:
            if state.swap_feasible((e, f), ()):
                return Rewrite((e, f), (), "tree-path-swap")
            for g in candidates:
                if state.swap_feasible((e, f), (g,)):
                    return Rewrite((e, f), (g,), "tree-path-swap")

    # M3: connected triples of R-edges, adds near the touched vertices
    touch: dict[int, list[Edge]] = {}
    for e in R_sorted:
        touch.setdefault(e[0], []).append(e)
        touch.setdefault(e[1], []).append(e)
    triples = set()
    for e in R_sorted:
        nbrs = {f for v in e for f in touch[v] if f != e}
        for f in sorted(nbrs):
            nn = {g for v in (*e, *f) for g in touch[v] if g not in (e, f)}
            for g in sorted(nn):
                triples.add(tuple(sorted((e, f, g))))
    for tri in sorted(triples):
        verts = {v for e in tri for v in e}
        near = sorted(
            g for g in candidates
            if g[0] in verts or g[1] in verts)
        if state.swap_feasible(tri, ()):
            return Rewrite(tri, (), "short-path-swap")
        for g in near:
            if state.swap_feasible(tri, (g,)):
                return Rewrite(tri, (g,), "short-path-swap")
        for ai, g in enumerate(near):
            for h in near[ai + 1:]:
                if state.swap_feasible(tri, (g, h)):
                    return Rewrite(tri, (g, h), "short-path-swap")
    return None


def peel_to_lower_class(
    D: Digraph, k: int, trace: list | None = None
) -> tuple[Digraph, frozenset[Edge]]:
    """(D \\ R, R) with D \\ R in D(k-1,k-1) and |R| <= floor(2m/(2k+1))."""
    state = initial_removal(D, k)
    guard = D.m * (D.m + 2)  # potential lattice size; loop must end before
    for _ in range(guard + 1):
        rw = find_improvement(state)
        if rw is None:
            break
        state.apply(rw)
        if trace is not None:
            trace.append((rw.tag, rw.remove, rw.add))
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
