"""Exact brute-force ground truth at desk scale.

Every guarantee in the library is cross-checked against these: maximum
directed cut by full bipartition enumeration, maximum vertex-disjoint
triangle packing by backtracking, minimum edge removal to a lower degree
class by iterative deepening, and cut-cover search.  Guards are explicit;
exceeding one raises, it never truncates silently.
"""

from __future__ import annotations

from typing import Optional

from .digraph import (
    CutCertificate,
    Digraph,
    Edge,
    PreconditionError,
    ResourceLimitError,
    class_partition,
    cut_from_partition,
)

MAX_DICUT_VERTICES = 26
MAX_PACKING_TRIANGLES = 2000
MAX_REMOVAL_EDGES = 40
MAX_COVER_VERTICES = 10
MAX_COVER_CUTS = 4


def max_dicut_exact(D: Digraph) -> CutCertificate:
    """A maximum directed cut, the lexicographically smallest X among maximizers.

    Enumerates bipartitions in Gray-code order, with X as a bitmask, so
    each step updates the cut size by two popcounts.
    """
    if D.n > MAX_DICUT_VERTICES:
        raise ResourceLimitError(
            f"n={D.n} exceeds enumeration guard {MAX_DICUT_VERTICES}")
    n = D.n
    out_mask = [sum(1 << w for w in D.succ[v]) for v in range(n)]
    in_mask = [sum(1 << u for u in D.pred[v]) for v in range(n)]
    x = size = best = best_size = 0
    total = 1 << n
    for i in range(1, total + 1):
        if size > best_size:
            best, best_size = x, size
        elif size == best_size and best:
            # X comes before best's X in lexicographic order iff, at their
            # least differing vertex d, X holds d and best has more members
            # beyond it, or best holds d and X has no member from d on
            d = (x ^ best) & -(x ^ best)
            if (best >= d << 1) if x & d else (x < d):
                best = x
        if i == total:
            break
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if x & bit:
            # leaving X: out-edges to Y stop counting, in-edges from X start
            size -= (out_mask[v] & ~x).bit_count()
            x ^= bit
            size += (in_mask[v] & x).bit_count()
        else:
            size -= (in_mask[v] & x).bit_count()
            x |= bit
            size += (out_mask[v] & ~x).bit_count()
    return cut_from_partition(D, [v for v in range(n) if best >> v & 1])


def max_triangle_packing(D: Digraph) -> int:
    """Maximum number of pairwise vertex-disjoint directed triangles."""
    tris = D.triangles()
    if len(tris) > MAX_PACKING_TRIANGLES:
        raise ResourceLimitError(
            f"{len(tris)} triangles exceed guard {MAX_PACKING_TRIANGLES}")
    # depth-first over increasing triangle indices; nxt[d] is the next index
    # to try at depth d, chosen[d] the triangle taken there
    best = 0
    used: set[int] = set()
    chosen: list[int] = []
    nxt = [0]
    while nxt:
        j = nxt[-1]
        while j < len(tris) and not used.isdisjoint(tris[j]):
            j += 1
        if j == len(tris):
            nxt.pop()
            if chosen:
                used.difference_update(tris[chosen.pop()])
            continue
        nxt[-1] = j + 1
        best = max(best, len(chosen) + 1)
        # descend unless even taking every later triangle cannot beat best
        if len(chosen) + len(tris) - j > best:
            chosen.append(j)
            used.update(tris[j])
            nxt.append(j + 1)
    return best


def min_removal_exact(D: Digraph, k: int) -> frozenset[Edge]:
    """Smallest R with D \\ R in D(k-1, k-1).

    Iterative deepening; branches on the edges incident to a violating
    vertex, so the depth never exceeds the answer.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if class_partition(D, k, k) is None:
        raise PreconditionError(f"digraph is not in D({k},{k})")
    if D.m > MAX_REMOVAL_EDGES:
        raise ResourceLimitError(f"m={D.m} exceeds guard {MAX_REMOVAL_EDGES}")

    def violator(removed: set[Edge]) -> Optional[int]:
        for v in range(D.n):
            din = sum(1 for u in D.pred[v] if (u, v) not in removed)
            dout = sum(1 for w in D.succ[v] if (v, w) not in removed)
            if din > k - 1 and dout > k - 1:
                return v
        return None

    def search(removed: set[Edge], budget: int) -> Optional[frozenset[Edge]]:
        v = violator(removed)
        if v is None:
            return frozenset(removed)
        if budget == 0:
            return None
        for e in D.in_edges(v) + D.out_edges(v):
            if e in removed:
                continue
            removed.add(e)
            res = search(removed, budget - 1)
            removed.discard(e)
            if res is not None:
                return res
        return None

    for budget in range(D.m + 1):
        res = search(set(), budget)
        if res is not None:
            return res
    raise AssertionError("unreachable: removing all edges always works")


def decompose_into_cuts(D: Digraph, c: int) -> Optional[list[CutCertificate]]:
    """c directed cuts covering E(D) (assign each edge to the first cut that
    contains it to read the result as a partition), or None if no such cover
    exists within the guard."""
    if D.n > MAX_COVER_VERTICES or c > MAX_COVER_CUTS:
        raise ResourceLimitError(
            f"n={D.n}, c={c} exceeds guard n<={MAX_COVER_VERTICES}, "
            f"c<={MAX_COVER_CUTS}")
    n = D.n
    edge_list = list(D.edges)

    def cut_mask(xmask: int) -> int:
        mask = 0
        for i, (u, v) in enumerate(edge_list):
            if (xmask >> u) & 1 and not (xmask >> v) & 1:
                mask |= 1 << i
        return mask

    all_masks = [cut_mask(x) for x in range(1 << n)]
    full = (1 << len(edge_list)) - 1

    chosen: list[int] = []

    def rec(covered: int, depth: int) -> bool:
        if covered == full:
            return True
        if depth == c:
            return False
        # first uncovered edge; only bipartitions cutting it are candidates
        unc = ~covered & full
        idx = (unc & -unc).bit_length() - 1
        u, v = edge_list[idx]
        for x in range(1 << n):
            if (x >> u) & 1 and not (x >> v) & 1:
                chosen.append(x)
                if rec(covered | all_masks[x], depth + 1):
                    return True
                chosen.pop()
        return False

    if not rec(0, 0):
        return None
    certs = [cut_from_partition(D, [v for v in range(n) if (x >> v) & 1])
             for x in chosen]
    while len(certs) < c:
        certs.append(cut_from_partition(D, []))
    return certs
