"""Exact brute-force ground truth at desk scale.

Every guarantee in the library is cross-checked against these: maximum
directed cut by full bipartition enumeration, maximum vertex-disjoint
triangle packing by backtracking, minimum edge removal to a lower degree
class by iterative deepening, and cut-cover search.  Guards are explicit;
exceeding one raises, it never truncates silently.  The packing search's
guard counts its search steps, not only the triangles.

The maximum directed cut enumerates in parallel, at one of two widths.
On n <= 8 vertices `max_dicut_mask` gives each of the 2^n bipartitions a
byte of one Python int and adds one table entry per edge; above that it
scores the 2^16 bipartitions of the low 16 vertices at once, as one bit
each of Python ints, in one block per setting of the other vertices.  The
byte lanes win up to n = 8 and the bit slices from n = 9: per call on
random digraphs with m = 1.5n, lanes against slices read 3.6 vs 6.5 us at
n = 7, 5.6 vs 7.3 us at n = 8 and 10.5 vs 9.0 us at n = 9 (Python 3.11,
2 vCPUs).  Its memory stays at a few dozen ints of 8 KB whatever n is,
plus one lane table per n <= 8, built on first use: at most 64 ints of
256 bytes, 16 KB.  A sparse digraph with n = 26 takes a fraction of a
second, the complete one a few seconds.  It returns the maximizer with the
smallest bitmask, the first maximum that a walk over the bipartitions in
counting order meets, so the certificate of `max_dicut_exact` does not
depend on the width.  d11 calls the kernel on edge lists for its base
case, and the CLI for the optimum it reports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence

from .digraph import (
    AlgorithmBugError,
    CutCertificate,
    Digraph,
    Edge,
    InputError,
    PreconditionError,
    ResourceLimitError,
    _cut_of,
    _triangles,
    class_partition,
    cut_from_partition,
)

MAX_DICUT_VERTICES = 26
BLOCK_VERTICES = 16  # low vertices scored together; 2^16-bit ints
LANE_VERTICES = 8  # up to here, one byte per bipartition; 2^8-byte ints
MAX_PACKING_TRIANGLES = 2000
MAX_PACKING_STEPS = 1_000_000
MAX_REMOVAL_EDGES = 40
MAX_COVER_VERTICES = 10
MAX_COVER_CUTS = 4


def max_dicut_exact(D: Digraph) -> CutCertificate:
    """A maximum directed cut; X has the least bitmask among the maximizers.

    The certificate of `max_dicut_mask` on D's edges, which scores all 2^n
    bipartitions in byte lanes up to n = 8 and in blocks of 2^16
    bit-parallel counters above, in memory independent of n.  Its X is the
    first maximum of a walk over the bipartitions in counting order, so the
    certificate does not depend on the width.  It carries the optimum as
    its bound, checked against the cut that X induces.  Raises
    `ResourceLimitError` for n > MAX_DICUT_VERTICES.
    """
    size, x = max_dicut_mask(D.n, D.edges)
    return _cut_of(D, {v for v in range(D.n) if x >> v & 1}, Fraction(size))


@lru_cache(maxsize=None)  # c <= BLOCK_VERTICES: a few hundred KB in all
def _columns(c: int) -> tuple[tuple[int, ...], int]:
    """Vertex columns over the 2^c bipartitions of c vertices, and the mask
    of all of them: bit j of column i is set iff bipartition j puts vertex i
    in X, that is, iff bit i of j is."""
    width = 1 << c
    cols = []
    for i in range(c):
        col, span = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while span < width:
            col |= col << span
            span <<= 1
        cols.append(col)
    return tuple(cols), (1 << width) - 1


@lru_cache(maxsize=None)  # n <= LANE_VERTICES: 16 KB at n = 8
def _lanes(n: int) -> tuple[tuple[int, ...], ...]:
    """Crossing indicators over the 2^n bipartitions of n vertices, one
    byte each: byte j of entry [u][v] is 1 iff bipartition j cuts u -> v,
    that is, iff bit j of `col[u] & ~col[v]` is set (`_columns`)."""
    cols, _ = _columns(n)
    return tuple(tuple(
        int.from_bytes(bytes(cross >> j & 1 for j in range(1 << n)), "little")
        for cross in (cu & ~cv for cv in cols)) for cu in cols)


def max_dicut_mask(n: int, edges: Sequence[Edge]) -> tuple[int, int]:
    """(size, X as a bitmask) of a maximum directed cut of the digraph on
    0..n-1 with these edges, X the maximizer of least bitmask: the first
    maximum in counting order.

    On n <= LANE_VERTICES vertices and at most 255 edges, bipartition j
    counts its cut edges in byte j of one Python int, which no count can
    overflow: the sum of the edges' `_lanes` entries.  Its least maximizer
    is the first maximum byte.  Repeated edges are the only way past 255
    edges there, and they take the blocks below.  The lanes beat the
    blocks up to n = 8 and lose from n = 9: 5.6 vs 7.3 us per call at
    n = 8 and 10.5 vs 9.0 us at n = 9 (module docstring).

    Otherwise the low c = min(n, BLOCK_VERTICES) vertices are scored as one
    block: all 2^c bipartitions of them at once, one bit per bipartition in
    Python ints.  An edge crosses in the bipartitions `col[u] & ~col[v]`;
    the crossing indicators are summed into bit-sliced counters, whose
    maximum is read from the top slice down.  There is one block per
    setting of the n - c high vertices, which only the edges at a high
    vertex depend on, so the sum over the other edges is taken once.
    Blocks run in increasing order of their high bits, so a block replaces
    the best only when it beats it, and its X is the lowest tied
    bipartition.  A block keeps O(c + log m) ints of 2^c bits live (8 KB
    each at c = 16), whatever n.
    """
    if n > MAX_DICUT_VERTICES:
        raise ResourceLimitError(
            f"n={n} exceeds enumeration guard {MAX_DICUT_VERTICES}")
    if n <= LANE_VERTICES and len(edges) < 256:
        table, acc = _lanes(n), 0
        for u, v in edges:
            acc += table[u][v]
        counts = acc.to_bytes(1 << n, "little")
        top = max(counts)
        return top, counts.index(top)
    c = min(n, BLOCK_VERTICES)
    low, full = _columns(c)
    base: list[int] = []  # counter slices of the edges between low vertices
    mixed = []
    for u, v in edges:
        if u < c and v < c:
            _add(base, low[u] & ~low[v])
        else:
            mixed.append((u, v))
    best = best_size = -1
    for high in range(1 << (n - c)):
        cols = low + tuple(full if high >> h & 1 else 0 for h in range(n - c))
        counter, fixed = base[:], 0
        for u, v in mixed:
            cross = cols[u] & ~cols[v] & full
            if cross == full:
                fixed += 1
            elif cross:
                _add(counter, cross)
        # the maximum, and the bipartitions that reach it
        top, tied = 0, full
        for i in reversed(range(len(counter))):
            reach = tied & counter[i]
            if reach:
                tied = reach
                top |= 1 << i
        if top + fixed > best_size:
            best = ((tied & -tied).bit_length() - 1) | high << c
            best_size = top + fixed
    return best_size, best


def _add(counter: list[int], bits: int) -> None:
    """Add one 0/1 indicator per bit position to bit-sliced counters."""
    for i, slice_ in enumerate(counter):
        counter[i] = slice_ ^ bits
        bits &= slice_
        if not bits:
            return
    counter.append(bits)


def max_triangle_packing(D: Digraph) -> int:
    """Maximum number of pairwise vertex-disjoint directed triangles.

    Triangles that share a vertex are joined into groups, and the packing
    is the sum of each group's own.  One step budget covers every group.
    """
    # list one triangle past the guard, not all of them, to trip it
    tris = list(islice(_triangles(D.vertices, D.succ, D.pred),
                       MAX_PACKING_TRIANGLES + 1))
    if len(tris) > MAX_PACKING_TRIANGLES:
        raise ResourceLimitError(
            f"more than {MAX_PACKING_TRIANGLES} triangles")
    # union-find over vertices, with path halving
    root: dict[int, int] = {}

    def find(v: int) -> int:
        while root.setdefault(v, v) != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for a, b, c in tris:
        ra = find(a)
        root[find(b)] = ra
        root[find(c)] = ra
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for tri in tris:
        groups.setdefault(find(tri[0]), []).append(tri)
    total = steps = 0
    for group in groups.values():
        best, steps = _pack_group(group, steps)
        total += best
    return total


def _pack_group(tris: list, steps: int) -> tuple[int, int]:
    """(maximum packing of `tris`, `steps` plus the search steps taken)."""
    # depth-first over increasing triangle indices; nxt[d] is the next index
    # to try at depth d, chosen[d] the triangle taken there
    best = 0
    used: set[int] = set()
    chosen: list[int] = []
    nxt = [0]
    while nxt:
        steps += 1
        if steps > MAX_PACKING_STEPS:
            raise ResourceLimitError(
                f"triangle packing search exceeds {MAX_PACKING_STEPS} steps")
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
    return best, steps


def min_removal_exact(D: Digraph, k: int) -> frozenset[Edge]:
    """Smallest R with D \\ R in D(k-1, k-1).

    Iterative deepening: per budget, a depth-first search over a stack of
    removal sets, which branches on the edges at the first violating vertex,
    in-edges before out-edges, so the depth never exceeds the answer.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if class_partition(D, k, k) is None:
        raise PreconditionError(f"digraph is not in D({k},{k})")
    if D.m > MAX_REMOVAL_EDGES:
        raise ResourceLimitError(f"m={D.m} exceeds guard {MAX_REMOVAL_EDGES}")

    def violator(removed: frozenset[Edge]) -> Optional[int]:
        for v in range(D.n):
            din = sum(1 for u in D.pred[v] if (u, v) not in removed)
            dout = sum(1 for w in D.succ[v] if (v, w) not in removed)
            if din > k - 1 and dout > k - 1:
                return v
        return None

    for budget in range(D.m + 1):
        stack = [frozenset()]
        while stack:
            removed = stack.pop()
            v = violator(removed)
            if v is None:
                return removed
            if len(removed) < budget:
                # reversed, so that the children pop in branching order
                stack += [removed | {e} for e in
                          reversed(D.in_edges(v) + D.out_edges(v))
                          if e not in removed]
    raise AlgorithmBugError("unreachable: removing all edges always works")


def decompose_into_cuts(D: Digraph, c: int) -> Optional[list[CutCertificate]]:
    """c directed cuts covering E(D) (assign each edge to the first cut that
    contains it to read the result as a partition), or None if no such cover
    exists within the guard.

    Depth-first over a stack of (covered edges, chosen X) states: each state
    branches on the bipartitions that cut its first uncovered edge, but the
    last of the c cuts is forced.  It must hold every uncovered tail and no
    uncovered head, so it exists iff the two are disjoint, and its least X
    is the tails.  A cover with fewer cuts is padded with empty ones.
    """
    if c < 0:
        raise InputError("c must be non-negative")
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
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            return [cut_from_partition(D, [v for v in range(n) if x >> v & 1])
                    for x in chosen + (0,) * (c - len(chosen))]
        if len(chosen) == c:
            continue
        unc = ~covered & full
        if len(chosen) == c - 1:
            tails = heads = 0
            for i, (u, v) in enumerate(edge_list):
                if unc >> i & 1:
                    tails |= 1 << u
                    heads |= 1 << v
            if not tails & heads:
                stack.append((full, chosen + (tails,)))
            continue
        u, v = edge_list[(unc & -unc).bit_length() - 1]
        stack += [(covered | all_masks[x], chosen + (x,))
                  for x in reversed(range(1 << n))
                  if x >> u & 1 and not x >> v & 1]
    return None
