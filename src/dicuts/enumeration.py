"""Isomorph-reduced exhaustive enumeration of small digraph families.

Digon-free families are produced by orienting every graph of the atlas of
small undirected graphs and keeping one representative per orbit of the
underlying graph's automorphism group, which a backtracking search finds.
The digon-admitting D(2,2) family is enumerated as adjacency bitmasks; a
mask is kept when no vertex permutation maps it below itself, tested one
permutation at a time through lookup tables over the two halves of the mask.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

import networkx as nx
import numpy as np

from .digraph import Digraph, ResourceLimitError

# masks scanned per numpy pass in d22_with_digons
CHUNK_MASKS = 1 << 15


def _automorphisms(n: int, und: list) -> list[tuple[int, ...]]:
    """Every automorphism of the undirected graph on 0..n-1 with edge list
    `und`, in lexicographic order.  Vertices are mapped in order; vertex i
    may go to an unused vertex of its degree whose neighbours among the
    images of 0..i-1 are the images of i's neighbours among 0..i-1."""
    adj = [0] * n
    for u, v in und:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    deg = [a.bit_count() for a in adj]
    auts = []
    image: list[int] = []
    used = 0
    # nxt[i] is the next candidate image of vertex i
    nxt = [0]
    while nxt:
        i = len(nxt) - 1
        if i == n:
            auts.append(tuple(image))
            w = n
        else:
            want = 0
            for j in range(i):
                if adj[i] >> j & 1:
                    want |= 1 << image[j]
            w = nxt[i]
            while w < n and (used >> w & 1 or deg[w] != deg[i]
                             or adj[w] & used != want):
                w += 1
        if w == n:
            nxt.pop()
            if image:
                used ^= 1 << image.pop()
            continue
        nxt[i] = w + 1
        image.append(w)
        used |= 1 << w
        nxt.append(0)
    return auts


def digonfree_d11(max_n: int) -> Iterator[Digraph]:
    """All digon-free D(1,1) digraphs on at most max_n vertices, one per
    isomorphism class (graphs with isolated vertices appear once per
    underlying atlas entry)."""
    if max_n > 7:
        raise ResourceLimitError("atlas covers at most 7 vertices")
    for G in nx.graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if n > max_n:
            break
        und = sorted(tuple(sorted(e)) for e in G.edges())
        yield from _orient(n, und, _automorphisms(n, und))


def _orient(n: int, und: list, auts: list) -> Iterator[Digraph]:
    """One orientation per orbit under `auts`: the one whose sorted edge
    list is least."""
    m = len(und)
    identity = tuple(range(n))
    auts = [perm for perm in auts if perm != identity]
    din = [0] * n
    dout = [0] * n
    chosen: list[tuple[int, int]] = []

    def canonical(edges: list) -> bool:
        mine = sorted(edges)
        for perm in auts:
            mapped = sorted((perm[u], perm[v]) for u, v in edges)
            if mapped < mine:
                return False
        return True

    def rec(i: int):
        if i == m:
            if canonical(chosen):
                yield Digraph(n, list(chosen))
            return
        a, b = und[i]
        for u, v in ((a, b), (b, a)):
            dout[u] += 1
            din[v] += 1
            # a vertex with both degrees >= 2 can never recover
            if (din[u] < 2 or dout[u] < 2) and (din[v] < 2 or dout[v] < 2):
                chosen.append((u, v))
                yield from rec(i + 1)
                chosen.pop()
            dout[u] -= 1
            din[v] -= 1

    yield from rec(0)


def d22_with_digons(n: int) -> Iterator[Digraph]:
    """All D(2,2) digraphs on exactly n <= 5 labeled vertices, reduced to one
    representative (minimum bitmask) per isomorphism class, in increasing
    bitmask order.  The masks are scanned CHUNK_MASKS at a time, so memory
    stays flat in the 2^(n(n-1)) masks."""
    if n > 5:
        raise ResourceLimitError("bitmask scan limited to 5 vertices")
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    idx = {e: i for i, e in enumerate(slots)}
    perms = list(permutations(range(n)))[1:]  # all but the identity
    # a mask is a low and a high half of slots; each table below maps one
    # half's bits to what they contribute, and a mask sums its two entries
    half = len(slots) // 2
    low = (1 << half) - 1
    parts = (slots[:half], slots[half:])
    bits = [(np.arange(1 << len(p))[:, None] >> np.arange(len(p))) & 1
            for p in parts]
    # degrees packed 4 bits per vertex; the low half's fields start at 5,
    # so the top bit of a summed field is set iff that degree is >= 3, and a
    # field never carries (degree <= 4, 5 + 4 < 16)
    fields = sum(1 << 4 * x for x in range(n))
    indeg = [b @ np.array([1 << 4 * v for _, v in p], np.int64)
             for b, p in zip(bits, parts)]
    outdeg = [b @ np.array([1 << 4 * u for u, _ in p], np.int64)
              for b, p in zip(bits, parts)]
    indeg[0] += 5 * fields
    outdeg[0] += 5 * fields
    # image[h][k, x]: half h's bits x moved by perms[k]
    image = [np.array([[1 << idx[(q[u], q[v])] for u, v in p] for q in perms],
                      np.int64) @ b.T for b, p in zip(bits, parts)]
    total = 1 << len(slots)
    for start in range(0, total, CHUNK_MASKS):
        masks = np.arange(start, min(start + CHUNK_MASKS, total),
                          dtype=np.int64)
        lo, hi = masks & low, masks >> half
        # in D(2,2): no vertex has both degrees >= 3
        both = (indeg[0][lo] + indeg[1][hi]) & (outdeg[0][lo] + outdeg[1][hi])
        kept = masks[(both & 8 * fields) == 0]
        # least in its orbit: no permutation maps it below itself
        for k in range(len(perms)):
            lo, hi = kept & low, kept >> half
            kept = kept[image[0][k, lo] + image[1][k, hi] >= kept]
        for mask in kept.tolist():
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            yield Digraph(n, edges)
