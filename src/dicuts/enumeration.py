"""Isomorph-reduced exhaustive enumeration of small digraph families.

Digon-free families are produced by orienting every graph of the atlas of
small undirected graphs and keeping one representative per orbit of the
underlying graph's automorphism group.  The digon-admitting D(2,2) family
is enumerated as adjacency bitmasks, canonicalized with numpy over all
vertex permutations.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

import networkx as nx
import numpy as np

from .digraph import Digraph

# masks canonicalised per numpy pass in d22_with_digons
CHUNK_MASKS = 1 << 15


def _automorphisms(n: int, edge_set: frozenset) -> list[tuple[int, ...]]:
    auts = []
    for perm in permutations(range(n)):
        if all(frozenset((perm[u], perm[v])) in edge_set for u, v in
               (tuple(e) for e in edge_set)):
            auts.append(perm)
    return auts


def digonfree_d11(max_n: int) -> Iterator[Digraph]:
    """All digon-free D(1,1) digraphs on at most max_n vertices, one per
    isomorphism class (graphs with isolated vertices appear once per
    underlying atlas entry)."""
    if max_n > 7:
        raise ValueError("atlas covers at most 7 vertices")
    for G in nx.graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if n > max_n:
            break
        und = [tuple(sorted(e)) for e in G.edges()]
        und.sort()
        edge_set = frozenset(frozenset(e) for e in und)
        auts = _automorphisms(n, edge_set)
        yield from _orient(n, und, auts)


def _orient(n: int, und: list, auts: list) -> Iterator[Digraph]:
    m = len(und)
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
        raise ValueError("bitmask scan limited to 5 vertices")
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    idx = {e: i for i, e in enumerate(slots)}
    tail = np.array([[u == x for x in range(n)] for u, _ in slots], np.int64)
    head = np.array([[v == x for x in range(n)] for _, v in slots], np.int64)
    # canonical = min over all vertex permutations of the permuted mask
    W = np.array([[1 << idx[(perm[u], perm[v])] for u, v in slots]
                  for perm in permutations(range(n))], np.int64)
    shifts = np.arange(len(slots))
    total = 1 << len(slots)
    for lo in range(0, total, CHUNK_MASKS):
        masks = np.arange(lo, min(lo + CHUNK_MASKS, total), dtype=np.int64)
        bits = (masks[:, None] >> shifts[None, :]) & 1
        member = ((bits @ head <= 2) | (bits @ tail <= 2)).all(axis=1)
        kept = masks[member]
        canon = (bits[member] @ W.T).min(axis=1)
        for mask in kept[kept == canon]:
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            yield Digraph(n, edges)
