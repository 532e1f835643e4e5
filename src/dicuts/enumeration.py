"""Isomorph-reduced exhaustive enumeration of small digraph families.

Both families are closed under edge deletion, so one orderly generator lists
them (R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978).  A
graph is a bitmask over a list of edge slots, and its orbit under the vertex
permutations is represented by its largest mask.  A largest mask minus its
lowest bit is again a largest mask, so every representative is reached once,
from its parent, by adding a slot below the parent's lowest one; a child is
kept when no permutation maps it higher.  A child's images under all the
permutations are its parent's with the new slot's images or-ed in, and they
also give the orbit's least mask and the mask's automorphisms.  Digon-free
D(1,1) digraphs orient every undirected graph so generated, one orientation
per orbit of its automorphisms; D(2,2) digraphs, digons included, are
generated over ordered pairs directly.
"""

from __future__ import annotations

from itertools import compress, permutations
from operator import or_
from typing import Callable, Iterator

from .digraph import Digraph, ResourceLimitError


def _orderly(perms: list, slots: list,
             fits: Callable[[int, int], bool]) -> Iterator[tuple[int, list]]:
    """(mask, images) for one mask per orbit, under the vertex permutations
    `perms` (all of them), of the masks over `slots` (bit i is slots[i])
    that the family admits: the largest mask of its orbit, and its images
    under `perms` in that order.  `fits(mask, i)` says whether mask plus
    slot i is in the family; the family must be closed under edge deletion.
    Slots are ordered pairs, or unordered pairs listed once each."""
    index = {e: i for i, e in enumerate(slots)}
    # moved[i][k]: slot i's bit under perms[k]
    moved = [[1 << (index[(p[u], p[v])] if (p[u], p[v]) in index
                    else index[(p[v], p[u])]) for p in perms]
             for u, v in slots]
    stack = [(0, [0] * len(perms))]
    while stack:
        mask, images = stack.pop()
        yield mask, images
        lowest = (mask & -mask).bit_length() - 1 if mask else len(slots)
        for i in range(lowest):
            if fits(mask, i):
                child = mask | 1 << i
                # a child's images are its parent's plus slot i's
                imgs = list(map(or_, images, moved[i]))
                if max(imgs) == child:
                    stack.append((child, imgs))


def digonfree_d11(max_n: int) -> Iterator[Digraph]:
    """All digon-free D(1,1) digraphs on 1..max_n vertices, one per
    isomorphism class, by number of vertices."""
    if max_n > 7:
        raise ResourceLimitError("digon-free D(1,1) enumerated on at most "
                                 "7 vertices")
    for n in range(1, max_n + 1):
        # pairs from the top down, so that a representative's edges come
        # early at low vertices, where _orient prunes soonest
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)][::-1]
        perms = list(permutations(range(n)))
        for mask, images in _orderly(perms, slots, lambda mask, i: True):
            und = sorted(e for i, e in enumerate(slots) if mask >> i & 1)
            yield from _orient(n, und,
                               list(compress(perms, map(mask.__eq__, images))))


def _orient(n: int, und: list, auts: list) -> Iterator[Digraph]:
    """One orientation per orbit under `auts`: the one whose sorted edge
    list is least.  Depth-first over a stack of states, each the edges
    chosen so far and, as vertex bitmasks, where in- and out-degree reach 1
    and 2; a state orients und[len(chosen)] each way, (a, b) first."""
    m = len(und)
    identity = tuple(range(n))
    auts = [perm for perm in auts if perm != identity]

    def canonical(edges: tuple) -> bool:
        mine = sorted(edges)
        for perm in auts:
            mapped = sorted((perm[u], perm[v]) for u, v in edges)
            if mapped < mine:
                return False
        return True

    stack = [((), 0, 0, 0, 0)]
    while stack:
        chosen, in1, in2, out1, out2 = stack.pop()
        if len(chosen) == m:
            if canonical(chosen):
                yield Digraph(n, list(chosen))
            continue
        a, b = und[len(chosen)]
        for u, v in ((b, a), (a, b)):  # pushed last, (a, b) pops first
            i1, i2 = in1 | 1 << v, in2 | in1 & 1 << v
            o1, o2 = out1 | 1 << u, out2 | out1 & 1 << u
            # a vertex with both degrees >= 2 can never recover
            if not i2 & o2:
                stack.append((chosen + ((u, v),), i1, i2, o1, o2))


def d22_with_digons(n: int) -> Iterator[Digraph]:
    """All D(2,2) digraphs on exactly n <= 5 labeled vertices, reduced to one
    representative (least bitmask) per isomorphism class, in increasing
    bitmask order."""
    if n > 5:
        raise ResourceLimitError("D(2,2) enumerated on at most 5 vertices")
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    outs = [sum(1 << i for i, e in enumerate(slots) if e[0] == x)
            for x in range(n)]
    ins = [sum(1 << i for i, e in enumerate(slots) if e[1] == x)
           for x in range(n)]

    def fits(mask: int, i: int) -> bool:
        # in D(2,2): no vertex has both degrees >= 3; only slot i's ends move
        mask |= 1 << i
        return all((mask & outs[x]).bit_count() < 3
                   or (mask & ins[x]).bit_count() < 3 for x in slots[i])

    perms = list(permutations(range(n)))
    for mask in sorted(min(images) for _, images in _orderly(perms, slots, fits)):
        yield Digraph(n, [e for i, e in enumerate(slots) if mask >> i & 1])
