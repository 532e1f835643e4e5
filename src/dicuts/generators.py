"""Named extremal instances and seeded random members of each digraph family.

All outputs are digon-free and deterministic (given the seed).
"""

from __future__ import annotations

import random

from .digraph import (
    AlgorithmBugError,
    Digraph,
    InputError,
    MAX_VERTICES,
    ResourceLimitError,
    check_vertex_count,
    class_partition,
)


def gen_example1(k: int) -> Digraph:
    """k chorded 5-paths linked by k+1 directed triangles.

    Block i is the path u_i v_i w_i x_i y_i plus the chord v_i -> x_i;
    triangle i is (y_i -> u_{i+1}, u_{i+1} -> z_i, z_i -> y_i) with fresh
    endpoints y_0, u_{k+1} and fresh z_0..z_k.  The result has 6k+3 vertices
    and 8k+3 edges; its maximum directed cut has 3k+1 edges.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    n = 6 * k + 3
    check_vertex_count(n)
    # vertex ids: block i in 1..k holds u,v,w,x,y at 5*(i-1)..5*(i-1)+4
    def u(i): return 5 * (i - 1)
    def v(i): return 5 * (i - 1) + 1
    def w(i): return 5 * (i - 1) + 2
    def x(i): return 5 * (i - 1) + 3
    def y(i): return 5 * (i - 1) + 4
    y0 = 5 * k          # fresh y_0
    u_last = 5 * k + 1  # fresh u_{k+1}
    def z(i): return 5 * k + 2 + i  # z_0 .. z_k

    edges = []
    for i in range(1, k + 1):
        edges += [(u(i), v(i)), (v(i), w(i)), (w(i), x(i)), (x(i), y(i)),
                  (v(i), x(i))]
    ys = [y0] + [y(i) for i in range(1, k + 1)]
    us = [u(i) for i in range(1, k + 1)] + [u_last]
    for i in range(k + 1):
        edges += [(ys[i], us[i]), (us[i], z(i)), (z(i), ys[i])]
    D = Digraph(n, edges)
    if D.m != 8 * k + 3 or class_partition(D, 1, 1) is None or D.has_digon():
        raise AlgorithmBugError("chorded-path chain construction broken")
    return D


def gen_regular_tournament(k: int) -> Digraph:
    """Rotational tournament on 2k+1 vertices: i beats i+1 .. i+k (mod n)."""
    if k < 1:
        raise InputError("k must be >= 1")
    n = 2 * k + 1
    check_vertex_count(n)
    if n * k > MAX_VERTICES:
        raise ResourceLimitError(f"{n * k} edges exceed guard {MAX_VERTICES}")
    return Digraph(n, [(i, (i + d) % n) for i in range(n)
                       for d in range(1, k + 1)])


def gen_example2() -> Digraph:
    """Two rotational 5-tournaments plus all 25 edges from the first to the
    second: 10 vertices, 45 edges, in D(2,2), and no directed cut K leaves
    the remainder in D(1,1)."""
    T = gen_regular_tournament(2)
    edges = list(T.edges)
    edges += [(u + 5, v + 5) for u, v in T.edges]
    edges += [(a, b + 5) for a in range(5) for b in range(5)]
    D = Digraph(10, edges)
    if D.m != 45 or class_partition(D, 2, 2) is None:
        raise AlgorithmBugError("double-tournament construction broken")
    return D


def gen_random_family(family: str, n: int, k: int = 1,
                      seed: int = 0) -> Digraph:
    """A seeded random digon-free member of the requested family.

    families: d11, d11-trianglefree, dkk, acyclic-dkk, disjoint-triangles
    (for disjoint-triangles, n is the number of triangles).
    """
    rng = random.Random(seed)
    if family == "disjoint-triangles":
        t = n
        if t < 1:
            raise InputError("need at least one triangle")
        check_vertex_count(3 * t)
        edges = []
        for i in range(t):
            a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
            edges += [(a, b), (b, c), (c, a)]
        return Digraph(3 * t, edges)
    if n < 1:
        raise InputError("n must be positive")
    if family not in ("d11", "d11-trianglefree", "dkk", "acyclic-dkk"):
        raise InputError(f"unknown family {family!r}")
    kk = 1 if family.startswith("d11") else k
    acyclic = family == "acyclic-dkk"
    if kk < 0:
        raise InputError("k must be non-negative")
    check_vertex_count(n)
    target = rng.randint(n, max(n, 2 * n))
    edges: set = set()
    succ: list[set[int]] = [set() for _ in range(n)]
    indeg, outdeg = [0] * n, [0] * n
    for _ in range(20 * target):
        if len(edges) >= target:
            break
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        if acyclic and u > v:
            u, v = v, u
        if (u, v) in edges or (v, u) in edges:
            continue
        # the edge set is in D(kk, kk) (and triangle-free) before the draw;
        # only u's out-degree, v's in-degree and triangles u->v->w->u change
        ok = ((indeg[u] <= kk or outdeg[u] < kk)
              and (indeg[v] < kk or outdeg[v] <= kk))
        if ok and family == "d11-trianglefree":
            ok = not any((w, u) in edges for w in succ[v])
        if ok:
            edges.add((u, v))
            succ[u].add(v)
            outdeg[u] += 1
            indeg[v] += 1
    return Digraph(n, sorted(edges))
