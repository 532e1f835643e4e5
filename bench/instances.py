"""Seeded, witness-first instance generators and the per-workload op lists.

Every generator fixes the (X, Y) degree witness first and then draws edges
under the degree budgets it implies: X vertices take at most k in-edges,
Y vertices give at most k out-edges, and X -> Y pairs are free.  Each edge is
tried a bounded number of times, so building an instance costs O(m) (the
dense generators look at every X -> Y pair once, which is O(m) there too).
The same name and seed always give the same edge list.

An instance is handed to the program only as `.dg` text; the edge list kept
next to it is the benchmark's own copy, which the checker scans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

Edge = tuple[int, int]


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    edges: tuple[Edge, ...]
    text: str


@dataclass(frozen=True)
class Op:
    """One closed-loop request: `method` on `inst`, with its parameters."""

    method: str  # d11, d11c, d22, acyclic, peel, split
    inst: Instance
    k: int = 0               # acyclic class / peel level
    split: tuple[int, int] = (0, 0)


def dg_text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _relabel(rng: random.Random, n: int, edges) -> tuple[Edge, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted((perm[u], perm[v]) for u, v in edges))


class _Budget:
    """Edge set under the D(k,k) witness budgets, digon- and duplicate-free."""

    def __init__(self, n: int, k: int, in_x: list[bool]):
        self.k = k
        self.in_x = in_x
        self.in_used = [0] * n
        self.out_used = [0] * n
        self.edges: set[Edge] = set()

    def add(self, u: int, v: int) -> bool:
        if u == v or (u, v) in self.edges or (v, u) in self.edges:
            return False
        if self.in_x[v] and self.in_used[v] >= self.k:
            return False
        if not self.in_x[u] and self.out_used[u] >= self.k:
            return False
        self.edges.add((u, v))
        self.in_used[v] += 1
        self.out_used[u] += 1
        return True


def sparse_d11(rng: random.Random, n: int) -> tuple[Edge, ...]:
    """Digon-free D(1,1) with m close to 1.2 n, in many small weak pieces.

    Vertices are cut into blocks of 6..30; each block draws its edges
    inside itself, and labels are shuffled at the end so pieces interleave.
    """
    in_x = [rng.random() < 0.5 for _ in range(n)]
    bud = _Budget(n, 1, in_x)
    start = 0
    while start < n:
        size = min(n - start, rng.randint(6, 30))
        if n - start - size < 6:
            size = n - start
        want = (6 * size) // 5
        got = 0
        for _ in range(6 * want):
            if got == want:
                break
            u = start + rng.randrange(size)
            v = start + rng.randrange(size)
            got += bud.add(u, v)
        start += size
    return _relabel(rng, n, bud.edges)


def triangle_tree(rng: random.Random, t: int) -> tuple[Edge, ...]:
    """t directed triangles joined by t-1 bridges into a random tree.

    A bridge tail keeps in-degree 1 and a bridge head keeps out-degree 1,
    so no vertex is used as both; the result is connected, digon-free and
    in D(1,1), with m = 4t - 1.
    """
    n = 3 * t
    edges = []
    role = [""] * n
    for i in range(t):
        a = 3 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a)]
    for i in range(1, t):
        while True:
            j = rng.randrange(i)
            p = 3 * j + rng.randrange(3)
            q = 3 * i + rng.randrange(3)
            u, v = (p, q) if rng.random() < 0.5 else (q, p)
            if role[u] != "head" and role[v] != "tail":
                role[u], role[v] = "tail", "head"
                edges.append((u, v))
                break
    return _relabel(rng, n, edges)


def dense_dkk(rng: random.Random, n: int, k: int,
              acyclic: bool = False) -> tuple[Edge, ...]:
    """Digon-free D(k,k) with m = Theta(n^2).

    Half the vertices form X.  Every X -> Y pair is kept with probability
    1/2; then each Y vertex draws up to k out-edges and each X vertex fills
    its remaining in-degree budget.  With `acyclic`, every edge goes forward
    in a random vertex order.
    """
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    in_x = [False] * n
    for v in rng.sample(range(n), n // 2):
        in_x[v] = True
    xs = [v for v in range(n) if in_x[v]]
    ys = [v for v in range(n) if not in_x[v]]
    bud = _Budget(n, k, in_x)

    def ok(u: int, v: int) -> bool:
        return not acyclic or rank[u] < rank[v]

    for x in xs:
        for y in ys:
            if ok(x, y) and rng.random() < 0.5:
                bud.add(x, y)
    for y in ys:
        for _ in range(2 * k):
            w = rng.randrange(n)
            if ok(y, w):
                bud.add(y, w)
    for x in xs:
        for _ in range(3 * k):
            if bud.in_used[x] >= k:
                break
            u = rng.randrange(n)
            if ok(u, x):
                bud.add(u, x)
    return tuple(sorted(bud.edges))


# -- workloads --------------------------------------------------------------

# Sizes are fixed; the seed only draws the edges.  A round lasts five to
# ten seconds on a 2-vCPU VM.  Each op list has a large group of small
# instances, so the median latency falls well inside it, and a group of 16
# to 24 larger instances of one kind and size, so the tail percentile (10
# ops beyond it) falls inside that group; both stay put from seed to seed.
# Sparse sizes run from m ~ 200 to one m ~ 1.6k instance, which sits beyond
# the tail and weighs on the rates.  Dense D(2,2) keeps d22 and peel at
# comparable shares: peel's move search grows much faster and varies more
# between instances, so peel runs on the many small instances and d22 alone
# on the larger ones.  Every dense n is above 26 (Example 2 aside), since at
# n <= 26 each cut op also runs the exact oracle over all 2^n bipartitions.
SPARSE_N = (170,) * 24 + (340,) * 16 + (1340,)
CHAIN_T = (50,) * 4 + (100,) * 2
EXAMPLE1_K = (25,) * 4 + (50,) * 2
DENSE22_N = (28,) * 20
DENSE22_D22_N = (60,) * 24
DENSE33_N = (40,) * 8


def instance(name: str, n: int, edges) -> Instance:
    edges = tuple(edges)
    return Instance(name, n, edges, dg_text(n, edges))


def _make(name: str, n: int, edges, k: int, digon_free: bool,
          acyclic: bool = False) -> Instance:
    """The instance, after the membership checks its methods need, made with
    the program's own predicates."""
    from dicuts.digraph import Digraph, class_partition

    D = Digraph(n, edges)
    if class_partition(D, k, k) is None:
        raise RuntimeError(f"generated instance is not in D({k},{k})")
    if digon_free and D.has_digon():
        raise RuntimeError("generated instance has a digon")
    if acyclic and not D.is_acyclic():
        raise RuntimeError("generated instance is not acyclic")
    return instance(name, n, edges)


def _shuffled(ops: list[Op], key: str) -> list[Op]:
    """Ops in a seeded order, so every kind is spread over the whole round
    and its latencies sample the machine over the whole run."""
    random.Random(key).shuffle(ops)
    return ops


def sparse_ops(seed: int, named) -> list[Op]:
    """d11 on random sparse pieces, triangle trees and Example 1 chains;
    d11c on the connected ones.  `named` wraps calls into the program's
    generators so they can be timed."""
    ops: list[Op] = []
    for i, n in enumerate(SPARSE_N):
        rng = random.Random(f"sparse-d11/{seed}/random/{i}")
        inst = _make(f"d11-random-n{n}-{i}", n, sparse_d11(rng, n), 1, True)
        ops.append(Op("d11", inst))
    for i, t in enumerate(CHAIN_T):
        rng = random.Random(f"sparse-d11/{seed}/chain/{i}")
        inst = _make(f"triangle-tree-t{t}-{i}", 3 * t, triangle_tree(rng, t), 1, True)
        ops += [Op("d11", inst), Op("d11c", inst)]
    for i, k in enumerate(EXAMPLE1_K):
        D = named("gen_example1", k)
        rng = random.Random(f"sparse-d11/{seed}/example1/{i}")
        edges = _relabel(rng, D.n, D.edges)
        inst = _make(f"example1-k{k}-{i}", D.n, edges, 1, True)
        ops += [Op("d11", inst), Op("d11c", inst)]
    return _shuffled(ops, f"sparse-d11/{seed}/order")


def dense_ops(seed: int, named) -> list[Op]:
    """d22, peel k=2 and split 1+1 on dense D(2,2); acyclic, peel k=3 and
    split 1+2 on acyclic dense D(3,3); d22 alone on larger D(2,2), so that
    the slowest group holds only d22 and the cheapest only splits."""
    ops: list[Op] = []
    for i, n in enumerate(DENSE22_N):
        rng = random.Random(f"dense-dkk/{seed}/d22/{i}")
        inst = _make(f"dense22-n{n}-{i}", n, dense_dkk(rng, n, 2), 2, False)
        ops += [Op("d22", inst), Op("peel", inst, k=2),
                Op("split", inst, split=(1, 1))]
    for i, n in enumerate(DENSE22_D22_N):
        rng = random.Random(f"dense-dkk/{seed}/d22-large/{i}")
        inst = _make(f"dense22-n{n}-large-{i}", n, dense_dkk(rng, n, 2), 2, False)
        ops.append(Op("d22", inst))
    for i, n in enumerate(DENSE33_N):
        rng = random.Random(f"dense-dkk/{seed}/acyclic33/{i}")
        edges = dense_dkk(rng, n, 3, acyclic=True)
        inst = _make(f"acyclic33-n{n}-{i}", n, edges, 3, False, acyclic=True)
        ops += [Op("acyclic", inst, k=3), Op("peel", inst, k=3),
                Op("split", inst, split=(1, 2))]
    D = named("gen_example2")
    inst = _make("example2", D.n, D.edges, 2, False)
    ops += [Op("d22", inst), Op("peel", inst, k=2), Op("split", inst, split=(1, 1))]
    return _shuffled(ops, f"dense-dkk/{seed}/order")


def is_connected(n: int, edges) -> bool:
    """The edge-carrying part of the graph forms one weak component."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for e in edges for v in e}) == 1


def is_directed_triangle(edges) -> bool:
    tails = {u for u, _ in edges}
    return len(edges) == 3 and len(tails) == 3 and tails == {v for _, v in edges}


def exhaustive_ops(d11_graphs, d22_graphs, seed: int) -> list[Op]:
    """d11 (and d11c where connected and not a directed triangle) on every
    enumerated D(1,1) graph, d22 on every enumerated D(2,2) graph; the
    corpus is exhaustive, so the seed only orders the ops."""
    ops: list[Op] = []
    for i, D in enumerate(d11_graphs):
        inst = instance(f"d11-enum-{i}", D.n, D.edges)
        ops.append(Op("d11", inst))
        if D.edges and is_connected(D.n, D.edges) \
                and not is_directed_triangle(D.edges):
            ops.append(Op("d11c", inst))
    for i, D in enumerate(d22_graphs):
        ops.append(Op("d22", instance(f"d22-enum-{i}", D.n, D.edges)))
    return _shuffled(ops, f"small-exhaustive/{seed}/order")


def build(workload: str, seed: int, named) -> Optional[list[Op]]:
    """The op list of one round, or None for the exhaustive workload, whose
    inputs are enumerated inside the timed round."""
    if workload == "sparse-d11":
        return sparse_ops(seed, named)
    if workload == "dense-dkk":
        return dense_ops(seed, named)
    return None
