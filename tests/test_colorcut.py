import inspect
import itertools
import math
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from dicuts import colorcut, digraph, oracle
from dicuts.colorcut import (
    Coloring,
    best_balanced_class_bipartition,
    degeneracy_order,
    dicut_acyclic,
    dicut_d22,
    greedy_color,
)
from dicuts.digraph import (
    AlgorithmBugError,
    Digraph,
    PreconditionError,
    ResourceLimitError,
    Step,
    class_partition,
    cut_from_partition,
    shortest_bipartite_cycle,
)
from dicuts.generators import gen_random_family, gen_regular_tournament
from reference import (certificates_built, dense_d22,
                       shortest_cycle_reference)


def transitive(n):
    return Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_d22(rng, n, digons):
    """Random edges kept while every vertex has in- or out-degree <= 2."""
    edges, din, dout = set(), [0] * n, [0] * n
    for _ in range(4 * n):
        u, v = rng.sample(range(n), 2)
        if (u, v) in edges or (not digons and (v, u) in edges):
            continue
        if (din[u] <= 2 or dout[u] < 2) and (din[v] < 2 or dout[v] <= 2):
            edges.add((u, v))
            dout[u] += 1
            din[v] += 1
    return Digraph(n, edges)


def degeneracy_by_scan(n, und_edges):
    """`degeneracy_order` as first written: a scan of every live vertex for
    the least (degree, vertex) at each removal."""
    adj = [set() for _ in range(n)]
    for u, v in und_edges:
        adj[u].add(v)
        adj[v].add(u)
    deg = [len(a) for a in adj]
    alive = set(range(n))
    order, d = [], 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        order.append(v)
        alive.discard(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
    return order, d


def d22_rebuilding(D):
    """d22's cycle peeling as first written: X, F and F's adjacency found
    afresh and a new Digraph built at every step.  Returns the banked set,
    the steps, and whether a vertex joined X before a later cycle step."""
    banked, steps, X_before, mid_run = set(), [], None, False
    while True:
        X = {v for v in range(D.n) if D.in_deg(v) <= 2}
        F = [e for e in D.edges if e[0] in X and e[1] not in X]
        adj = [set() for _ in range(D.n)]
        for u, v in F:
            adj[u].add(v)
            adj[v].add(u)
        cyc = shortest_bipartite_cycle([sorted(a) for a in adj])
        if cyc is None:
            return banked | colorcut._d22_base(D.n, list(D.edges)), steps, mid_run
        mid_run |= X_before is not None and X != X_before
        X_before = X
        xc, yc = set(cyc) & X, set(cyc) - X
        F_C = {(v, w) if v in X else (w, v)
               for v, w in zip(cyc, cyc[1:] + cyc[:1])}
        assert F_C <= set(F)
        E_C = sorted(e for e in D.edges
                     if e not in F_C and (e[1] in xc or e[0] in yc))
        steps.append(Step("cycle", tuple(sorted(F_C)), tuple(E_C)))
        banked |= F_C
        D = D.without_edges(F_C | set(E_C))


def oriented_cuts(D, S):
    """The certificates of S and of its complement, as the colour path first
    built both to keep the larger, S's on a tie."""
    ss = set(S)
    return (cut_from_partition(D, S),
            cut_from_partition(D, [v for v in range(D.n) if v not in ss]))


def better_oriented_cut(D, S):
    a, b = oriented_cuts(D, S)
    return a if a.size >= b.size else b


def acyclic_split_by_sides(D, k):
    """`dicut_acyclic`'s balanced split as first written: each side of the
    degree witness colored on its own induced subgraph, relabelled densely
    in vertex order, the high side's colors offset by k+1."""
    X = [v for v in range(D.n) if D.out_deg(v) <= k]
    Y = [v for v in range(D.n) if D.out_deg(v) > k]
    colors = [-1] * D.n
    for offset, side in ((0, X), (k + 1, Y)):
        remap = {v: i for i, v in enumerate(side)}
        sub = sorted((remap[u], remap[v]) for u, v in D.edges
                     if u in remap and v in remap)
        col = greedy_color(len(side), sub, k)
        for v, i in remap.items():
            colors[v] = offset + col.colors[i]
    full = Coloring(tuple(colors), 2 * k + 2)
    S, _ = best_balanced_class_bipartition(full, D.edges)
    return S


def d22_base_split(D):
    """`_d22_base`'s balanced split as first written, on a `Digraph`."""
    col = greedy_color(D.n, D.edges, 5)
    S, _ = best_balanced_class_bipartition(col, D.edges)
    return S


class TestColorPathReference:
    """The one-pass coloring and the one orientation count pick the same
    cut as coloring each side's induced subgraph on its own and two
    certificates did."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_acyclic(self, k):
        rng = random.Random(20 + k)
        draws = [transitive(2 * k + 1)]
        draws += [gen_random_family("acyclic-dkk", rng.randint(2, 40), k,
                                    rng.randrange(1 << 30))
                  for _ in range(60)]
        ties = 0
        for D in draws:
            S = acyclic_split_by_sides(D, k)
            a, b = oriented_cuts(D, S)
            ties += a.size == b.size and D.m > 0
            assert dicut_acyclic(D, k) == better_oriented_cut(D, S)
        assert ties >= 1

    def test_acyclic_path_ties(self):
        # S = {0, 2} on the path 0 -> 1 -> 2: one edge leaves it and one
        # enters it, and the tie keeps S
        D = Digraph(3, [(0, 1), (1, 2)])
        S = acyclic_split_by_sides(D, 1)
        a, b = oriented_cuts(D, S)
        assert a.size == b.size == 1
        assert dicut_acyclic(D, 1) == a

    def test_d22_base(self, monkeypatch):
        calls = []
        base = colorcut._d22_base
        monkeypatch.setattr(colorcut, "_d22_base",
                            lambda n, edges: calls.append((n, list(edges)))
                            or base(n, edges))
        rng = random.Random(21)
        for i in range(120):
            if i % 4 == 3:
                D = dense_d22(rng.randrange(8, 40, 2), rng.randrange(1 << 30))
            else:
                D = random_d22(rng, rng.randint(2, 30), digons=i % 2 == 0)
            dicut_d22(D)
        ties = 0
        for n, edges in calls:
            H = Digraph(n, edges)
            want = set()
            if H.m:
                S = d22_base_split(H)
                a, b = oriented_cuts(H, S)
                ties += a.size == b.size
                want = set(better_oriented_cut(H, S).cut_edges)
            rng.shuffle(edges)  # the order of the edge list does not matter
            assert base(n, edges) == want
        assert ties >= 1

    def test_d22_base_four_cycle_ties(self):
        # S = {1, 3} is a colour class of the directed 4-cycle: two edges
        # leave it and two enter it, and the tie keeps S
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        H = Digraph(4, edges)
        S = d22_base_split(H)
        a, b = oriented_cuts(H, S)
        assert a.size == b.size == 2
        assert colorcut._d22_base(4, edges) == set(a.cut_edges)


class TestDegeneracy:
    def test_heap_order_matches_scan(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 40)
            edges = [tuple(rng.sample(range(n), 2))
                     for _ in range(rng.randint(0, 3 * n))] if n > 1 else []
            assert (degeneracy_order(colorcut._underlying_adj(n, edges))
                    == degeneracy_by_scan(n, edges))

    def test_large_sparse_graph(self):
        # out-degree 2 at n = 8 000: a scan per removal took seconds
        rng = random.Random(1)
        n = 8000
        edges = [(v, w + (w >= v)) for v in range(n)
                 for w in rng.sample(range(n - 1), 2)]
        start = time.perf_counter()
        order, d = degeneracy_order(colorcut._underlying_adj(n, edges))
        assert time.perf_counter() - start < 1.0
        assert sorted(order) == list(range(n)) and d == 3

    def test_tree(self):
        edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
        _, d = degeneracy_order(colorcut._underlying_adj(5, edges))
        assert d == 1

    def test_clique(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        _, d = degeneracy_order(colorcut._underlying_adj(4, edges))
        assert d == 3

    def test_transitive_low_outdegree_side(self):
        D = transitive(6)
        side = [v for v in range(6) if D.out_deg(v) <= 2]
        ss = set(side)
        remap = {v: i for i, v in enumerate(sorted(ss))}
        sub = [(remap[u], remap[v]) for u, v in D.edges
               if u in ss and v in ss]
        _, d = degeneracy_order(colorcut._underlying_adj(len(side), sub))
        assert d <= 2

    def test_greedy_color_builds_one_adjacency(self, monkeypatch):
        # the degeneracy order and the greedy pass read the same sets
        calls = []
        build = colorcut._underlying_adj
        monkeypatch.setattr(colorcut, "_underlying_adj",
                            lambda *a: calls.append(a) or build(*a))
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        assert greedy_color(4, edges, 2).gamma == 3
        assert len(calls) == 1

    def test_greedy_color_uses_d_plus_one(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        col = greedy_color(4, edges, 3)
        assert col.gamma <= 4
        with pytest.raises(AlgorithmBugError):
            greedy_color(4, edges, 2)


class TestBalancedSplit:
    def crossing(self, S, edges):
        ss = set(S)
        return sum(1 for u, v in edges if (u in ss) != (v in ss))

    def test_two_classes_all_crossing(self):
        edges = [(0, 1), (2, 1), (0, 3)]
        col = Coloring((0, 1, 0, 1), 2)
        S, T = best_balanced_class_bipartition(col, edges)
        assert self.crossing(S, edges) == 3

    def test_triangle_three_classes(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        col = Coloring((0, 1, 2), 3)
        S, T = best_balanced_class_bipartition(col, edges)
        assert self.crossing(S, edges) >= 2

    def test_random_meets_counting_bound(self):
        rng = random.Random(9)
        for _ in range(120):
            n = rng.randint(4, 16)
            edges = list({tuple(sorted(rng.sample(range(n), 2)))
                          for _ in range(rng.randint(3, 30))})
            col = greedy_color(n, edges, n)
            if col.gamma < 2 or col.gamma > 8:
                continue
            S, T = best_balanced_class_bipartition(col, edges)
            g, m = col.gamma, len(edges)
            need = Fraction((g * g // 4) * m, comb(g, 2))
            assert self.crossing(S, edges) >= need

    def test_same_split_as_scanning_every_edge(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(200):
            n = rng.randint(4, 24)
            edges = list({tuple(sorted(rng.sample(range(n), 2)))
                          for _ in range(rng.randint(3, 60))})
            col = greedy_color(n, edges, n)
            if col.gamma < 2 or col.gamma > 8:
                continue
            seen.add(col.gamma)
            assert (best_balanced_class_bipartition(col, edges)
                    == self.split_by_edge_scan(col, n, edges))
        assert seen >= {2, 3, 4, 5}

    @pytest.mark.parametrize("budget, refused", [(36, False), (35, True)])
    def test_split_guard_at_its_bound(self, budget, refused, monkeypatch):
        # 4 classes, 2 class pairs: C(4, 2) = 6 splits of 4 + 2 steps each
        monkeypatch.setattr(colorcut, "MAX_SPLIT_WORK", budget)
        col, edges = Coloring((0, 1, 2, 3), 4), [(0, 1), (2, 3)]
        if refused:
            with pytest.raises(ResourceLimitError, match="C\\(4, 2\\)"):
                best_balanced_class_bipartition(col, edges)
        else:
            assert best_balanced_class_bipartition(col, edges) == ((0, 2),
                                                                   (1, 3))

    @staticmethod
    def split_by_edge_scan(col, n, edges):
        """The first best split, scoring every split over all edges."""
        best = best_group = None
        for group in itertools.combinations(range(col.gamma), col.gamma // 2):
            crossing = sum(1 for u, v in edges
                           if (col.colors[u] in group) != (col.colors[v] in group))
            if best is None or crossing > best:
                best, best_group = crossing, group
        return (tuple(v for v in range(n) if col.colors[v] in best_group),
                tuple(v for v in range(n) if col.colors[v] not in best_group))


class TestAcyclic:
    def test_rejects_cycle(self):
        with pytest.raises(PreconditionError):
            dicut_acyclic(Digraph(3, [(0, 1), (1, 2), (2, 0)]), 1)

    def test_rejects_non_member(self):
        # acyclic, but vertex 2 has in- and out-degree 2
        D = Digraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        with pytest.raises(PreconditionError):
            dicut_acyclic(D, 1)

    def test_transitive3(self):
        cert = dicut_acyclic(transitive(3), 1)
        assert cert.size >= 1
        assert oracle.max_dicut_exact(transitive(3)).size == 2

    def test_transitive5(self):
        cert = dicut_acyclic(transitive(5), 2)
        assert cert.size >= 3
        assert oracle.max_dicut_exact(transitive(5)).size == 6

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random(self, k):
        rng = random.Random(10 + k)
        for _ in range(30):
            D = gen_random_family("acyclic-dkk", rng.randint(4, 40), k,
                                  rng.randrange(1 << 30))
            cert = dicut_acyclic(D, k)
            cert.verify(D)
            assert (4 * k + 2) * cert.size >= (k + 1) * D.m

    def test_one_certificate_per_run(self, monkeypatch):
        # the cut is built once, with the bound it is checked to meet
        for D, k in ((transitive(5), 2), (transitive(3), 1)):
            assert certificates_built(monkeypatch,
                                      lambda: dicut_acyclic(D, k)) == 1

    def test_missed_bound_is_a_bug(self, monkeypatch):
        # an empty side cuts nothing, below (k+1)m/(4k+2)
        monkeypatch.setattr(colorcut, "_leaving_side", lambda *_: set())
        with pytest.raises(AlgorithmBugError, match="misses its bound 3"):
            dicut_acyclic(transitive(5), 2)


class TestD22:
    def test_tournament5_exact(self):
        cert = dicut_d22(gen_regular_tournament(2))
        assert cert.size == 3

    def test_single_edge(self):
        assert dicut_d22(Digraph(2, [(0, 1)])).size == 1

    def test_rejects_outside_class(self):
        with pytest.raises(PreconditionError):
            dicut_d22(gen_regular_tournament(3))

    def test_peel_steps_recorded(self):
        # double tournament has plenty of X->Y cycles
        from dicuts.generators import gen_example2
        steps = []
        cert = dicut_d22(gen_example2(), steps)
        assert cert.size >= math.ceil(3 * 45 / 10)
        for s in steps:
            X_C, Y_C = {u for u, _ in s.kept}, {v for _, v in s.kept}
            assert len(s.kept) == len(X_C) + len(Y_C)
            assert not set(s.kept) & set(s.dropped)

    def test_class_checked_once(self, monkeypatch):
        # deleting edges keeps D in D(2,2): X = {v : d-(v) <= 2} at each step
        D = dense_d22(20, 1)
        calls = []
        monkeypatch.setattr(colorcut, "class_partition",
                            lambda *a: calls.append(a) or class_partition(*a))
        steps = []
        dicut_d22(D, steps).verify(D)
        assert len(steps) > 1 and len(calls) == 1

    def test_banked_set_checked_once(self, monkeypatch):
        calls = []
        check = digraph._cut_of
        counted = lambda H, *args: calls.append(H) or check(H, *args)
        monkeypatch.setattr(digraph, "_cut_of", counted)
        monkeypatch.setattr(colorcut, "_cut_of", counted)
        for D in (dense_d22(20, 1), gen_regular_tournament(2)):
            calls.clear()
            dicut_d22(D).verify(D)
            assert calls == [D]

    def test_one_certificate_per_run(self, monkeypatch):
        for D in (dense_d22(20, 1), gen_regular_tournament(2)):
            assert certificates_built(monkeypatch, lambda: dicut_d22(D)) == 1

    def test_banked_p3_is_a_bug(self, monkeypatch):
        D = dense_d22(20, 1)
        a, b = next((e, f) for e in D.edges for f in D.edges if e[1] == f[0])
        monkeypatch.setattr(colorcut, "_d22_p3free", lambda *_: {a, b})
        with pytest.raises(AlgorithmBugError):
            dicut_d22(D)

    def test_banked_foreign_edge_is_a_bug(self, monkeypatch):
        # a tail outside D leaves its edge outside the cut as well
        D = dense_d22(20, 1)
        e = next((u, v) for u in D.vertices for v in D.vertices
                 if u != v and (u, v) not in D.edge_set)
        for banked in ({e}, {(D.n, 0)}):
            monkeypatch.setattr(colorcut, "_d22_p3free", lambda *_: banked)
            with pytest.raises(AlgorithmBugError,
                               match="banked edges outside"):
                dicut_d22(D)

    def test_missed_bound_is_a_bug(self, monkeypatch):
        monkeypatch.setattr(colorcut, "cut_from_banked",
                            lambda D, S, bound: digraph.cut_from_banked(
                                D, (), bound))
        with pytest.raises(AlgorithmBugError, match="misses its bound 3"):
            dicut_d22(gen_regular_tournament(2))

    def test_random_with_digons(self):
        rng = random.Random(12)
        for _ in range(80):
            n = rng.randint(3, 12)
            edges = set()
            for _ in range(3 * n):
                u, v = rng.sample(range(n), 2)
                if (u, v) in edges:
                    continue
                edges.add((u, v))
                D = Digraph(n, edges)
                if any(D.in_deg(x) > 2 and D.out_deg(x) > 2
                       for x in range(n)):
                    edges.discard((u, v))
            D = Digraph(n, edges)
            cert = dicut_d22(D)
            cert.verify(D)
            assert 10 * cert.size >= 3 * D.m

    def test_same_steps_as_rebuilding_every_step(self):
        rng = random.Random(13)
        joined = 0
        for i in range(200):
            if i % 4 == 3:
                D = dense_d22(rng.randrange(8, 40, 2), rng.randrange(1 << 30))
            else:
                D = random_d22(rng, rng.randint(4, 30), digons=i % 2 == 0)
            banked, want, mid_run = d22_rebuilding(D)
            steps = []
            assert colorcut._d22_p3free(D, steps) == banked
            assert steps == want
            # untraced, a step lists no E_C and must bank the same
            assert colorcut._d22_p3free(D, None) == banked
            joined += mid_run
        assert joined >= 100

    def test_every_cycle_search_same_as_reference(self, monkeypatch):
        # F's lists as d22 keeps them, step by step, where the finder
        # mostly reads its 4-cycle in closed form
        find = colorcut.shortest_bipartite_cycle
        searches = []

        def checked(adj, start):
            cyc = find(adj, start)
            assert cyc == shortest_cycle_reference(adj, range(start, len(adj)))
            searches.append(cyc)
            return cyc

        monkeypatch.setattr(colorcut, "shortest_bipartite_cycle", checked)
        colorcut._d22_p3free(dense_d22(240, 1), None)
        assert len(searches) == 1766 and searches[-1] is None

    def test_many_cycle_steps_need_no_recursion(self):
        D = dense_d22(80, 1)
        steps = []
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            cert = dicut_d22(D, steps)
        finally:
            sys.setrecursionlimit(limit)
        assert len(steps) > 150
        cert.verify(D)
        assert 10 * cert.size >= 3 * D.m
