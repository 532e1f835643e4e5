import random
from collections import defaultdict

import pytest

from dicuts.decompose import bipartite_edge_coloring, split_dkk
from dicuts.digraph import (
    Digraph,
    InputError,
    PreconditionError,
    class_partition,
)
from dicuts.generators import gen_random_family, gen_regular_tournament
from reference import random_dkk


def assert_proper(colors, edges, delta):
    assert len(colors) == len(edges)
    seen = defaultdict(set)
    for (u, v), c in zip(edges, colors):
        assert 1 <= c <= delta
        assert c not in seen[("l", u)]
        assert c not in seen[("r", v)]
        seen[("l", u)].add(c)
        seen[("r", v)].add(c)


class TestEdgeColoring:
    def test_matching_single_color(self):
        edges = [(0, 0), (1, 1), (2, 2)]
        assert bipartite_edge_coloring(3, 3, edges, 1) == [1, 1, 1]

    def test_c4_alternates(self):
        edges = [(0, 0), (0, 1), (1, 1), (1, 0)]
        col = bipartite_edge_coloring(2, 2, edges, 2)
        assert_proper(col, edges, 2)

    def test_k33_three_classes_of_three(self):
        edges = [(i, j) for i in range(3) for j in range(3)]
        col = bipartite_edge_coloring(3, 3, edges, 3)
        assert_proper(col, edges, 3)
        assert sorted(col.count(c) for c in (1, 2, 3)) == [3, 3, 3]

    def test_multigraph(self):
        edges = [(0, 0), (0, 0), (0, 1), (1, 0)]
        col = bipartite_edge_coloring(2, 2, edges, 3)
        assert_proper(col, edges, 3)

    def test_degree_over_delta_rejected(self):
        with pytest.raises(InputError):
            bipartite_edge_coloring(1, 2, [(0, 0), (0, 1)], 1)

    def test_random_multigraphs(self):
        rng = random.Random(1)
        for _ in range(150):
            ln, rn = rng.randint(1, 6), rng.randint(1, 6)
            edges = [(rng.randrange(ln), rng.randrange(rn))
                     for _ in range(rng.randint(0, 24))]
            dl, dr = defaultdict(int), defaultdict(int)
            for u, v in edges:
                dl[u] += 1
                dr[v] += 1
            delta = max([*dl.values(), *dr.values(), 1])
            if delta > 8:
                continue
            assert_proper(bipartite_edge_coloring(ln, rn, edges, delta),
                          edges, delta)


def check_split(D, p1, p2, **kw):
    res = split_dkk(D, p1, p2, **kw)
    assert res.D1.m + res.D2.m == D.m
    assert set(res.D1.edges) | set(res.D2.edges) == set(D.edges)
    assert not set(res.D1.edges) & set(res.D2.edges)
    for Dj, pj in ((res.D1, p1), (res.D2, p2)):
        assert class_partition(Dj, pj, pj) is not None
        # the stronger shared-witness bounds
        for x in res.X:
            assert Dj.in_deg(x) <= pj
        for y in res.Y:
            assert Dj.out_deg(y) <= pj
    return res


def split_by_counters(D, p1, p2, balance_f):
    """(D1, D2) edges of the split with each star filled edge by edge under
    two budget counters, on sets of X and Y."""
    part = class_partition(D, p1 + p2, p1 + p2)
    X, Y = set(part.X), set(part.Y)
    B = [e for e in D.edges if e[0] in Y and e[1] in X]
    F = [e for e in D.edges if e[0] in X and e[1] in Y]
    xi = {v: i for i, v in enumerate(sorted(X))}
    yi = {v: i for i, v in enumerate(sorted(Y))}
    colors = bipartite_edge_coloring(len(xi), len(yi),
                                     [(xi[v], yi[u]) for u, v in B], p1 + p2)
    e1 = {e for e, c in zip(B, colors) if c <= p1}
    e2 = set(B) - e1

    def fill(star):
        used1 = sum(1 for e in star if e in e1)
        used2 = sum(1 for e in star if e in e2)
        for e in star:
            if e in e1 or e in e2:
                continue
            if used1 < p1:
                e1.add(e)
                used1 += 1
            else:
                assert used2 < p2
                e2.add(e)
                used2 += 1

    for x in sorted(X):
        fill(D.in_edges(x))
    for y in sorted(Y):
        fill(D.out_edges(y))
    for i, e in enumerate(F):
        if balance_f:
            (e1 if i % 2 == 0 else e2).add(e)
        else:
            (e1 if p1 > 0 else e2).add(e)
    return tuple(sorted(e1)), tuple(sorted(e2))


class TestSplit:
    def test_same_parts_as_the_counter_fill(self):
        rng = random.Random(18)
        for i in range(240):
            p = rng.randint(0, 6)
            p1 = rng.randint(0, p)
            D = (random_dkk(rng, rng.randint(1, 14), p) if i % 2 else
                 gen_random_family("dkk", rng.randint(1, 30), p,
                                   rng.randrange(1 << 30)))
            part = class_partition(D, p, p)
            for balance_f in (False, True):
                res = split_dkk(D, p1, p - p1, balance_f)
                assert ((res.D1.edges, res.D2.edges)
                        == split_by_counters(D, p1, p - p1, balance_f))
                assert (res.X, res.Y) == (part.X, part.Y)

    def test_rejects_negative_part(self):
        with pytest.raises(PreconditionError):
            split_dkk(Digraph(2, [(0, 1)]), -1, 2)

    def test_tournament5(self):
        check_split(gen_regular_tournament(2), 1, 1)

    def test_zero_part(self):
        D = gen_random_family("dkk", 8, 1, seed=3)
        res = check_split(D, 1, 0)
        assert res.D2.m == 0 or class_partition(res.D2, 0, 0) is not None

    def test_rejects_outside_class(self):
        with pytest.raises(PreconditionError):
            split_dkk(gen_regular_tournament(3), 1, 1)

    def test_zero_zero_with_edges(self):
        # in D(0,0) every edge runs from a source in X to a sink in Y, so
        # nothing is edge-colored and every edge is an unconstrained X->Y edge
        D = Digraph(5, [(0, 3), (0, 4), (1, 3), (2, 4)])
        res = check_split(D, 0, 0)
        assert res.X == (0, 1, 2) and res.Y == (3, 4)
        assert res.D1.m == 0 and res.D2.edges == D.edges
        res = check_split(D, 0, 0, balance_f=True)
        assert res.D1.m == 2 and res.D2.m == 2

    def test_random(self):
        rng = random.Random(2)
        for p1, p2 in [(1, 1), (1, 2), (2, 2), (0, 2)]:
            for _ in range(25):
                D = gen_random_family("dkk", rng.randint(4, 20), p1 + p2,
                                      rng.randrange(1 << 30))
                check_split(D, p1, p2)
                check_split(D, p1, p2, balance_f=True)
