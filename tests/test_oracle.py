import inspect
import random
import sys
from itertools import chain

import pytest
from reference import triangle_chain

from dicuts import digraph, oracle
from dicuts.d11 import _books
from dicuts.digraph import (
    Digraph,
    InputError,
    PreconditionError,
    ResourceLimitError,
    is_p3_free,
)
from dicuts.enumeration import d22_with_digons, digonfree_d11
from dicuts.generators import (
    gen_example1,
    gen_random_family,
    gen_regular_tournament,
)


def triangle():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def max_dicut_by_flips(D):
    """The Gray-code search as first written, X as a flag list and each
    flip counted by generator sums: (X, size) of the maximizer with the
    smallest bitmask."""
    n = D.n
    in_x = [False] * n
    size = best_size = best_x = 0

    def flip(v):
        nonlocal size
        if in_x[v]:
            size -= sum(1 for w in D.succ[v] if not in_x[w])
            in_x[v] = False
            size += sum(1 for u in D.pred[v] if in_x[u])
        else:
            size -= sum(1 for u in D.pred[v] if in_x[u])
            in_x[v] = True
            size += sum(1 for w in D.succ[v] if not in_x[w])

    total = 1 << n
    for i in range(1, total + 1):
        x = sum(1 << v for v in range(n) if in_x[v])
        if size > best_size or (size == best_size and x < best_x):
            best_size = size
            best_x = x
        if i == total:
            break
        flip((i & -i).bit_length() - 1)
    return tuple(v for v in range(n) if best_x >> v & 1), best_size


def random_digraph(rng, n, p):
    return Digraph(n, [(u, v) for u in range(n) for v in range(n)
                       if u != v and rng.random() < p])


def seeded_draws():
    # densities from empty to complete, so ties of every kind occur
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(0, 10)
        yield random_digraph(rng, n, rng.random())


class TestMaxDicut:
    def test_triangle(self):
        cert = triangle()
        got = oracle.max_dicut_exact(cert)
        assert got.size == 1

    def test_tournament5(self):
        assert oracle.max_dicut_exact(gen_regular_tournament(2)).size == 3

    def test_example1(self):
        assert oracle.max_dicut_exact(gen_example1(1)).size == 4

    def test_smallest_mask_tie_break(self):
        for D, X in [
            # both {0} and {1} cut one edge of a digon; the smaller mask wins
            (Digraph(2, [(0, 1), (1, 0)]), (0,)),
            # {1} (mask 2) comes before {0, 1} (mask 3), though (0, 1) < (1,)
            (Digraph(3, [(1, 2)]), (1,)),
        ]:
            cert = oracle.max_dicut_exact(D)
            assert cert.size == 1 and cert.X == X

    def test_empty_graph(self):
        cert = oracle.max_dicut_exact(Digraph(3, []))
        assert cert.size == 0 and cert.X == ()

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            oracle.max_dicut_exact(Digraph(27, []))

    def test_same_certificate_as_flip_sums(self):
        for D in seeded_draws():
            cert = oracle.max_dicut_exact(D)
            cert.verify(D)
            assert (cert.X, cert.size) == max_dicut_by_flips(D)

    @pytest.mark.parametrize("width", [2, 3])
    def test_cross_block_tie_break(self, width, monkeypatch):
        # narrow blocks put most vertices high, so maximizers tie across
        # blocks with and without high vertices in X; no byte lanes, so
        # the draws with n <= 8 take the blocks too
        monkeypatch.setattr(oracle, "BLOCK_VERTICES", width)
        monkeypatch.setattr(oracle, "LANE_VERTICES", 0)
        for D in seeded_draws():
            cert = oracle.max_dicut_exact(D)
            cert.verify(D)
            assert (cert.X, cert.size) == max_dicut_by_flips(D)

    def test_byte_lanes_match_bit_slices(self, monkeypatch):
        # every small graph, digons included, and the two least-mask
        # ties: the byte lanes, the bit-sliced blocks and the flip search
        # give one (size, mask)
        rng = random.Random(43)
        graphs = list(chain(digonfree_d11(6), d22_with_digons(5)))
        graphs += [random_digraph(rng, n, rng.random())
                   for n in range(9) for _ in range(40)]
        graphs += [Digraph(2, [(0, 1), (1, 0)]), Digraph(3, [(1, 2)])]
        lanes = [oracle.max_dicut_mask(D.n, D.edges) for D in graphs]
        # 300 counts of one edge overflow a byte: this takes the blocks
        assert oracle.max_dicut_mask(2, [(0, 1)] * 300) == (300, 1)
        monkeypatch.setattr(oracle, "LANE_VERTICES", 0)
        for D, got in zip(graphs, lanes):
            X, size = max_dicut_by_flips(D)
            want = (size, sum(1 << v for v in X))
            assert got == oracle.max_dicut_mask(D.n, D.edges) == want, D

    @pytest.mark.parametrize("n, seed", [(17, 1), (18, 2)])
    def test_several_blocks_at_full_width(self, n, seed):
        D = random_digraph(random.Random(seed), n, 3 / n)
        cert = oracle.max_dicut_exact(D)
        cert.verify(D)
        assert (cert.X, cert.size) == max_dicut_by_flips(D)

    def test_matches_max_p3_free_on_small(self):
        # cut sizes and maximum P3-free subset sizes agree (both directions
        # of the correspondence)
        # digon-free only: a digon is P3-free but no cut contains both sides
        import itertools
        for n in (3, 4):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for take in itertools.combinations(pairs, 4):
                if any((v, u) in take for u, v in take):
                    continue
                D = Digraph(n, take)
                best_p3 = max(
                    (len(S) for r in range(len(take) + 1)
                     for S in itertools.combinations(take, r)
                     if is_p3_free(D, S)),
                    default=0)
                assert oracle.max_dicut_exact(D).size == best_p3


class TestTrianglePacking:
    def test_disjoint_triangles(self):
        e = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        assert oracle.max_triangle_packing(Digraph(6, e)) == 2

    def test_triangle_free(self):
        assert oracle.max_triangle_packing(Digraph(4, [(0, 1), (1, 2)])) == 0

    def test_example1(self):
        assert oracle.max_triangle_packing(gen_example1(1)) == 2

    def test_sharing_a_vertex(self):
        e = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
        assert oracle.max_triangle_packing(Digraph(5, e)) == 1

    def test_long_chain_needs_no_recursion(self):
        D = triangle_chain(1100)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            got = oracle.max_triangle_packing(D)
        finally:
            sys.setrecursionlimit(limit)
        assert got == 1100

    def test_work_budget(self, monkeypatch):
        D = gen_regular_tournament(7)  # n = 15: 276 288 search steps
        monkeypatch.setattr(oracle, "MAX_PACKING_STEPS", 100_000)
        with pytest.raises(ResourceLimitError):
            oracle.max_triangle_packing(D)

    def test_triangle_guard_stops_the_listing(self, monkeypatch):
        # n = 41: 2 870 triangles; the guard needs to see only one past it
        D = gen_regular_tournament(20)
        drawn = []
        listing = digraph._triangles

        def counted(*args):
            for tri in listing(*args):
                drawn.append(tri)
                yield tri

        for mod in (digraph, oracle):
            monkeypatch.setattr(mod, "_triangles", counted, raising=False)
        with pytest.raises(ResourceLimitError):
            oracle.max_triangle_packing(D)
        assert len(drawn) == oracle.MAX_PACKING_TRIANGLES + 1

    def test_disjoint_groups_packed_apart(self, monkeypatch):
        # one group per triangle: 3 steps each, where the search over the
        # whole set needs about t^2 / 2
        monkeypatch.setattr(oracle, "MAX_PACKING_STEPS", 10_000)
        assert oracle.max_triangle_packing(triangle_chain(1100)) == 1100

    def test_chain_bound_stays_exact_past_the_whole_set_budget(self):
        # the whole-set search exceeds MAX_PACKING_STEPS from t = 1 420 on;
        # the d11 bound counts books and searches nothing
        assert _books(triangle_chain(1450)) == 1450

    def test_same_as_whole_set_search(self):
        # one to three random blocks on shuffled labels, so the triangles
        # fall into one or several groups
        rng = random.Random(7)
        for _ in range(300):
            n, edges = 0, []
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(3, 7)
                p = rng.uniform(0.2, 0.6)
                edges += [(n + u, n + v) for u in range(size)
                          for v in range(size)
                          if u != v and rng.random() < p]
                n += size
            label = rng.sample(range(n), n)
            D = Digraph(n, [(label[u], label[v]) for u, v in edges])
            assert (oracle.max_triangle_packing(D)
                    == whole_set_packing(D.triangles()))


def whole_set_packing(tris):
    """The search over all triangles at once, without a step budget."""
    best = 0
    used, chosen, nxt = set(), [], [0]
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
        if len(chosen) + len(tris) - j > best:
            chosen.append(j)
            used.update(tris[j])
            nxt.append(j + 1)
    return best


def min_removal_reference(D, k):
    """The removal search in recursive form, one shared set with add and
    undo: the order the stack search must reproduce."""

    def violator(removed):
        for v in range(D.n):
            din = sum(1 for u in D.pred[v] if (u, v) not in removed)
            dout = sum(1 for w in D.succ[v] if (v, w) not in removed)
            if din > k - 1 and dout > k - 1:
                return v
        return None

    def search(removed, budget):
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


def cover_reference(D, c):
    """X of each cut of the cover search in recursive form, padded with
    empty cuts, or None."""
    n, edge_list = D.n, list(D.edges)
    all_masks = [sum(1 << i for i, (u, v) in enumerate(edge_list)
                     if x >> u & 1 and not x >> v & 1) for x in range(1 << n)]
    full = (1 << len(edge_list)) - 1
    chosen = []

    def rec(covered, depth):
        if covered == full:
            return True
        if depth == c:
            return False
        unc = ~covered & full
        u, v = edge_list[(unc & -unc).bit_length() - 1]
        for x in range(1 << n):
            if x >> u & 1 and not x >> v & 1:
                chosen.append(x)
                if rec(covered | all_masks[x], depth + 1):
                    return True
                chosen.pop()
        return False

    if not rec(0, 0):
        return None
    return [tuple(v for v in range(n) if x >> v & 1)
            for x in chosen + [0] * (c - len(chosen))]


class TestMinRemoval:
    def test_already_below(self):
        D = Digraph(3, [(0, 1), (0, 2)])
        assert oracle.min_removal_exact(D, 2) == frozenset()

    def test_triangle_needs_two(self):
        # removing one edge leaves a 2-path whose middle vertex has
        # in-degree 1 and out-degree 1, outside D(0,0)
        assert len(oracle.min_removal_exact(triangle(), 1)) == 2

    def test_tournament5(self):
        D = gen_regular_tournament(2)
        R = oracle.min_removal_exact(D, 2)
        assert len(R) == 3
        rest = D.without_edges(R)
        assert all(rest.in_deg(v) <= 1 or rest.out_deg(v) <= 1
                   for v in range(5))

    def test_declared_errors(self):
        with pytest.raises(PreconditionError):
            oracle.min_removal_exact(triangle(), 0)
        with pytest.raises(PreconditionError):
            oracle.min_removal_exact(gen_regular_tournament(2), 1)
        t = oracle.MAX_REMOVAL_EDGES // 3 + 1
        D = gen_random_family("disjoint-triangles", t)
        assert D.m > oracle.MAX_REMOVAL_EDGES
        with pytest.raises(ResourceLimitError):
            oracle.min_removal_exact(D, 1)

    def test_tournament7(self):
        assert len(oracle.min_removal_exact(gen_regular_tournament(3), 3)) == 4

    def test_same_as_recursive_search(self):
        # seeded D(k,k) draws, answers 0 to 6, and the tournaments T7, T9
        cases = [(gen_random_family("dkk", 1 + seed % 8, 1 + seed % 3, seed),
                  1 + seed % 3) for seed in range(300)]
        cases += [(gen_regular_tournament(k), k) for k in (3, 4)]
        for D, k in cases:
            assert oracle.min_removal_exact(D, k) == min_removal_reference(D, k)


class TestCutCover:
    def test_single_cut(self):
        D = Digraph(4, [(0, 2), (0, 3), (1, 3)])
        res = oracle.decompose_into_cuts(D, 1)
        assert res is not None and len(res) == 1
        assert set(res[0].cut_edges) == set(D.edges)

    def test_tournament_needs_four(self):
        T5 = gen_regular_tournament(2)
        assert oracle.decompose_into_cuts(T5, 3) is None
        res = oracle.decompose_into_cuts(T5, 4)
        assert res is not None
        covered = set()
        for c in res:
            c.verify(T5)
            covered |= set(c.cut_edges)
        assert covered == set(T5.edges)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            oracle.decompose_into_cuts(Digraph(11, []), 2)
        with pytest.raises(ResourceLimitError):
            oracle.decompose_into_cuts(Digraph(3, [(0, 1), (1, 2)]),
                                       oracle.MAX_COVER_CUTS + 1)

    def test_cut_count_below_one(self):
        T5 = gen_regular_tournament(2)
        with pytest.raises(InputError):
            oracle.decompose_into_cuts(T5, -1)
        assert oracle.decompose_into_cuts(T5, 0) is None
        assert oracle.decompose_into_cuts(Digraph(3, []), 0) == []

    def test_same_as_recursive_search(self):
        # seeded D(1,1) and D(2,2) draws, n 1-8, c 0-4, and T5 at c = 3, 4
        cases = [(gen_regular_tournament(2), 3), (gen_regular_tournament(2), 4)]
        for seed in range(200):
            rng = random.Random(seed)
            n, c, k = rng.randint(1, 8), rng.randint(0, 4), rng.randint(1, 2)
            cases.append((gen_random_family("dkk", n, k, seed), c))
        for D, c in cases:
            res = oracle.decompose_into_cuts(D, c)
            assert (None if res is None else [cut.X for cut in res]
                    ) == cover_reference(D, c)
