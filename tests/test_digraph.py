import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dicuts import digraph
from dicuts.digraph import (
    AlgorithmBugError,
    Digraph,
    InputError,
    PreconditionError,
    ResourceLimitError,
    WorkGraph,
    class_partition,
    cut_from_banked,
    cut_from_partition,
    extend_p3free_to_cut,
    format_dg,
    is_p3_free,
    parse_dg,
    shortest_bipartite_cycle,
)
from reference import (_gamma_instance, contraction_of, pieces_reference,
                       shortest_cycle_reference)


def small_digraphs(max_n=6, max_edges=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=max_edges)) if pairs else []
        return Digraph(n, edges)
    return build()


@st.composite
def deletion_runs(draw):
    """A digraph on at most 12 vertices, digons allowed, and its edges in a
    drawn order, cut into batches to delete one after another."""
    D = draw(small_digraphs(max_n=12, max_edges=40))
    order = draw(st.permutations(D.edges))
    cuts = sorted(draw(st.lists(st.integers(0, len(order)), max_size=6)))
    ends = [0, *cuts, len(order)]
    return D, [order[a:b] for a, b in zip(ends, ends[1:])]


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(InputError):
            Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Digraph(2, [(0, 2)])

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Digraph(3, [(0, 1), (0, 1)])

    def test_digon_is_representable(self):
        D = Digraph(2, [(0, 1), (1, 0)])
        assert D.has_digon()

    def test_rejects_float_vertex_id(self):
        with pytest.raises(InputError):
            Digraph(3, [(1.9, 2)])

    def test_rejects_string_vertex_ids(self):
        with pytest.raises(InputError):
            Digraph(3, [("1", "2")])

    def test_rejects_float_vertex_count(self):
        with pytest.raises(InputError):
            Digraph(2.5, [])

    def test_rejects_edges_that_are_not_pairs(self):
        with pytest.raises(InputError):
            Digraph(3, [1, 2])

    def test_bool_ids_are_ints(self):
        D = Digraph(True + 1, [(True, False)])
        assert D.n == 2 and D.edges == ((1, 0),)
        assert type(D.n) is int and type(D.edges[0][0]) is int

    def test_edges_sorted(self):
        D = Digraph(3, [(2, 1), (0, 2), (0, 1)])
        assert D.edges == ((0, 1), (0, 2), (2, 1))


class TestFormat:
    def test_roundtrip(self):
        D = Digraph(4, [(0, 1), (2, 3), (3, 0)])
        assert parse_dg(format_dg(D, "note")).edges == D.edges

    def test_header_mismatch(self):
        with pytest.raises(InputError):
            parse_dg("2 2\n0 1\n")

    def test_comments_and_blanks(self):
        D = parse_dg("# hi\n\n3 1\n# mid\n0 2\n")
        assert D.n == 3 and D.edges == ((0, 2),)

    def test_bad_tokens(self):
        with pytest.raises(InputError):
            parse_dg("2 1\n0 x\n")
        with pytest.raises(InputError):
            parse_dg("")

    # (text, (n, edges) it parses to, or the error class and exact message)
    PARSED = [
        ("3 2\r\n0 1\r\n1 2\r\n", (3, ((0, 1), (1, 2)))),
        ("3 1\r0 1\r", (3, ((0, 1),))),
        ("3 2\n0\t1\n1\t 2\n", (3, ((0, 1), (1, 2)))),
        ("3\t2\n0\xa01\n1\u20032\n", (3, ((0, 1), (1, 2)))),
        ("3 2\n\n0 1\n\n1 2\n\n", (3, ((0, 1), (1, 2)))),
        ("  3 1  \n\t0 1\t\n", (3, ((0, 1),))),
        ("3 1\n0 1\x0c\n", (3, ((0, 1),))),
        ("# a\n\n3 2\n0 1\n\n# mid\n  \n #indented\n1 2\n# end",
         (3, ((0, 1), (1, 2)))),
        ("3 1\n#0 1\n0 1\n", (3, ((0, 1),))),
        ("3 2\n1 2\n0 1\n", (3, ((0, 1), (1, 2)))),
        ("3 1\n+1 2\n", (3, ((1, 2),))),
        ("11 1\n1_0 2\n", (11, ((10, 2),))),
        ("3 1\n0 \u0661\n", (3, ((0, 1),))),
        ("+3 +0\n", (3, ())),
        ("3 1\n-1 2\n", (InputError, "edge (-1, 2) out of range for n=3")),
        ("3 1\n0 3\n", (InputError, "edge (0, 3) out of range for n=3")),
        ("3 2\n2 2\n0 5\n", (InputError, "edge (0, 5) out of range for n=3")),
        ("3 2\n0 1\n1 1\n", (InputError, "loop at vertex 1")),
        ("3 2\n0 1\n0 1\n", (InputError, "duplicate edge (0, 1)")),
        ("3 1\n0\n", (InputError, "bad edge line: '0'")),
        ("3 1\n0 1 2\n", (InputError, "bad edge line: '0 1 2'")),
        ("3 1\n0 2 # note\n", (InputError, "bad edge line: '0 2 # note'")),
        ("3 3\n0 1\n1 x\n2 y\n", (InputError, "bad edge line: '1 x'")),
        ("3 2\n0 1\n1 2.0\n", (InputError, "bad edge line: '1 2.0'")),
        ("3 2\n0 1\n1 2 \n", (3, ((0, 1), (1, 2)))),
        ("1000000000 1\n0 x\n", (InputError, "bad edge line: '0 x'")),
        ("1000000000 1\n0 1\n",
         (ResourceLimitError, "more than 1048576 vertices")),
        ("1_000_000_000 0\n",
         (ResourceLimitError, "more than 1048576 vertices")),
        ("-1 0\n", (InputError, "vertex count must be non-negative")),
        ("", (InputError, "empty .dg input")),
        ("# only\n\n", (InputError, "empty .dg input")),
        ("3", (InputError, "header must be 'n m'")),
        ("3 1 1", (InputError, "header must be 'n m'")),
        ("a 1\n0 1\n", (InputError, "non-numeric header")),
        ("3 x\n", (InputError, "non-numeric header")),
        ("3.0 0\n", (InputError, "non-numeric header")),
        ("3 2\n0 1\n", (InputError, "expected 2 edge lines, found 1")),
        ("3 0\n0 1\n", (InputError, "expected 0 edge lines, found 1")),
        ("3 1\n0 1\x1c2\n", (InputError, "expected 1 edge lines, found 2")),
    ]

    @pytest.mark.parametrize("text, want", PARSED)
    def test_accepted_forms_and_exact_messages(self, text, want):
        if isinstance(want[0], int):
            D = parse_dg(text)
            assert (D.n, D.edges) == want
            assert all(type(x) is int for e in D.edges for x in e)
            return
        error, message = want
        with pytest.raises(error) as info:
            parse_dg(text)
        assert type(info.value) is error and str(info.value) == message

    def test_header_vertex_bomb(self):
        # every per-vertex structure would be sized by this header
        with pytest.raises(ResourceLimitError):
            parse_dg("1000000000 0")
        n = digraph.MAX_VERTICES
        assert parse_dg(f"{n} 1\n0 1\n").n == n


class TestClassPartition:
    def test_two_sided_vertices_go_to_x(self):
        # a vertex satisfying both bounds is placed on the X side
        D = Digraph(2, [(0, 1)])
        part = class_partition(D, 1, 1)
        assert part.X == (0, 1) and part.Y == ()

    def test_membership_absence_matches_degree_scan(self):
        D = Digraph(4, [(0, 3), (1, 3), (3, 0), (3, 1)])  # d-(3)=d+(3)=2
        assert class_partition(D, 1, 1) is None
        assert class_partition(D, 2, 1) is not None

    @given(small_digraphs(), st.integers(0, 3), st.integers(0, 3))
    def test_absence_iff_violating_vertex(self, D, k, ell):
        part = class_partition(D, k, ell)
        violator = any(D.in_deg(v) > k and D.out_deg(v) > ell
                       for v in range(D.n))
        assert (part is None) == violator


class TestP3AndCuts:
    def test_p3_detected(self):
        D = Digraph(3, [(0, 1), (1, 2)])
        assert not is_p3_free(D, D.edges)
        assert is_p3_free(D, [(0, 1)])

    def test_digon_is_not_a_p3(self):
        D = Digraph(2, [(0, 1), (1, 0)])
        assert is_p3_free(D, D.edges)

    @given(small_digraphs(), st.sets(st.integers(0, 5)))
    def test_cut_from_partition_is_p3_free(self, D, X):
        X = {v for v in X if v < D.n}
        cert = cut_from_partition(D, X)
        cert.verify(D)
        assert is_p3_free(D, cert.cut_edges)

    def test_a_cut_carries_the_bound_it_met(self):
        # a bare cut carries bound 0; a banked set's cut carries the bound
        # it was checked to meet, and is equal to the bare cut of its
        # tails, since the bound takes no part in equality
        D = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        c = cut_from_partition(D, [0])
        assert c.size == 2 and c.bound == 0
        met = cut_from_banked(D, [(0, 1)], Fraction(3, 2))
        assert met == c and met.bound == Fraction(3, 2)
        assert (met.X, met.Y, met.cut_edges) == (c.X, c.Y, c.cut_edges)
        assert cut_from_banked(D, [(0, 1)], Fraction(2)).bound == 2
        with pytest.raises(AlgorithmBugError,
                           match=r"cut of 2 misses its bound 5/2"):
            cut_from_banked(D, [(0, 1)], Fraction(5, 2))

    @pytest.mark.parametrize("tamper, message", [
        (lambda c: replace(c, Y=c.Y[1:]), "do not partition"),
        (lambda c: replace(c, X=c.X + c.Y[:1]), "do not partition"),
        (lambda c: replace(c, cut_edges=((0, 1), (1, 2))), "stored cut"),
        (lambda c: replace(c, size=c.size + 1), "stored cut"),
        (lambda c: replace(c, bound=Fraction(c.size + 1)),
         "cut of 2 misses its bound 3"),
    ], ids=["not-a-partition", "overlapping-X-and-Y", "other-cut-edges",
            "wrong-size", "bound-above-size"])
    def test_verify_refuses_a_tampered_certificate(self, tamper, message):
        D = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        cert = cut_from_partition(D, [0])
        assert cert.cut_edges == ((0, 1), (0, 2))
        cert.verify(D)
        with pytest.raises(AlgorithmBugError, match=message):
            tamper(cert).verify(D)

    @given(small_digraphs())
    def test_extend_keeps_the_set(self, D):
        # a single edge is always P3-free; extension must contain it
        for e in D.edges[:3]:
            cert = extend_p3free_to_cut(D, [e])
            assert e in cert.cut_edges

    def test_extend_rejects_digon(self):
        # P3-free, as a digon is no P3, yet no cut holds both its edges
        D = Digraph(2, [(0, 1), (1, 0)])
        with pytest.raises(PreconditionError, match="digon"):
            extend_p3free_to_cut(D, D.edges)

    def test_extend_rejects_p3(self):
        D = Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError):
            extend_p3free_to_cut(D, D.edges)


class TestStructure:
    def test_triangle_listing(self):
        D = Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert D.triangles() == [(0, 1, 2)]
        D = Digraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        assert D.triangles() == [(0, 1, 2)]
        assert D.weak_components() == [[0, 1, 2], [3, 4]]
        assert not D.has_digon()

    @pytest.mark.parametrize("pendants", [False, True])
    def test_triangle_listing_scans_shorter_side(self, pendants):
        # double star: sources -> b -> c -> sinks, b and c the highest ids.
        # Each source closes its path a->b->c in pred[a], empty or, with a
        # pendant in-edge at every source, of length 1; not in the 2 000
        # sinks of succ[c]
        scanned = [0]

        class Counted(tuple):
            def __contains__(self, x):
                scanned[0] += len(self)
                return tuple.__contains__(self, x)

        k = 2000
        b, c = 2 * k, 2 * k + 1
        edges = [(a, b) for a in range(k)] + [(b, c)] \
            + [(c, d) for d in range(k, 2 * k)]
        if pendants:
            edges += [(2 * k + 2 + a, a) for a in range(k)]
        n = 2 * k + 2 + pendants * k
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for u, v in edges:
            succ[u].append(v)
            pred[v].append(u)
        P = digraph.Piece(list(range(n)), [Counted(sorted(s)) for s in succ],
                          [Counted(sorted(p)) for p in pred], len(edges))
        assert list(P.triangles()) == []
        assert scanned[0] <= 4 * len(edges)

    @given(small_digraphs(max_n=9, max_edges=30))
    def test_reads_match_brute_force(self, D):
        es = D.edge_set
        tris = [(a, b, c) for a, b, c in itertools.permutations(D.vertices, 3)
                if a < b and a < c and {(a, b), (b, c), (c, a)} <= es]
        assert D.triangles() == tris
        root = list(D.vertices)

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for u, v in D.edges:
            root[find(u)] = find(v)
        comps: dict[int, list[int]] = {}
        for v in D.vertices:
            comps.setdefault(find(v), []).append(v)
        comps = sorted(comps.values())
        assert D.weak_components() == comps
        pieces = WorkGraph(D).pieces(D.vertices)
        assert [P.vertices for P in pieces] == [c for c in comps if len(c) > 1]
        for P in pieces:
            inside = set(P.vertices)
            edges = [(u, w) for u in P.vertices for w in P.succ[u]]
            assert edges == [e for e in D.edges if e[0] in inside]
            assert P.m == len(edges)
            assert list(P.triangles()) == [t for t in tris if t[0] in inside]

    def test_workgraph_refuses_a_missing_edge(self):
        W = WorkGraph(Digraph(3, [(0, 1), (1, 2)]))
        W.delete([(0, 1)])
        with pytest.raises(AlgorithmBugError, match="not in the working"):
            W.delete([(0, 1)])
        # a batch whose last edge is missing (the reverse of one that is
        # there), and a batch that names one edge twice: the refusal comes
        # before either side of the bad edge is touched, so no edge is left
        # in one endpoint's list only
        D = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
        for batch in ([(0, 1), (2, 3), (2, 1)], [(1, 2), (3, 1), (1, 2)]):
            W = WorkGraph(D)
            with pytest.raises(AlgorithmBugError, match="not in the working"):
                W.delete(batch)
            for u, v in itertools.product(D.vertices, repeat=2):
                assert (v in W.succ[u]) == (u in W.pred[v])

    @settings(max_examples=300, deadline=None)
    @given(deletion_runs())
    def test_pieces_under_deletion_match_the_reference(self, run):
        # one WorkGraph through every batch, so its walks run under many
        # epochs; after each batch, its pieces of all vertices and of every
        # earlier piece's vertices are the set-and-stack walk's
        D, batches = run
        W = WorkGraph(D)
        left = set(D.edges)
        earlier = [list(D.vertices)]
        for batch in batches:
            W.delete(batch)
            left.difference_update(batch)
            for v in D.vertices:
                assert W.succ[v] == sorted(w for u, w in left if u == v)
                assert W.pred[v] == sorted(u for u, w in left if w == v)
            for vertices in earlier:
                got = W.pieces(vertices)
                want = pieces_reference(W.succ, W.pred, vertices)
                assert ([(P.vertices, P.m) for P in got]
                        == [(P.vertices, P.m) for P in want])
            earlier += [P.vertices for P in W.pieces(D.vertices)]

    def test_acyclic(self):
        assert Digraph(3, [(0, 1), (0, 2), (1, 2)]).is_acyclic()
        assert not Digraph(3, [(0, 1), (1, 2), (2, 0)]).is_acyclic()


class TestShortestBipartiteCycle:
    def test_same_as_reference_on_random_bipartite_graphs(self):
        # a random forest across two sides whose labels interleave, plus a
        # few chords across: forests and shortest cycles of many lengths
        rng = random.Random(20)
        lengths = Counter()
        for _ in range(1000):
            n = rng.randint(2, 40)
            side = [rng.random() < 0.5 for _ in range(n)]
            adj = [set() for _ in range(n)]
            order = rng.sample(range(n), n)
            for i, v in enumerate(order):
                others = [u for u in order[:i] if side[u] != side[v]]
                if others and rng.random() < 0.9:
                    u = rng.choice(others)
                    adj[u].add(v)
                    adj[v].add(u)
            for _ in range(rng.choice([0, 1, 1, 2])):
                u = rng.randrange(n)
                across = [v for v in range(n) if side[v] != side[u]]
                if across:
                    v = rng.choice(across)
                    adj[u].add(v)
                    adj[v].add(u)
            want = shortest_cycle_reference(adj, range(n))
            assert shortest_bipartite_cycle([sorted(a) for a in adj]) == want
            lengths[len(want) if want else None] += 1
        assert all(lengths[k] >= 20 for k in (None, 4, 6, 8)), lengths

    def test_same_as_reference_on_gamma_contraction(self):
        # M of the gamma-cycle pattern instance: tuple nodes, plus before
        # minus, for the reference; plus-cycle i as i and minus-cycle j as
        # P + j for the finder
        plus_cycles, minus_cycles, between = contraction_of(_gamma_instance())
        P = len(plus_cycles)
        tuples = {nd: set() for nd in [("+", i) for i in range(P)]
                  + [("-", j) for j in range(len(minus_cycles))]}
        ints = [set() for _ in tuples]
        for i, j in between:
            tuples[("+", i)].add(("-", j))
            tuples[("-", j)].add(("+", i))
            ints[i].add(P + j)
            ints[P + j].add(i)
        want = shortest_cycle_reference(tuples, list(tuples))
        assert len(want) == 4
        assert shortest_bipartite_cycle([sorted(a) for a in ints]) == [
            i if sign == "+" else P + i for sign, i in want]

    def test_same_as_reference_on_dense_random_graphs(self, monkeypatch):
        # dense draws reach the closed-form 4-cycle from a first node of
        # degree 2 or more and from a leaf, and sparse ones fall back to
        # the BFS; every start up to the first node with a neighbour agrees
        rng = random.Random(22)
        bfs_runs = []
        bfs = digraph._bfs_cycle

        def counted(*args):
            bfs_runs.append(None)
            return bfs(*args)

        monkeypatch.setattr(digraph, "_bfs_cycle", counted)
        cases = Counter()
        for _ in range(600):
            lead, n = rng.randint(0, 3), rng.randint(4, 16)
            side = [rng.random() < 0.5 for _ in range(n)]
            p = rng.uniform(0.1, 0.7)
            adj = [set() for _ in range(lead + n)]
            for u, v in itertools.combinations(range(n), 2):
                if side[u] != side[v] and rng.random() < p:
                    adj[lead + u].add(lead + v)
                    adj[lead + v].add(lead + u)
            first = next((v for v, a in enumerate(adj) if a), len(adj))
            if first < len(adj) and rng.random() < 0.4:
                # keep only one edge at the first node: it becomes a leaf
                for u in sorted(adj[first])[1:]:
                    adj[first].discard(u)
                    adj[u].discard(first)
            lists = [sorted(a) for a in adj]
            want = shortest_cycle_reference(adj, range(len(adj)))
            for start in range(first + 1):
                bfs_runs.clear()
                assert shortest_bipartite_cycle(lists, start) == want
            if first < len(lists):
                cases["bfs" if bfs_runs else
                      "leaf" if len(lists[first]) == 1 else "branch"] += 1
        assert all(cases[k] >= 50 for k in ("branch", "leaf", "bfs")), cases

    def test_start_past_empty_leading_nodes(self):
        # any start up to the first node with a neighbour skips only empty
        # nodes, so it finds the cycle that a scan from node 0 finds
        rng = random.Random(21)
        found = 0
        for _ in range(200):
            lead, n = rng.randint(1, 5), rng.randint(2, 20)
            adj = [set() for _ in range(lead + n)]
            for _ in range(rng.randint(1, 3 * n)):
                u, v = rng.sample(range(lead, lead + n), 2)
                if (u - v) % 2:  # even and odd ids are the two sides
                    adj[u].add(v)
                    adj[v].add(u)
            lists = [sorted(a) for a in adj]
            first = next((v for v, a in enumerate(lists) if a), len(lists))
            want = shortest_bipartite_cycle(lists)
            found += want is not None
            for start in range(first + 1):
                assert shortest_bipartite_cycle(lists, start) == want
        assert found >= 50, found

    def test_trees_on_the_lowest_ids_before_a_cycle(self):
        # stars and paths on the lowest ids, each walked by the BFS once,
        # then one component holding a 4-, 6- or 8-cycle with pendant
        # paths, or nothing more: a forest
        rng = random.Random(23)
        lengths = Counter()
        for _ in range(300):
            lead = rng.randint(0, 3)
            edges, nxt = [], lead
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(2, 6)
                ids = list(range(nxt, nxt + size))
                nxt += size
                if rng.random() < 0.5:  # a star on a random centre
                    c = rng.choice(ids)
                    edges += [(c, v) for v in ids if v != c]
                else:  # a path in shuffled order
                    rng.shuffle(ids)
                    edges += list(zip(ids, ids[1:]))
            length = rng.choice([None, 4, 6, 8])
            if length:
                ring = list(range(nxt, nxt + length))
                nxt += length
                edges += list(zip(ring, ring[1:] + ring[:1]))
                for _ in range(rng.randint(0, 3)):
                    edges.append((rng.randrange(ring[0], nxt), nxt))
                    nxt += 1
            adj = [set() for _ in range(nxt)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            lists = [sorted(a) for a in adj]
            want = shortest_cycle_reference(adj, range(nxt))
            assert (len(want) if want else None) == length
            lengths[length] += 1
            for start in range(lead + 1):
                assert shortest_bipartite_cycle(lists, start) == want
        assert all(lengths[k] >= 50 for k in (None, 4, 6, 8)), lengths

    @pytest.mark.parametrize("t, scans", [(10, 201), (20, 401)])
    def test_each_tree_is_walked_once(self, t, scans):
        # 20 stars of t nodes: one scan of the first centre's list by the
        # closed form, then t per star; a BFS from every node of each star
        # would make 20 * t * t + 1
        count = [0]

        class Counted(list):
            def __iter__(self):
                count[0] += 1
                return super().__iter__()

        adj = []
        for c in range(0, 20 * t, t):
            adj.append(Counted(range(c + 1, c + t)))
            adj += [Counted([c]) for _ in range(t - 1)]
        assert shortest_bipartite_cycle(adj, 0) is None
        assert count[0] == scans
