import collections
import hashlib
import inspect
import itertools
import math
import random
import re
import sys

import pytest

from dicuts import d11, digraph, oracle
from dicuts.d11 import (
    dicut_d11,
    dicut_d11_connected,
    find_reducing_pair,
    find_triangle_reduction,
    is_triangle_forest,
    validate_reducing_pair,
)
from dicuts.digraph import (
    AlgorithmBugError,
    Digraph,
    PreconditionError,
    Step,
    WorkGraph,
    class_partition,
    is_p3_free,
)
from dicuts.enumeration import digonfree_d11
from dicuts.generators import gen_example1, gen_random_family
from reference import (
    PATTERN_INSTANCES,
    _gamma_instance,
    book,
    certificates_built,
    contraction_of,
    double_star,
    forest_reference,
    leaf_in_minus_by_components,
    linked_cycles,
    reduction_by_pieces,
    triangle_chain,
    validate_by_edge_lists,
)


def random_triangle_tree(rng, t):
    """t directed triangles, each joined to an earlier one by a bridge in a
    random direction, on shuffled labels.  A vertex carries at most one
    bridge, so every vertex keeps in- or out-degree 1: a D(1,1) digraph."""
    edges, free = [], []
    for i in range(t):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (c, a)]
        if i:
            p = free.pop(rng.randrange(len(free)))
            q = rng.choice((a, b, c))
            edges.append((p, q) if rng.random() < 0.5 else (q, p))
            free += [v for v in (a, b, c) if v != q]
        else:
            free += [a, b, c]
    label = list(range(3 * t))
    rng.shuffle(label)
    return Digraph(3 * t, [(label[u], label[v]) for u, v in edges])


def random_bridged_tree(rng, t):
    """`random_triangle_tree`, but a bridge may end at any earlier vertex,
    so one vertex can carry several bridges.  They all point the way of
    its first one, which keeps the vertex's in- or out-degree at 1."""
    edges, outward = [], {}  # vertex -> its bridges leave it
    for i in range(t):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (c, a)]
        if i:
            p, q = rng.randrange(3 * i), rng.choice((a, b, c))
            out = outward.setdefault(p, rng.random() < 0.5)
            outward[q] = not out
            edges.append((p, q) if out else (q, p))
    label = list(range(3 * t))
    rng.shuffle(label)
    return Digraph(3 * t, [(label[u], label[v]) for u, v in edges])


def triangle_forests(t_max):
    """Every forest of 2 <= t <= t_max triangles (3i, 3i+1, 3i+2): each
    labelled tree on the triangles (by Pruefer sequence), each bridge with
    an end on each of its two triangles and a direction, where the result
    is in D(1,1), that is where no vertex is both a bridge tail and a
    bridge head."""
    for t in range(2, t_max + 1):
        for code in itertools.product(range(t), repeat=t - 2):
            degree = [1] * t
            for i in code:
                degree[i] += 1
            tree = []
            for i in code:
                leaf = degree.index(1)
                tree.append((leaf, i))
                degree[leaf] -= 1
                degree[i] -= 1
            tree.append(tuple(i for i in range(t) if degree[i] == 1))
            triangles = [e for i in range(t) for e in
                         ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2),
                          (3 * i + 2, 3 * i))]
            for ends in itertools.product(range(3), repeat=2 * (t - 1)):
                for flips in itertools.product((False, True), repeat=t - 1):
                    bridges = []
                    for (i, j), a, b, flip in zip(tree, ends[::2], ends[1::2],
                                                  flips):
                        u, v = 3 * i + a, 3 * j + b
                        bridges.append((v, u) if flip else (u, v))
                    D = Digraph(3 * t, triangles + bridges)
                    if class_partition(D, 1, 1) is not None:
                        yield D


def _cycles(lengths, first):
    """Directed cycles of the given lengths on the ids from `first` on:
    their vertices, their edges and the next free id."""
    vertices, edges = [], []
    for length in lengths:
        c = list(range(first, first + length))
        first += length
        vertices += c
        edges += zip(c, c[1:] + c[:1])
    return vertices, edges, first


def _relabelled(rng, n, edges):
    label = list(range(n))
    rng.shuffle(label)
    return Digraph(n, [(label[u], label[v]) for u, v in edges])


def cycle_structured(rng):
    """A D(1,1) digraph of the shape d11's late patterns read: directed
    cycles of D+ and of D-, in half the draws of odd lengths only (bar a
    last minus cycle that makes up a sum), plus-cycle vertices linked one
    to one to minus-cycle vertices, and on each cycle vertex left unlinked
    a V0 path of one or two vertices, out of a plus vertex or into a minus
    vertex.  In two draws of five both sides have as many vertices, so
    every cycle vertex is linked."""
    pool = rng.choice(((3, 4, 5, 6), (3, 5, 7)))
    plus = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    minus = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        minus, left = [], sum(plus)
        while left:
            length = rng.choice(pool)
            length = left if left - length < 3 else length
            minus.append(length)
            left -= length
    P, edges, n = _cycles(plus, 0)
    M, more, n = _cycles(minus, n)
    edges += more
    rng.shuffle(P)
    rng.shuffle(M)
    k = min(len(P), len(M))
    edges += zip(P, M)
    for u in P[k:]:  # u -> sink, or u -> y -> sink
        edges.append((u, n))
        n += 1
        if rng.random() < 0.5:
            edges.append((n - 1, n))
            n += 1
    for w in M[k:]:  # source -> w, or source -> y -> w
        edges.append((n, w))
        n += 1
        if rng.random() < 0.5:
            edges.append((n, n - 1))
            n += 1
    return _relabelled(rng, n, edges)


def odd_cycles_simple_links(rng):
    """A D(1,1) digraph of odd cycles of D+ and of D- where every cycle
    vertex has one link and two cycles share at most one: no earlier
    pattern applies, and the contraction graph M is simple with minimum
    degree 3, so the first step is the gamma-cycle's."""
    while True:
        p, q = rng.randint(3, 6), rng.randint(3, 6)
        plus = [rng.randrange(3, q + 1, 2) for _ in range(p)]
        minus = [rng.randrange(3, p + 1, 2) for _ in range(q)]
        if sum(plus) != sum(minus):
            continue
        # Ryser: each plus cycle links to the minus cycles with most room
        room, links = list(minus), []
        for i, d in enumerate(plus):
            js = sorted(range(q), key=lambda j: (-room[j], rng.random()))[:d]
            if room[js[-1]] == 0:
                break
            for j in js:
                room[j] -= 1
                links.append((i, j))
        else:
            break
    _, edges, n = _cycles(plus, 0)
    _, more, n = _cycles(minus, n)
    edges += more
    starts = [sum(plus[:i]) for i in range(p)]
    starts += [sum(plus) + sum(minus[:j]) for j in range(q)]
    slots = [rng.sample(range(s, s + length), length)
             for s, length in zip(starts, plus + minus)]
    edges += [(slots[i].pop(), slots[p + j].pop()) for i, j in links]
    return _relabelled(rng, n, edges)


def reduction_rebuilding(D):
    """d11's reduction loop built from `Digraph`s: a new digraph of what
    each step leaves, where every component of at most 6 edges goes to the
    oracle relabelled onto 0..n-1, the triangle and leaf steps are looked
    for on the whole of the rest, and the other patterns on its component
    of least vertex, relabelled.  The base steps come first by least
    vertex, then after each step in the order of the ends of its edges,
    or by least vertex once at most 6 edges are left.  Returns K and the
    trace."""
    def relabelled(H, c):
        new = {v: i for i, v in enumerate(c)}
        return Digraph(len(c), [(new[u], new[v]) for u, v in H.edges
                                if u in new])

    def relabel(es, c):
        return tuple(sorted((c[u], c[v]) for u, v in es))

    def base(H, c):
        Hc = relabelled(H, c)
        A = oracle.max_dicut_exact(Hc).cut_edges
        return Step("oracle-base", relabel(A, c),
                    relabel(set(Hc.edges) - set(A), c))

    def small(H, order):
        """The components of at most 6 edges among `order`'s, each once."""
        size = collections.Counter(comp[u] for u, _ in H.edges)
        out = []
        for c in map(tuple, order):
            if size[c] <= 6 and c not in out:
                out.append(c)
        return out

    K, trace = set(), []
    H, ends = D, None
    while H.m:
        comps = [c for c in H.weak_components() if len(c) > 1]
        comp = {v: tuple(c) for c in comps for v in c}
        if ends is None or H.m <= 6:
            order = comps
        else:
            order = [comp[v] for e in ends for v in e if v in comp]
        gone = []
        for c in small(H, order):
            step = base(H, c)
            K.update(step.kept)
            trace.append(step)
            gone += step.kept + step.dropped
        H = H.without_edges(gone)
        if not H.m:
            break
        step = (find_triangle_reduction(H) or d11._leaf_in_minus(H)[0]
                or d11._reverse_pair(d11._leaf_in_minus(H.reverse())[0],
                                     "leaf-in-plus"))
        if step is None:
            c = next(c for c in H.weak_components() if len(c) > 1)
            tag, A, B = find_reducing_pair(relabelled(H, c))
            step = Step(tag, relabel(A, c), relabel(B, c))
        K.update(step.kept)
        trace.append(step)
        ends = step.kept + step.dropped
        H = H.without_edges(ends)
    return K, trace


def run_seeded_draws(seed):
    """d11, and d11c where it applies, on seeded random D(1,1) digraphs,
    triangle trees and Example 1 chains, each cut verified."""
    rng = random.Random(seed)
    graphs = [gen_random_family("d11", rng.randint(8, 160), 1,
                                rng.randrange(1 << 30)) for _ in range(30)]
    graphs += [random_triangle_tree(rng, rng.randint(2, 30))
               for _ in range(15)]
    for D in graphs + [gen_example1(k) for k in (1, 2, 4, 7)]:
        for method in (dicut_d11, dicut_d11_connected):
            try:
                method(D).verify(D)
            except PreconditionError:  # d11c: disconnected
                continue


def bound_ok(D, cert):
    t = oracle.max_triangle_packing(D)
    return cert.size >= math.ceil((2 * D.m - t) / 5)


class TestPreconditions:
    def test_rejects_digon(self):
        with pytest.raises(PreconditionError):
            dicut_d11(Digraph(2, [(0, 1), (1, 0)]))

    def test_rejects_outside_class(self):
        D = Digraph(4, [(0, 3), (1, 3), (3, 1), (3, 2)])
        with pytest.raises(PreconditionError):
            dicut_d11(D)


    def test_class_checked_once(self, monkeypatch):
        # pieces inherit digon-freeness and D(1,1) from the input
        D = gen_example1(3)
        calls = []
        has_digon = Digraph.has_digon
        monkeypatch.setattr(Digraph, "has_digon",
                            lambda H: calls.append("digon") or has_digon(H))
        monkeypatch.setattr(d11, "class_partition",
                            lambda *a: calls.append("class")
                            or class_partition(*a))
        dicut_d11(D).verify(D)
        assert sorted(calls) == ["class", "digon"]

    @pytest.mark.parametrize("method", [dicut_d11, dicut_d11_connected])
    def test_banked_set_checked_once(self, method, monkeypatch):
        # the certificate's one P3 check is cut_from_banked's cut of the
        # banked tails; the pattern validations run on pieces, never on D
        calls = []
        check = digraph._cut_of
        counted = lambda H, *args: calls.append(H) or check(H, *args)
        monkeypatch.setattr(digraph, "_cut_of", counted)
        for D in [gen_example1(3), triangle_chain(4)] + \
                [PATTERN_INSTANCES[tag] for tag in sorted(PATTERN_INSTANCES)
                 if method is dicut_d11]:
            calls.clear()
            method(D).verify(D)
            assert sum(H is D for H in calls) == 1

    @pytest.mark.parametrize("method", [dicut_d11, dicut_d11_connected])
    def test_one_certificate_per_run(self, method, monkeypatch):
        # the cut is built once, with the bound it is checked to meet
        for D in (gen_example1(3), triangle_chain(4)):
            assert certificates_built(monkeypatch, lambda: method(D)) == 1

    @pytest.mark.parametrize("method", [dicut_d11, dicut_d11_connected])
    def test_banked_p3_is_a_bug(self, method, monkeypatch):
        D = gen_example1(2)
        a, b = next((e, f) for e in D.edges for f in D.edges if e[1] == f[0])
        monkeypatch.setattr(d11, "_reduction_loop", lambda *_: {a, b})
        with pytest.raises(AlgorithmBugError):
            method(D)

    @pytest.mark.parametrize("method", [dicut_d11, dicut_d11_connected])
    def test_banked_foreign_edge_is_a_bug(self, method, monkeypatch):
        # its tail goes to X, and the edge is not in the cut X induces: a
        # tail outside D is an algorithm's bug too, never an input error
        D = gen_example1(2)
        for edge in ((0, 2), (D.n, 0)):
            assert edge not in D.edge_set
            monkeypatch.setattr(d11, "_reduction_loop", lambda *_: {edge})
            with pytest.raises(AlgorithmBugError, match=re.escape(str(edge))):
                method(D)

    @pytest.mark.parametrize("method", [dicut_d11, dicut_d11_connected])
    def test_missed_bound_is_a_bug(self, method, monkeypatch):
        # each entry checks its own theorem, (2m - t)/5 or 7m/20, on the
        # certificate it returns
        monkeypatch.setattr(d11, "cut_from_banked",
                            lambda D, K, bound: digraph.cut_from_banked(
                                D, (), bound))
        with pytest.raises(AlgorithmBugError, match="cut of 0 misses its bound"):
            method(gen_example1(3))


class TestMaxDisjointTriangles:
    def test_book_is_one(self):
        assert d11._books(book(2001)) == 1

    def test_same_as_packing_search(self):
        for D in digonfree_d11(6):
            assert d11._books(D) == oracle.max_triangle_packing(D)


class TestTriangleReduction:
    def test_finds_reducible_edge(self):
        # pendant triangle: the edge into the pendant tail qualifies
        D = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 0)])
        step = find_triangle_reduction(D)
        assert step == Step("triangle", ((2, 0),), ((0, 1), (1, 2)))
        ((x, y),) = step.kept
        assert D.in_deg(x) == 1 and D.out_deg(y) == 1

    def test_none_when_triangle_saturated(self):
        # every triangle vertex has out-degree 2: no edge qualifies
        e = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]
        assert find_triangle_reduction(Digraph(6, e)) is None

    def test_no_triangle_step_left_when_a_later_pattern_fires(
            self, monkeypatch):
        # the loop's triangle candidates hold every vertex that starts a
        # live triangle with an edge the step may keep, so when a leaf step
        # or a later pattern fires, no triangle of the working graph has one;
        # its leaf candidates hold every vertex where a leaf fires, so the
        # loop's searches past the leaves find none
        seen = collections.Counter()

        def checked(name):
            original = getattr(d11, name)

            def run(D, *args):
                vertices = range(len(D.succ))
                assert not any(d11._triangle_at(D, a) for a in vertices)
                live = digraph._triangles(vertices, D.succ, D.pred)
                seen[next(live, None) is not None] += 1
                step = original(D, *args)
                assert name == "_leaf_at" or "leaf" not in step.tag, step
                return step
            return run

        for name in ("_leaf_at", "find_reducing_pair"):
            monkeypatch.setattr(d11, name, checked(name))
        run_seeded_draws(43)
        rng = random.Random(43)
        for _ in range(100):  # their plus triangles never reduce
            D = cycle_structured(rng)
            dicut_d11(D).verify(D)
        assert seen[True] > 100 and seen[False] > 1000, seen

    def test_no_triangle_candidate_without_triangles(self, monkeypatch):
        # no vertex of a triangle-free digraph starts a triangle, so the
        # loop tests no triangle candidate; a triangle scan of every piece
        # it steps on would read the out-list of each vertex with an in-edge
        calls = []
        test = d11._triangle_at
        monkeypatch.setattr(d11, "_triangle_at",
                            lambda *args: calls.append(args) or test(*args))
        D = gen_random_family("d11-trianglefree", 1600, 1, 7)
        dicut_d11(D).verify(D)
        assert D.triangles() == [] and calls == []
        assert sum(1 for v in D.vertices if D.pred[v]) > 1000
        D = triangle_chain(30)
        dicut_d11(D).verify(D)
        assert calls


class TestReducingPairs:
    @pytest.mark.parametrize("tag", sorted(PATTERN_INSTANCES))
    def test_pattern_fires_and_validates(self, tag):
        D = PATTERN_INSTANCES[tag]
        rp = find_reducing_pair(D)
        assert rp.tag == tag
        validate_reducing_pair(D, rp.kept, rp.dropped, tag)  # idempotent re-check

    @pytest.mark.parametrize("tag", sorted(PATTERN_INSTANCES))
    def test_pattern_instance_meets_bound(self, tag):
        # each instance has more than 6 edges, so a full run takes its
        # pattern before any oracle step, and the golden corpus pins it
        D = PATTERN_INSTANCES[tag]
        trace = []
        cert = dicut_d11(D, trace)
        cert.verify(D)
        assert bound_ok(D, cert)
        assert trace[0].tag == tag

    def test_multiedge_walks_a_gap_between_links(self):
        # plus triangles a b c and d e f, minus triangles x y z and u v w;
        # the plus triangle a b c links twice into x y z (a->x, c->y), with
        # the unlinked b in the gap the walk steps over.  Kept out of
        # PATTERN_INSTANCES, whose graphs the golden corpus holds.
        a, b, c, d, e, f, x, y, z, u, v, w = range(12)
        D = Digraph(12, [(a, b), (b, c), (c, a), (d, e), (e, f), (f, d),
                         (x, y), (y, z), (z, x), (u, v), (v, w), (w, u),
                         (a, x), (b, u), (c, y), (d, z), (e, v), (f, w)])
        step = find_reducing_pair(D)
        assert step.tag == "multiedge-in-M"
        assert step.kept == ((2, 0), (2, 7), (3, 8), (6, 7))
        validate_reducing_pair(D, step.kept, step.dropped, step.tag)
        cert = dicut_d11(D)
        cert.verify(D)
        assert bound_ok(D, cert)

    def test_contraction_graph_on_gamma_instance(self):
        plus_cycles, minus_cycles, between = contraction_of(_gamma_instance())
        assert len(plus_cycles) == 3 and len(minus_cycles) == 3
        links = [e for es in between.values() for e in es]
        assert len(links) == 9
        # every link goes from a contracted plus-cycle to a minus-cycle
        assert all(u in plus_cycles[i] and v in minus_cycles[j]
                   for (i, j), es in between.items() for u, v in es)

    def test_each_side_walked_once(self, monkeypatch):
        # the leaf scans of D- and D+ hand their cycles on to the later
        # patterns and to the contraction graph, which walk neither again;
        # each cycle of D- and of D+ is followed once
        calls = collections.Counter()
        for name in ("_leaf_in_minus", "_directed_cycle_order"):
            def counted(*args, name=name, f=getattr(d11, name)):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(d11, name, counted)
        D = _gamma_instance()
        piece, = WorkGraph(D).pieces(D.vertices)
        assert find_reducing_pair(piece).tag == "gamma-cycle"
        assert calls == {"_leaf_in_minus": 2, "_directed_cycle_order": 6}

    def test_one_leaf_rule_serves_the_loop_and_the_search(self, monkeypatch):
        # the loop's leaf heaps and the reducing-pair search's scan of D-
        # test Claim 1.3 in the one place, `_leaf_at`
        fired = collections.Counter()
        test = d11._leaf_at

        def counted(*args):
            step = test(*args)
            fired[caller] += step is not None
            return step

        monkeypatch.setattr(d11, "_leaf_at", counted)
        D = double_star(50)
        caller = "loop"
        dicut_d11(D).verify(D)
        caller = "search"
        piece, = WorkGraph(D).pieces(D.vertices)
        assert piece.m == 101
        assert find_reducing_pair(piece).tag == "leaf-in-minus"
        assert fired["loop"] > 0 and fired["search"] > 0, fired

    def test_leaf_rule_same_as_component_walk(self):
        # the degree test fires exactly where the component walk fires, and
        # where neither fires both list the same cycles of D-
        rng = random.Random(41)
        pieces = []
        while len(pieces) < 200:
            D = gen_random_family("d11", rng.randint(3, 150), 1,
                                  rng.randrange(1 << 30))
            pieces += WorkGraph(D).pieces(D.vertices)
        graphs = list(digonfree_d11(6)) + pieces[:200]
        graphs += [cycle_structured(rng) for _ in range(100)]
        silent = 0
        for D in graphs:
            for H in (D, D.reverse()):
                step, cycles = d11._leaf_in_minus(H)
                want_step, want_cycles = leaf_in_minus_by_components(H)
                assert (step is None) == (want_step is None), H
                if step is None:
                    assert cycles == want_cycles, H
                    silent += bool(cycles)
        assert silent >= 100

    def test_late_patterns_on_cycle_structured_draws(self):
        # the patterns past the leaves fire on these shapes many times over,
        # and their certificates and traces are pinned
        rng = random.Random(29)
        fired, runs = collections.Counter(), []
        for i in range(400):
            odd = i % 4 == 3
            D = (odd_cycles_simple_links if odd else cycle_structured)(rng)
            for H in (D, D.reverse()):
                trace = []
                cert = dicut_d11(H, trace)
                cert.verify(H)
                assert bound_ok(H, cert)
                assert not odd or trace[0].tag == "gamma-cycle"
                fired.update(step.tag for step in trace)
                runs.append((cert.X, trace))
        late = ["even-cycle", "v0-attach-source", "v0-attach-with-inedge",
                "multiedge-in-M", "gamma-cycle"]
        assert min(fired[tag] for tag in late) >= 20, fired
        assert hashlib.sha256(repr(runs).encode()).hexdigest() == (
            "4af0941a39dd2f75fa2b7d9936d38e7fdbc26e859f2c259db4872e990323e760")

    def test_validator_same_as_edge_list_reference(self, monkeypatch):
        # every pair of seeded d11 and d11c runs, and mutations of each,
        # get the same verdict and message from the validator and from
        # the edge-list reference
        kinds = collections.Counter()
        validate = d11.validate_reducing_pair

        def outcome(check, D, A, B):
            try:
                check(D, A, B, "t")
            except AlgorithmBugError as exc:
                return str(exc)
            return "valid"

        def mutations(D, A, B):
            yield A, B
            a = min(A)
            yield A - {a}, B | {a}  # an A edge moved to B
            yield frozenset(), A | B
            yield A, B | {a}  # an A edge in B as well
            for b in sorted(B):  # a B edge dropped
                yield A, B - {b}
            # D may be the working graph, or it read backwards, whose
            # vertices are the ids of its lists
            succ, pred = D.succ, D.pred
            vertices = range(len(succ))
            u, v = next((u, v) for u in vertices for v in vertices
                        if u != v and v not in succ[u])
            yield A, B | {(u, v)}  # an edge outside D
            for x, y in sorted(A):  # a P3 inside A
                for e in [(y, w) for w in succ[y]] + [(w, x) for w in pred[x]]:
                    yield A | {e}, B - {e}
            spare = [(u, w) for u in vertices for w in succ[u]
                     if (u, w) not in A and (u, w) not in B]
            past = 3 * len(A) // 2 + 1 - len(B)  # B one edge past 3/2 |A|
            if 0 < past <= len(spare):
                yield A, B | set(spare[:past])

        def compared(D, A, B, tag):
            for A2, B2 in mutations(D, frozenset(A), frozenset(B)):
                got = outcome(validate, D, A2, B2)
                assert got == outcome(validate_by_edge_lists, D, A2, B2)
                kinds[got.split(" (")[0].split(" =")[0]] += 1
            return validate(D, A, B, tag)

        monkeypatch.setattr(d11, "validate_reducing_pair", compared)
        run_seeded_draws(41)
        assert set(kinds) == {
            "valid", "t: empty A", "t: A and B intersect",
            "t: pair uses edges outside D", "t: A contains a directed P3",
            "t: uncovered P3", "t: |B|"}, kinds
        assert min(kinds.values()) >= 20, kinds

    def test_validator_rejects_bad_pair(self):
        D = Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(AlgorithmBugError):
            validate_reducing_pair(D, frozenset(D.edges), frozenset(), "bad")

    def test_validator_rejects_oversized_b(self):
        D = Digraph(4, [(0, 1), (2, 3), (1, 2)])
        with pytest.raises(AlgorithmBugError):
            validate_reducing_pair(
                D, frozenset([(0, 1)]),
                frozenset([(2, 3), (1, 2)]), "too-big")


class TestBound:
    def test_small_shapes(self):
        for edges, n in [
            ([(0, 1), (1, 2), (2, 0)], 3),          # triangle
            ([(i, (i + 1) % 5) for i in range(5)], 5),
            ([(i, (i + 1) % 7) for i in range(7)], 7),
            ([(0, 1)], 2),
        ]:
            D = Digraph(n, edges)
            cert = dicut_d11(D)
            cert.verify(D)
            assert bound_ok(D, cert)

    def test_small_digraphs_cut_exactly(self):
        # a piece of at most 6 edges goes to the oracle, so on a digraph of
        # at most 6 edges d11, and d11c where it applies, cut a maximum
        checked = connected = 0
        for D in digonfree_d11(6):
            if D.m > 6:
                continue
            opt = oracle.max_dicut_exact(D).size
            assert dicut_d11(D).size == opt, D
            checked += 1
            try:
                cert = dicut_d11_connected(D)
            except PreconditionError:  # disconnected, or a triangle
                continue
            assert cert.size == opt, D
            connected += 1
        assert checked == 1024 and connected == 961

    def test_directed_path_starts_at_its_source(self):
        D = Digraph(8, [(i, i + 1) for i in range(7)])
        trace = []
        cert = dicut_d11(D, trace)
        cert.verify(D)
        assert trace[0] == Step("path-or-cycle", ((0, 1),), ((1, 2),))
        assert cert.size == 4

    def test_example1_chain(self):
        for k in (1, 2, 3):
            D = gen_example1(k)
            cert = dicut_d11(D)
            assert bound_ok(D, cert)
            assert cert.size <= 3 * k + 1

    def test_random_instances(self):
        rng = random.Random(5)
        for _ in range(120):
            D = gen_random_family("d11", rng.randint(3, 12), 1,
                                  rng.randrange(1 << 30))
            trace = []
            cert = dicut_d11(D, trace)
            cert.verify(D)
            assert bound_ok(D, cert)
            for tag, A, B in trace:
                assert is_p3_free(D, A)

    def test_same_steps_as_rebuilding_every_step(self):
        rng = random.Random(23)
        graphs = [PATTERN_INSTANCES[tag] for tag in sorted(PATTERN_INSTANCES)]
        graphs += [D.reverse() for D in graphs]
        for i in range(160):
            family = "d11-trianglefree" if i % 4 == 3 else "d11"
            graphs.append(gen_random_family(family, rng.randint(3, 150), 1,
                                            rng.randrange(1 << 30)))
        graphs += [random_triangle_tree(rng, rng.randint(1, 40))
                   for _ in range(40)]
        for D in graphs:
            trace, W = [], WorkGraph(D)
            K = d11._reduction_loop(W, W.pieces(D.vertices), D.triangle_list,
                                    trace)
            want_K, want = reduction_rebuilding(D)
            for got_step, want_step in zip(trace, want):
                assert got_step == want_step
            assert len(trace) == len(want) and K == want_K


def test_same_steps_as_the_stack_of_pieces():
    # a step reads and deletes edges of its own piece only, so the loop on
    # the union of the large pieces takes every step the parent's stack of
    # pieces takes, in another order: X and the multiset of steps agree
    rng = random.Random(47)
    graphs = [gen_random_family("d11", rng.randint(8, 300), 1,
                                rng.randrange(1 << 30)) for _ in range(60)]
    shaped = [cycle_structured(rng) for _ in range(40)]
    shaped += [odd_cycles_simple_links(rng) for _ in range(20)]
    graphs += shaped + [D.reverse() for D in shaped]
    graphs += [linked_cycles(rng, rng.randint(5, 60)) for _ in range(20)]
    graphs += [double_star(k) for k in (1, 2, 3, 7, 40)]
    graphs += [triangle_chain(t) for t in (1, 2, 7, 40)]
    graphs += [random_triangle_tree(rng, rng.randint(2, 30))
               for _ in range(10)]
    graphs += [PATTERN_INSTANCES[tag] for tag in sorted(PATTERN_INSTANCES)]
    for _ in range(40):  # disjoint unions of 2 to 5 draws
        parts, n, edges = rng.sample(graphs, rng.randint(2, 5)), 0, []
        for P in parts:
            edges += [(u + n, v + n) for u, v in P.edges]
            n += P.n
        graphs.append(Digraph(n, edges))
    graphs += list(digonfree_d11(6))
    moved, fired, connected = 0, collections.Counter(), 0
    for D in graphs:
        want = []
        X = tuple(sorted({u for u, _ in reduction_by_pieces(D, want)}))
        for method in (dicut_d11, dicut_d11_connected):
            trace = []
            try:
                cert = method(D, trace)
            except PreconditionError:  # d11c: disconnected, or a triangle
                continue
            connected += method is dicut_d11_connected
            assert cert.X == X, (method.__name__, D)
            assert collections.Counter(trace) == collections.Counter(want), (
                method.__name__, D)
            moved += trace != want
            fired.update(step.tag for step in trace)
    assert moved > 500 and connected > 7000, (moved, connected)
    assert all(fired[tag] for tag in (
        "triangle", "leaf-in-minus", "leaf-in-plus", "even-cycle",
        "v0-attach-source", "v0-attach-with-inedge", "path-or-cycle",
        "multiedge-in-M", "gamma-cycle")), fired


def test_steps_cover_every_edge_once():
    # each edge is banked or deleted by exactly one step
    rng = random.Random(31)
    graphs = list(digonfree_d11(6))
    graphs += [gen_random_family("d11", rng.randint(3, 60), 1,
                                 rng.randrange(1 << 30)) for _ in range(60)]
    graphs += [random_triangle_tree(rng, rng.randint(1, 12))
               for _ in range(30)]
    connected = 0
    for D in graphs:
        for method in (dicut_d11, dicut_d11_connected):
            trace = []
            try:
                method(D, trace)
            except PreconditionError:  # d11c: disconnected, or a triangle
                continue
            connected += method is dicut_d11_connected
            covered = sorted(e for step in trace
                             for e in step.kept + step.dropped)
            assert covered == list(D.edges), (method.__name__, D)
    assert connected > 7000


class TestTriangleForest:
    def test_shape_detected(self):
        D = triangle_chain(3)
        assert is_triangle_forest(D) == tuple(D.triangles())

    def test_shape_rejected_on_extra_edge(self):
        D = triangle_chain(3)
        D2 = Digraph(D.n, list(D.edges) + [(1, 5)])
        assert is_triangle_forest(D2) is None

    def test_connected_bound(self):
        for t in (2, 3, 4):
            D = triangle_chain(t)
            cert = dicut_d11_connected(D)
            cert.verify(D)
            assert 20 * cert.size >= 7 * D.m

    def test_rejects_lone_triangle(self):
        with pytest.raises(PreconditionError):
            dicut_d11_connected(Digraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_rejects_disconnected(self):
        D = Digraph(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError):
            dicut_d11_connected(D)

    def test_shape_matches_brute_force(self):
        # the corpus holds graphs whose triangles share an edge, such as
        # 0->1->2->0 with 0->1->3->0; `overlapping` checks that it does
        checked = overlapping = accepted = 0
        for D in digonfree_d11(6):
            if not D.is_weakly_connected():
                continue
            tris = D.triangles()
            if len({v for tri in tris for v in tri}) < 3 * len(tris):
                overlapping += 1
            got = is_triangle_forest(D)
            assert got == forest_reference(D), D
            checked += 1
            accepted += got is not None
        assert checked > 1000 and overlapping > 0 and accepted > 1

    def test_long_chain_needs_no_recursion(self):
        D = triangle_chain(150)
        trace = []
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            cert = dicut_d11_connected(D, trace)
        finally:
            sys.setrecursionlimit(limit)
        cert.verify(D)
        assert 20 * cert.size >= 7 * D.m

    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    def test_shape_checked_once(self, t, monkeypatch):
        # d11c tests the shape once, to refuse a lone triangle; the
        # reduction loop never asks
        calls = []
        monkeypatch.setattr(d11, "is_triangle_forest",
                            lambda D: calls.append(D) or is_triangle_forest(D))
        D = triangle_chain(t)
        dicut_d11_connected(D).verify(D)
        assert len(calls) == 1

    def test_loop_alone_clears_forests_by_a_fifth(self):
        # every step keeps at least its share, so |K| >= (2m - t)/5; on a
        # forest a bridge forces a surplus of a fifth, and 7m/20 is only
        # (2m - t)/5 + 1/20, so no leaf triangle need go first
        rng = random.Random(17)
        graphs = list(triangle_forests(3))
        exhaustive = len(graphs)
        graphs += [random_triangle_tree(rng, rng.randint(2, 40))
                   for _ in range(100)]
        graphs += [random_bridged_tree(rng, rng.randint(2, 40))
                   for _ in range(100)]
        for D in graphs:
            t = len(is_triangle_forest(D))
            trace = []
            cert = dicut_d11_connected(D, trace)
            cert.verify(D)
            assert all(step.tag != "leaf-triangle" for step in trace), D
            assert 5 * cert.size >= 2 * D.m - t + 1, D
        assert exhaustive == 828

    def test_mirrored_bridge(self):
        # bridge pointing INTO the leaf triangle
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 0)]
        D = Digraph(6, edges)
        cert = dicut_d11_connected(D)
        assert 20 * cert.size >= 7 * D.m
