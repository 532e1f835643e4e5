import hashlib
from collections import Counter
from itertools import permutations, product

import networkx as nx
import pytest

from dicuts import enumeration
from dicuts.digraph import ResourceLimitError, class_partition
from dicuts.enumeration import d22_with_digons, digonfree_d11


def digest(graphs):
    return hashlib.sha256(repr([(D.n, D.edges) for D in graphs])
                          .encode()).hexdigest()


def canonical_form(n, edges):
    """The least sorted edge list over the relabellings that list the
    vertices by (in-degree, out-degree); equal iff the digraphs are
    isomorphic."""
    deg = [(sum(v == x for _, v in edges), sum(u == x for u, _ in edges))
           for x in range(n)]
    blocks = [[x for x in range(n) if deg[x] == c] for c in sorted(set(deg))]
    forms = []
    for order in product(*(permutations(b) for b in blocks)):
        label = {x: i for i, x in enumerate(x for b in order for x in b)}
        forms.append(sorted((label[u], label[v]) for u, v in edges))
    return n, tuple(min(forms))


def undirected_form(n, edges):
    return canonical_form(n, [e for u, v in edges for e in ((u, v), (v, u))])


class TestDigonFree:
    def test_small_counts(self):
        # one class per digraph on <= 2 vertices: the one-vertex graph, the
        # empty pair, and the single edge
        assert sum(1 for D in digonfree_d11(2)) == 3

    def test_membership_and_no_digons(self):
        for D in digonfree_d11(4):
            assert not D.has_digon()
            assert class_partition(D, 1, 1) is not None

    def test_no_duplicate_edge_sets(self):
        seen = set()
        for D in digonfree_d11(5):
            key = (D.n, D.edges)
            assert key not in seen
            seen.add(key)

    def test_total_n6_class_count(self):
        assert sum(1 for _ in digonfree_d11(6)) == 7120

    def test_n6_corpus_pinned(self):
        assert digest(digonfree_d11(6)) == (
            "b24106da247e46e295a38f8d95019ad7fa979891cdc7b45e1194ddfd2f90990c")

    def test_n6_classes_pinned_up_to_labelling(self):
        # what any labelling of the corpus must keep: its isomorphism
        # classes, the count on each n, and every undirected graph of the
        # atlas as an underlying graph
        graphs = list(digonfree_d11(6))
        forms = sorted(canonical_form(D.n, D.edges) for D in graphs)
        assert len(set(forms)) == len(forms)
        assert hashlib.sha256(repr(forms).encode()).hexdigest() == (
            "d5e6a6c0f18516b9b425f8acb0f018b488c02b8c2354d1810a9c6ddb5f5a42b9")
        assert sorted(Counter(D.n for D in graphs).items()) == [
            (1, 1), (2, 2), (3, 7), (4, 42), (5, 417), (6, 6651)]
        underlying = {(D.n, frozenset(frozenset(e) for e in D.edges))
                      for D in graphs}
        atlas = {undirected_form(G.number_of_nodes(), G.edges())
                 for G in nx.graph_atlas_g()[1:] if G.number_of_nodes() <= 6}
        assert {undirected_form(n, edges) for n, edges in underlying} == atlas

    def test_automorphisms_match_all_permutations(self):
        # the generator's image of each undirected graph under every
        # permutation, and so its automorphisms, against a direct scan; the
        # slots are digonfree_d11's
        for n, count in zip(range(1, 7), [1, 2, 4, 11, 34, 156]):
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)][::-1]
            graphs = list(enumeration._orderly(
                list(permutations(range(n))), slots, lambda mask, i: True))
            assert len(graphs) == count
            for mask, images in graphs:
                und = {e for i, e in enumerate(slots) if mask >> i & 1}
                for perm, image in zip(permutations(range(n)), images):
                    mapped = {tuple(sorted((perm[u], perm[v])))
                              for u, v in und}
                    assert image == sum(1 << slots.index(e) for e in mapped)
                    assert (image == mask) == (mapped == und)


class TestD22Masks:
    def test_n4_count(self):
        assert sum(1 for _ in d22_with_digons(4)) == 202

    def test_n5_corpus_pinned(self):
        graphs = list(d22_with_digons(5))
        assert len(graphs) == 6194
        assert digest(graphs) == (
            "70f49cdbcd62cfe7432bfe4a6e29380b30f2377ee8602ad96590a71cc814b8ca")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_least_mask_of_every_orbit(self, n):
        # every mask of a member, kept iff no permutation maps it lower
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        expect = []
        for mask in range(1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if mask >> i & 1]
            if any(sum(1 for e in edges if e[1] == x) > 2
                   and sum(1 for e in edges if e[0] == x) > 2
                   for x in range(n)):
                continue
            images = (sum(1 << slots.index((p[u], p[v])) for u, v in edges)
                      for p in permutations(range(n)))
            if min(images) == mask:
                expect.append(tuple(sorted(edges)))
        assert [D.edges for D in d22_with_digons(n)] == expect

    def test_membership(self):
        for D in d22_with_digons(4):
            assert class_partition(D, 2, 2) is not None

    def test_digons_present(self):
        assert any(D.has_digon() for D in d22_with_digons(3))

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            list(d22_with_digons(6))
        with pytest.raises(ResourceLimitError):
            next(digonfree_d11(8))
