import hashlib
from itertools import permutations

import networkx as nx
import pytest

from dicuts import enumeration
from dicuts.digraph import ResourceLimitError, class_partition
from dicuts.enumeration import d22_with_digons, digonfree_d11


def digest(graphs):
    return hashlib.sha256(repr([(D.n, D.edges) for D in graphs])
                          .encode()).hexdigest()


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
            "5e374d5e90e5027a7d9d0796e03ee38eb9d814dc182309c17286b6ea28af198e")

    def test_automorphisms_match_all_permutations(self):
        for G in nx.graph_atlas_g()[1:]:
            n = G.number_of_nodes()
            if n > 6:
                break
            und = sorted(tuple(sorted(e)) for e in G.edges())
            edge_set = {frozenset(e) for e in und}
            scan = [perm for perm in permutations(range(n))
                    if all(frozenset((perm[u], perm[v])) in edge_set
                           for u, v in und)]
            assert enumeration._automorphisms(n, und) == scan


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

    def test_chunks_keep_graphs_and_order(self, monkeypatch):
        monkeypatch.setattr(enumeration, "CHUNK_MASKS", 1 << 12)  # one chunk
        whole = [D.edges for D in d22_with_digons(4)]
        monkeypatch.setattr(enumeration, "CHUNK_MASKS", 64)
        assert [D.edges for D in d22_with_digons(4)] == whole
