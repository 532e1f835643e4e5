import pytest

from dicuts import enumeration
from dicuts.digraph import class_partition
from dicuts.enumeration import d22_with_digons, digonfree_d11


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


class TestD22Masks:
    def test_n4_count(self):
        assert sum(1 for _ in d22_with_digons(4)) == 202

    def test_membership(self):
        for D in d22_with_digons(4):
            assert class_partition(D, 2, 2) is not None

    def test_digons_present(self):
        assert any(D.has_digon() for D in d22_with_digons(3))

    def test_guard(self):
        with pytest.raises(ValueError):
            list(d22_with_digons(6))

    def test_chunks_keep_graphs_and_order(self, monkeypatch):
        monkeypatch.setattr(enumeration, "CHUNK_MASKS", 1 << 12)  # one chunk
        whole = [D.edges for D in d22_with_digons(4)]
        monkeypatch.setattr(enumeration, "CHUNK_MASKS", 64)
        assert [D.edges for D in d22_with_digons(4)] == whole
