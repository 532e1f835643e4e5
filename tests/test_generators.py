import tracemalloc

import pytest

from dicuts import oracle
from dicuts.digraph import (
    MAX_VERTICES,
    InputError,
    ResourceLimitError,
    class_partition,
)
from dicuts.generators import (
    gen_example1,
    gen_example2,
    gen_random_family,
    gen_regular_tournament,
)


class TestExample1:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shape(self, k):
        D = gen_example1(k)
        assert D.n == 6 * k + 3
        assert D.m == 8 * k + 3
        assert class_partition(D, 1, 1) is not None
        assert D.is_weakly_connected()
        assert not D.has_digon()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_cut_value(self, k):
        assert oracle.max_dicut_exact(gen_example1(k)).size == 3 * k + 1

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            gen_example1(0)


class TestExample2:
    def test_shape(self):
        H = gen_example2()
        assert H.n == 10 and H.m == 45
        assert class_partition(H, 2, 2) is not None
        assert not H.has_digon()


class TestTournament:
    def test_k1_is_triangle(self):
        D = gen_regular_tournament(1)
        assert D.triangles() == [(0, 1, 2)]

    def test_k2_regular(self):
        D = gen_regular_tournament(2)
        assert D.n == 5 and D.m == 10
        assert all(D.in_deg(v) == 2 and D.out_deg(v) == 2 for v in range(5))

    def test_k2_max_cut(self):
        assert oracle.max_dicut_exact(gen_regular_tournament(2)).size == 3


class TestRandomFamilies:
    def test_deterministic(self):
        a = gen_random_family("d11", 10, seed=7)
        b = gen_random_family("d11", 10, seed=7)
        assert a.edges == b.edges

    def test_d11_membership(self):
        D = gen_random_family("d11", 10, seed=7)
        assert class_partition(D, 1, 1) is not None
        assert not D.has_digon()

    def test_trianglefree(self):
        for seed in range(10):
            D = gen_random_family("d11-trianglefree", 12, seed=seed)
            assert class_partition(D, 1, 1) is not None
            assert not D.triangles()

    def test_acyclic_dkk(self):
        D = gen_random_family("acyclic-dkk", 20, 3, seed=1)
        assert D.is_acyclic()
        assert class_partition(D, 3, 3) is not None

    def test_disjoint_triangles(self):
        D = gen_random_family("disjoint-triangles", 4)
        assert D.m == 12
        assert oracle.max_triangle_packing(D) == 4

    def test_unknown_family(self):
        with pytest.raises(InputError):
            gen_random_family("nope", 5)


# each generator just past the vertex guard, and the vertex count it asks for
PAST_THE_GUARD = [
    (gen_example1, (174763,)),  # 6k + 3 = 2^20 + 5
    (gen_regular_tournament, (524288,)),  # 2k + 1 = 2^20 + 1
    (gen_random_family, ("disjoint-triangles", 349526)),  # 3t = 2^20 + 2
    (gen_random_family, ("d11", MAX_VERTICES + 1)),
    (gen_random_family, ("acyclic-dkk", MAX_VERTICES + 1, 3)),
]


@pytest.mark.parametrize("gen, args", PAST_THE_GUARD,
                         ids=[args[0] if isinstance(args[0], str) else
                              gen.__name__ for gen, args in PAST_THE_GUARD])
def test_vertex_guard_comes_before_any_edge(gen, args):
    # the edge lists past the guard run from 168 MB traced (the triangles)
    # to about 5e11 tuples (the tournament), so the guard must fire first
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=f"more than {MAX_VERTICES} vertices"):
            gen(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
