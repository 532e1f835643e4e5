"""Acceptance gate: thirteen end-to-end criteria, one test (and one pytest
pass/fail line) each.  Exact integer / rational comparisons throughout."""

import math
import random
from fractions import Fraction
from math import comb

import pytest

from dicuts import oracle
from dicuts.colorcut import (
    best_balanced_class_bipartition,
    dicut_acyclic,
    dicut_d22,
    greedy_color,
)
from dicuts.d11 import (
    dicut_d11,
    dicut_d11_connected,
    find_reducing_pair,
    find_triangle_reduction,
    validate_reducing_pair,
)
from dicuts.decompose import split_dkk
from dicuts.digraph import (
    Digraph,
    class_partition,
    cut_from_partition,
    is_p3_free,
)
from dicuts.enumeration import d22_with_digons, digonfree_d11
from dicuts.generators import (
    gen_example1,
    gen_example2,
    gen_random_family,
    gen_regular_tournament,
)
from dicuts.peel import find_improvement, initial_removal, peel_to_lower_class


def _connected_non_triangle(D):
    comps = [c for c in D.weak_components()
             if any(D.out_deg(v) or D.in_deg(v) for v in c)]
    return len(comps) == 1 and not (D.m == 3 and len(D.triangles()) == 1)


@pytest.fixture(scope="module")
def d11_family():
    return list(digonfree_d11(6))


@pytest.fixture(scope="module")
def d11_random():
    rng = random.Random(20240501)
    out = []
    while len(out) < 500:
        D = gen_random_family("d11", rng.randint(3, 12), 1,
                              rng.randrange(1 << 30))
        if D.m:
            out.append(D)
    return out


def test_c01_two_fifths_bound(d11_family, d11_random):
    for D in d11_family + d11_random:
        cert = dicut_d11(D)
        cert.verify(D)
        t = oracle.max_triangle_packing(D)
        assert cert.size >= math.ceil((2 * D.m - t) / 5)
        assert cert.size <= oracle.max_dicut_exact(D).size


def test_c02_connected_seven_twentieths(d11_family, d11_random):
    for D in d11_family + d11_random:
        if not _connected_non_triangle(D):
            continue
        cert = dicut_d11_connected(D)
        cert.verify(D)
        assert cert.size >= math.ceil(7 * D.m / 20)


def test_c03_chained_instance_is_tight():
    for k in (1, 2, 3):
        D = gen_example1(k)
        assert D.m == 8 * k + 3
        opt = oracle.max_dicut_exact(D).size
        assert opt == 3 * k + 1
        assert Fraction(opt, D.m) < Fraction(3, 8)


def test_c04_third_characterizes_triangle_unions(d11_family):
    for D in d11_family:
        if D.m == 0:
            continue
        t = oracle.max_triangle_packing(D)
        live = {v for e in D.edges for v in e}
        is_triangle_union = (D.m == 3 * t and len(live) == D.m)
        hits_third = 3 * oracle.max_dicut_exact(D).size <= D.m
        assert hits_third == is_triangle_union


def test_c05_triangle_free_two_fifths():
    rng = random.Random(11)
    done = 0
    while done < 300:
        D = gen_random_family("d11-trianglefree", rng.randint(3, 12), 1,
                              rng.randrange(1 << 30))
        if not D.m:
            continue
        assert dicut_d11(D).size >= math.ceil(2 * D.m / 5)
        done += 1


def test_c06_split_with_shared_witness():
    rng = random.Random(12)
    for p1, p2 in [(1, 1), (1, 2), (2, 2)]:
        for _ in range(40):
            D = gen_random_family("dkk", rng.randint(4, 30), p1 + p2,
                                  rng.randrange(1 << 30))
            res = split_dkk(D, p1, p2)
            assert set(res.D1.edges) | set(res.D2.edges) == set(D.edges)
            assert not set(res.D1.edges) & set(res.D2.edges)
            for Dj, pj in ((res.D1, p1), (res.D2, p2)):
                assert class_partition(Dj, pj, pj) is not None
                assert all(Dj.in_deg(x) <= pj for x in res.X)
                assert all(Dj.out_deg(y) <= pj for y in res.Y)


def test_c07_peel_bound_and_critical_fixpoint():
    rng = random.Random(13)
    for k in (2, 3):
        for _ in range(30):
            D = gen_random_family("dkk", rng.randint(4, 20), k,
                                  rng.randrange(1 << 30))
            rest, R = peel_to_lower_class(D, k)  # asserts |Crit| >= |R| inside
            assert class_partition(rest, k - 1, k - 1) is not None
            assert (2 * k + 1) * len(R) <= 2 * D.m
        T = gen_regular_tournament(k)
        _, R = peel_to_lower_class(T, k)
        exact = len(oracle.min_removal_exact(T, k))
        assert exact == k + 1
        assert k + 1 <= len(R) <= 2 * T.m // (2 * k + 1)


def test_c08_double_tournament_has_no_cut_to_d11():
    H = gen_example2()
    for mask in range(1 << 10):
        X = [v for v in range(10) if mask >> v & 1]
        cut = cut_from_partition(H, X)
        assert class_partition(H.without_edges(cut.cut_edges), 1, 1) is None


def test_c09_balanced_split_counting_bound():
    rng = random.Random(14)
    done = 0
    while done < 150:
        n = rng.randint(4, 16)
        edges = list({tuple(sorted(rng.sample(range(n), 2)))
                      for _ in range(rng.randint(3, 30))})
        col = greedy_color(n, edges, n)
        if not 3 <= col.gamma <= 8:
            continue
        S, _ = best_balanced_class_bipartition(col, edges)
        ss = set(S)
        crossing = sum(1 for u, v in edges if (u in ss) != (v in ss))
        g, m = col.gamma, len(edges)
        assert crossing >= Fraction((g * g // 4) * m, comb(g, 2))
        done += 1


def test_c10_acyclic_bound():
    rng = random.Random(15)
    for k in (1, 2, 3, 4):
        for _ in range(30):
            D = gen_random_family("acyclic-dkk", rng.randint(4, 40), k,
                                  rng.randrange(1 << 30))
            cert = dicut_acyclic(D, k)
            assert cert.size >= math.ceil((k + 1) * D.m / (4 * k + 2))
    TT5 = Digraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    cert = dicut_acyclic(TT5, 2)
    assert cert.size >= 3
    assert oracle.max_dicut_exact(TT5).size == 6


def test_c11_three_tenths_for_d22():
    for D in d22_with_digons(5):
        cert = dicut_d22(D)
        cert.verify(D)
        assert 10 * cert.size >= 3 * D.m
    rng = random.Random(16)
    done = 0
    while done < 300:
        n = rng.randint(3, 14)
        D = gen_random_family("dkk", n, 2, rng.randrange(1 << 30))
        if not D.m:
            continue
        assert 10 * dicut_d22(D).size >= 3 * D.m
        done += 1
    assert dicut_d22(gen_regular_tournament(2)).size == 3


def test_c12_three_cut_cover(d11_family):
    for D in d11_family:
        assert oracle.decompose_into_cuts(D, 3) is not None
    assert oracle.decompose_into_cuts(gen_regular_tournament(2), 3) is None


def test_c13_step_level_certification():
    # reducing pairs re-validate; peel moves strictly drop the potential;
    # banked P3-free sets stay P3-free.  The library raises on violation;
    # this workload must finish silently.
    rng = random.Random(17)
    for _ in range(60):
        D = gen_random_family("d11", rng.randint(6, 14), 1,
                              rng.randrange(1 << 30))
        trace = []
        cert = dicut_d11(D, trace)
        for tag, A, B in trace:
            assert is_p3_free(D, A)
        assert is_p3_free(D, cert.cut_edges)
        H = D
        while H.m > 5:
            step = find_triangle_reduction(H)
            if step:
                H = H.without_edges(step.kept + step.dropped)
                continue
            comps = [cc for cc in H.weak_components()
                     if any(H.out_deg(v) or H.in_deg(v) for v in cc)]
            if len(comps) != 1:
                break
            rp = find_reducing_pair(H)
            validate_reducing_pair(H, rp.kept, rp.dropped, rp.tag)
            H = H.without_edges(rp.kept + rp.dropped)
    for k in (2, 3):
        for _ in range(20):
            D = gen_random_family("dkk", rng.randint(5, 15), k,
                                  rng.randrange(1 << 30))
            st = initial_removal(D, k)
            last = st.potential()
            while (rw := find_improvement(st)) is not None:
                st.apply(rw)
                assert st.potential() < last
                last = st.potential()
