"""Scale cases: inputs large enough that per-step whole-graph work shows.

Each case checks counted work where it can, so it holds on any machine
and fails at once if a quadratic term comes back; the exact maximum cut's
case, whose work is its running time, has a wall-time budget far above
what it needs.  The witnesses and traces of d11, d11c, d22 and peel at
these sizes are pinned by digest, so a change that promises the same
answers is held to it beyond the golden corpus's small instances.
"""

import hashlib
import random
import statistics
import sys
import time
from pathlib import Path

import pytest
from reference import dense_d22, triangle_chain

from dicuts import colorcut, d11, digraph, oracle, peel
from dicuts.colorcut import dicut_acyclic, dicut_d22
from dicuts.d11 import dicut_d11, dicut_d11_connected
from dicuts.digraph import Digraph, Piece, class_partition
from dicuts.generators import gen_random_family, gen_regular_tournament
from dicuts.oracle import MAX_DICUT_VERTICES, decompose_into_cuts, max_dicut_exact
from dicuts.peel import RemovalState, peel_to_lower_class

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from instances import dense_dkk  # noqa: E402  the benchmark's dense D(k,k)

# swap_feasible calls of the move search on dense_d22(80, 1), k = 2, when
# it tried every add combination of every entry of the move table
UNPRUNED_SWAP_CALLS = 1_176_591


def counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_dense_d22_builds_no_graph_per_cycle_step(monkeypatch):
    D = dense_d22(240, 1)  # m = 7 714
    builds = counting(monkeypatch, Digraph, "__init__")
    steps = []
    cert = dicut_d22(D, steps)
    cert.verify(D)
    assert 10 * cert.size >= 3 * D.m
    assert len(steps) == 1765 and len(builds) == 0


def test_dense_d22_cycle_search_sorts_nothing_and_skips_empty_nodes(
        monkeypatch):
    # F's lists are kept ascending, so the finder sorts none of them, and
    # each search starts at the first node with an F edge
    D = dense_d22(480, 1)  # m = 29 735
    sorts, starts = [], []

    def counted_sorted(*args, **kwargs):
        sorts.append(None)
        return sorted(*args, **kwargs)

    find = colorcut.shortest_bipartite_cycle

    def finder(adj, *start):
        first = next((v for v, a in enumerate(adj) if a), len(adj))
        starts.append(start == (first,))
        return find(adj, *start)

    monkeypatch.setattr(digraph, "sorted", counted_sorted, raising=False)
    monkeypatch.setattr(colorcut, "shortest_bipartite_cycle", finder)
    colorcut._d22_p3free(D, None)
    assert len(sorts) == 0
    assert len(starts) > 1000 and all(starts)


def test_dense_d22_cycle_search_seldom_runs_the_bfs(monkeypatch):
    # the finder reads most 4-cycles off two neighbour lists; a BFS on
    # every search queued about 114 list entries per search here
    D = dense_d22(480, 1)  # m = 29 735
    searches = counting(monkeypatch, colorcut, "shortest_bipartite_cycle")
    bfs_runs = counting(monkeypatch, digraph, "_bfs_cycle")
    colorcut._d22_p3free(D, None)
    assert len(searches) == 7099
    assert 10 * len(bfs_runs) < len(searches)


def dense_acyclic(n, k, seed):
    """An acyclic D(k,k) member with m = Theta(n^2): every edge runs forward
    in id order, X is the first half, each X->Y pair is kept with
    probability 1/2, every x gets k in-edges from earlier x (fewer at the
    start) and every y k out-edges to later y (fewer at the end)."""
    rng = random.Random(seed)
    X, Y = range(n // 2), range(n // 2, n)
    edges = {(x, y) for x in X for y in Y if rng.random() < 0.5}
    for x in X:
        edges.update((u, x) for u in rng.sample(range(x), min(k, x)))
    for y in Y:
        edges.update((y, w) for w in rng.sample(range(y + 1, n),
                                                min(k, n - 1 - y)))
    return Digraph(n, edges)


def test_dense_acyclic_builds_no_graph(monkeypatch):
    # both sides of the witness are colored in one pass on the original ids
    D = dense_acyclic(240, 3, 1)  # m = 7 942
    assert D.is_acyclic() and class_partition(D, 3, 3) is not None
    builds = counting(monkeypatch, Digraph, "__init__")
    cert = dicut_acyclic(D, 3)
    cert.verify(D)
    assert 14 * cert.size >= 4 * D.m
    assert len(builds) == 0


def test_peel_dense_d22_prunes_the_move_search(monkeypatch):
    D = dense_d22(80, 1)  # m = 926
    calls = counting(monkeypatch, RemovalState, "swap_feasible")
    rest, R = peel_to_lower_class(D, 2)
    assert class_partition(rest, 1, 1) is not None
    assert 5 * len(R) <= 2 * D.m
    assert 10 * len(calls) <= UNPRUNED_SWAP_CALLS


def test_peel_dense_dkk_lists_few_adjacency_edges(monkeypatch):
    # the move search lists, at a vertex the return breaks, only the side
    # its adds can bring back to k - 1; listing both sides, even once per
    # vertex between moves, lists about 239 |R| edges at n = 640
    listed = []
    for name in ("out_edges", "in_edges"):
        def counted(self, v, fn=getattr(Digraph, name)):
            edges = fn(self, v)
            listed.append(len(edges))
            return edges

        monkeypatch.setattr(Digraph, name, counted)
    totals = []
    for n in (640, 1280):  # m = 52 264 and 206 603
        D = Digraph(n, dense_dkk(random.Random(1), n, 2))
        listed.clear()
        rest, R = peel_to_lower_class(D, 2)
        totals.append(sum(listed))
        assert class_partition(rest, 1, 1) is not None
        assert totals[-1] <= 16 * len(R)
    # twice the vertices, about twice R: the listing grows with R, not m
    assert 10 * totals[1] <= 23 * totals[0]


def test_peel_builds_no_graph_after_its_search(monkeypatch):
    # the remainder keeps D's edges outside R, and the state has checked R
    # against D, so no constructor validates those edges again
    D = Digraph(160, dense_dkk(random.Random(1), 160, 2))  # m = 3 496
    builds = counting(monkeypatch, Digraph, "__init__")
    rest, R = peel_to_lower_class(D, 2)
    assert len(builds) == 0
    assert rest.n == D.n
    assert rest.edges == tuple(e for e in D.edges if e not in R)
    assert class_partition(rest, 1, 1) is not None


def test_peel_final_search_lists_few_pairs(monkeypatch):
    # the initial removal of dense_d22(320, 1) is already a fixpoint, so the
    # one search is the final, unsuccessful one; scanning every pair of R
    # would list C(320, 2) = 51 040 of them
    D = dense_d22(320, 1)  # m = 13 412
    pairs = []
    table = peel._move_table

    def counted(state):
        for entry in table(state):
            if len(entry[0]) == 2:
                pairs.append(entry[0])
            yield entry

    monkeypatch.setattr(peel, "_move_table", counted)
    trace = []
    rest, R = peel_to_lower_class(D, 2, trace)
    assert trace == [] and len(R) == 320
    assert class_partition(rest, 1, 1) is not None
    assert len(pairs) <= len(R)


@pytest.mark.parametrize("method", [dicut_d11, dicut_d11_connected])
def test_d11_long_chain_builds_no_graph(method, monkeypatch):
    # the chain's t = 1 100 triangles are disjoint, so t is also the most
    # disjoint triangles in the (2m - t)/5 bound
    t = 1100
    D = triangle_chain(t)  # m = 4 399
    builds = counting(monkeypatch, Digraph, "__init__")
    trace = []
    cert = method(D, trace)
    cert.verify(D)
    if method is dicut_d11:
        assert 5 * cert.size >= 2 * D.m - t
    else:
        assert 20 * cert.size >= 7 * D.m
    # the base steps call the oracle's kernel on edge lists, and d11c runs
    # the same reduction loop on the same working graph as d11
    assert sum(step[0] == "oracle-base" for step in trace) >= 1098
    assert len(builds) == 0


def test_reducing_pair_reads_few_adjacency_entries(monkeypatch):
    # a search reads D+ and D- from the degrees where a pattern needs them,
    # and its validation finds edges in succ; building the V+ and V- sets
    # or the piece's edge list reads succ or pred at every vertex (median
    # piece: 1 876 vertices; those reads put the median at 5 639)
    D = gen_random_family("d11", 3200, 1, 1)  # m = 3 750
    reads = []
    search = d11.find_reducing_pair

    class Counted(list):
        def __getitem__(self, i):
            reads[-1] += 1
            return list.__getitem__(self, i)

    def counted(H):
        reads.append(0)
        return search(Piece(H.vertices, Counted(H.succ), Counted(H.pred),
                            H.m))

    monkeypatch.setattr(d11, "find_reducing_pair", counted)
    cert = dicut_d11(D)
    cert.verify(D)
    assert len(reads) >= 700
    assert statistics.median(reads) <= 1000


def test_max_dicut_exact_at_the_vertex_guard():
    # n = 26 is 2^10 blocks of 2^16 bipartitions; a Python loop over the
    # 2^26 bipartitions one at a time takes tens of seconds
    D = gen_random_family("d11", MAX_DICUT_VERTICES, 1, 1)
    start = time.perf_counter()
    cert = max_dicut_exact(D)
    assert time.perf_counter() - start < 10.0
    cert.verify(D)
    assert cert.size >= dicut_d11(D).size


def test_cut_cover_takes_its_last_cut_forced(monkeypatch):
    # T5 and five isolated vertices at c = 3: the search scans the 2^10
    # bipartitions once for their cut masks, once at the root and once in
    # each of the 2^8 states that hold a first cut; 2^16 states reach the
    # last cut, and scanning for each took about 7 s (2-vCPU VM, Python
    # 3.11) where the forced last cut scans nothing
    D = Digraph(10, gen_regular_tournament(2).edges)
    scans = []

    def counted(*args):
        scans.append(args == (1 << D.n,))
        return range(*args)

    monkeypatch.setattr(oracle, "range", counted, raising=False)
    assert decompose_into_cuts(D, 3) is None
    assert sum(scans) <= 2 + 2 ** 8


def digest(value):
    """The first 16 hex digits of the sha256 of repr(value)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# (case, run appending to a trace and returning the witness, its digest,
# the trace's digest); the witness is X for the cuts and sorted R for peel
PINNED = [
    ("d11", lambda trace: dicut_d11(
        gen_random_family("d11", 3200, 1, 1), trace).X,
     "3e446ae8efbdeb4d", "7984616bc7e5b773"),
    ("d11c", lambda trace: dicut_d11_connected(triangle_chain(1100), trace).X,
     "10af3c74b869b3ae", "73502f18c49a513a"),
    ("d22", lambda trace: dicut_d22(dense_d22(480, 1), trace).X,
     "b76c70442751eed7", "a4246a3c35be6500"),
    ("peel", lambda trace: sorted(peel_to_lower_class(Digraph(
        640, dense_dkk(random.Random(1), 640, 2)), 2, trace)[1]),
     "f1f32609bbdb05d7", "02dce2d753249dd4"),
]


@pytest.mark.parametrize("run, witness, steps", [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_witness_and_trace_pinned(run, witness, steps):
    trace = []
    assert digest(run(trace)) == witness
    assert digest(trace) == steps
