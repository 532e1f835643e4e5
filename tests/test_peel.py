import random
from itertools import combinations

import pytest

from dicuts import digraph, oracle, peel
from dicuts.digraph import (
    AlgorithmBugError,
    Digraph,
    PreconditionError,
    Step,
    class_partition,
    is_p3_free,
)
from dicuts.enumeration import d22_with_digons
from dicuts.generators import gen_random_family, gen_regular_tournament
from dicuts.peel import (
    RemovalState,
    _adds,
    _connected_triples,
    _move_table,
    find_improvement,
    initial_removal,
    peel_to_lower_class,
)
from reference import random_dkk


class TestColoring:
    def test_white_black_cover(self):
        st = initial_removal(gen_regular_tournament(2), 2)
        assert all(st.white[v] or st.black[v] for v in range(5))

    def test_colors_from_original(self):
        # vertex 0: in 0 <= 1 so white; out 2 > 1 so not black, though
        # its out-degree in the remainder is 1
        D = Digraph(3, [(0, 1), (0, 2)])
        st = RemovalState(D, 1, {(0, 1)})
        assert st.white[0] and not st.black[0]


def initial_removal_by_counters(D, k):
    """R of the greedy start as a counter loop: drop edges into each white
    vertex, then out of each other black vertex, skipping those already
    dropped, until its degree there is k-1."""
    R = set()
    din = [D.in_deg(v) for v in D.vertices]
    dout = [D.out_deg(v) for v in D.vertices]

    def drop(e):
        R.add(e)
        dout[e[0]] -= 1
        din[e[1]] -= 1

    for v in [v for v in D.vertices if D.in_deg(v) <= k]:
        for e in D.in_edges(v):
            if din[v] <= k - 1:
                break
            if e not in R:
                drop(e)
    for v in [v for v in D.vertices if D.in_deg(v) > k >= D.out_deg(v)]:
        for e in D.out_edges(v):
            if dout[v] <= k - 1:
                break
            if e not in R:
                drop(e)
    return R


class TestInitialRemoval:
    def test_same_r_as_the_counter_loop(self):
        # k up to 6: a vertex's surplus over k-1 ranges from 1 up to k
        rng = random.Random(18)
        for i in range(300):
            k = rng.randint(1, 6)
            D = (random_dkk(rng, rng.randint(2, 14), k) if i % 2 else
                 gen_random_family("dkk", rng.randint(2, 30), k,
                                   rng.randrange(1 << 30)))
            assert initial_removal(D, k).R == initial_removal_by_counters(D, k)

    def test_rejects_k_below_one(self):
        with pytest.raises(PreconditionError):
            initial_removal(Digraph(2, [(0, 1)]), 0)

    def test_already_member_empty(self):
        D = Digraph(3, [(0, 1), (0, 2)])
        st = initial_removal(D, 2)
        assert st.R == set()

    def test_triangle_feasible(self):
        D = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        st = initial_removal(D, 1)
        assert len(st.R) <= 3  # feasibility is asserted inside

    def test_tournament_feasible(self):
        st = initial_removal(gen_regular_tournament(2), 2)
        assert len(st.R) <= 10


class TestMoves:
    def test_m0_fires_on_returnable_edge(self):
        # an edge removed for no reason has no critical endpoint
        D = Digraph(3, [(0, 1), (0, 2)])
        st = RemovalState(D, 2, {(0, 1)})
        rw = find_improvement(st)
        assert rw is not None and rw.tag == "return-edge"
        st.apply(rw)
        assert st.R == set()

    def test_every_applied_move_decreases_potential(self):
        rng = random.Random(4)
        for _ in range(30):
            D = gen_random_family("dkk", rng.randint(4, 12), 2,
                                  rng.randrange(1 << 30))
            st = initial_removal(D, 2)
            last = st.potential()
            while (rw := find_improvement(st)) is not None:
                st.apply(rw)  # raises if potential fails to drop
                assert st.potential() < last
                last = st.potential()

    def test_inflated_removal_shrinks(self):
        D = gen_regular_tournament(2)
        inflated = set(list(D.edges)[:6])
        st = RemovalState(D, 2, inflated)
        while (rw := find_improvement(st)) is not None:
            st.apply(rw)
        assert len(st.R) <= 4
        assert len(st.R) >= len(oracle.min_removal_exact(D, 2))


def scan_every_non_r_edge(state):
    """The move search written out kind by kind, with M0, M1 and M2/M4
    trying every non-R edge as an add and M3 the ones touching its triple."""
    R_sorted = sorted(state.R)
    for e in R_sorted:
        if not state.crit(e):
            return Step("return-edge", (e,), ())
    candidates = sorted(state.D.edge_set - state.R)
    for e in R_sorted:
        if state.is_colored(e):
            continue
        for g in candidates:
            if state.is_colored(g) and state.swap_feasible((e,), (g,)):
                return Step("growth-swap", (e,), (g,))
    for i, e in enumerate(R_sorted):
        for f in R_sorted[i + 1:]:
            for add in [()] + [(g,) for g in candidates]:
                if state.swap_feasible((e, f), add):
                    return Step("tree-path-swap", (e, f), add)
    for tri in combinations(R_sorted, 3):
        if not all(any(set(a) & set(b) for b in tri if b != a) for a in tri):
            continue  # the three edges are not connected
        verts = {v for e in tri for v in e}
        near = [g for g in candidates if g[0] in verts or g[1] in verts]
        adds = [()] + [(g,) for g in near] + [
            (g, h) for i, g in enumerate(near) for h in near[i + 1:]]
        for add in adds:
            if state.swap_feasible(tri, add):
                return Step("short-path-swap", tri, add)
    return None


def moves_agree(state, tags):
    """Step both searches to the fixpoint; return the moves taken."""
    moves = []
    while True:
        want = scan_every_non_r_edge(state)
        got = find_improvement(state)
        assert got == want
        if got is None:
            return moves
        tags.add(got.tag)
        moves.append(got)
        state.apply(got)


def short_path_state():
    """A state whose first move after six returns is a short-path-swap."""
    D = Digraph(11, [(0, 1), (0, 4), (1, 6), (2, 4), (2, 5), (2, 9), (3, 5),
                     (3, 9), (3, 10), (4, 5), (4, 7), (4, 8), (5, 7), (5, 8),
                     (7, 9), (8, 9), (8, 10), (9, 10)])
    return RemovalState(D, 2, {(0, 4), (2, 4), (3, 9), (3, 10), (4, 5),
                               (4, 7), (4, 8), (5, 7), (8, 9)})


def colored_add_state():
    """A state where returning (8, 6) first becomes feasible with the
    uncolored add (4, 6), which would leave the potential unchanged."""
    D = Digraph(10, [(2, 0), (2, 1), (2, 9), (3, 2), (3, 9), (4, 1), (4, 2),
                     (4, 3), (4, 6), (5, 7), (6, 0), (6, 9), (7, 3), (7, 6),
                     (8, 4), (8, 5), (8, 6)])
    return RemovalState(D, 2, {(4, 2), (4, 3), (7, 6), (8, 6)})


def loose_first_add_state():
    """A state where returning ((0, 1), (2, 0), (2, 6)) breaks 0, which only
    an out-edge fixes, and 6; the two-add set ((6, 0), (6, 3)) meets 0 only
    on its in-side, so it is infeasible and not listed."""
    D = Digraph(7, [(0, 1), (0, 5), (1, 2), (1, 5), (2, 0), (2, 6), (3, 0),
                    (4, 0), (4, 3), (4, 5), (5, 6), (6, 0), (6, 3)])
    return RemovalState(D, 2, {(0, 1), (2, 0), (2, 6), (4, 3), (4, 5)})


def full_table(state):
    """Every entry of the move table, as a full scan lists it: (returned
    edges, most adds, tag) for each R edge, each uncolored one, every pair
    and every connected triple."""
    R_sorted = sorted(state.R)
    for e in R_sorted:
        yield (e,), 0, "return-edge"
    for e in R_sorted:
        if not state.is_colored(e):
            yield (e,), 1, "growth-swap"
    for pair in combinations(R_sorted, 2):
        yield pair, 1, "tree-path-swap"
    for tri in combinations(R_sorted, 3):
        if all(any(set(a) & set(b) for b in tri if b != a) for a in tri):
            yield tri, 2, "short-path-swap"


def full_walk(state):
    """(tag, returned edges, adds) as a search that filters rather than
    generates tries them: each `full_table` entry whose critical vertices C
    number at most 2 * most, with every `most`-set of non-R edges at its
    returned edges that covers C, in `combinations` order, and only colored
    adds when |R| would stay."""
    D, R = state.D, state.R
    for remove, most, tag in full_table(state):
        C = set().union(*map(state.crit, remove))
        if len(C) > 2 * most:
            continue
        ends = {v for e in remove for v in e}
        near = [g for g in D.edges if g not in R and ends & set(g)]
        for add in combinations(near, most):
            if not C <= {v for g in add for v in g}:
                continue
            if most == len(remove) and not all(map(state.is_colored, add)):
                continue
            yield tag, remove, add


def to_first_feasible(state, steps):
    """The (tag, remove, add) steps up to and with the first feasible one,
    and that one, or None."""
    out = []
    for step in steps:
        out.append(step)
        if state.swap_feasible(*step[1:]):
            return out, step
    return out, None


def r_core_by_passes(R):
    """The 2-core of R as a fixed point: rescan R, stripping each edge with
    an end of degree 1, until a pass strips none."""
    deg: dict = {}
    for u, v in R:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    alive = set(R)
    changed = True
    while changed:
        changed = False
        for e in list(alive):
            if deg[e[0]] == 1 or deg[e[1]] == 1:
                alive.discard(e)
                deg[e[0]] -= 1
                deg[e[1]] -= 1
                changed = True
    return alive


class TestMoveTable:
    def test_same_moves_as_full_scan(self):
        rng = random.Random(11)
        tags: set = set()
        for _ in range(300):
            k = rng.choice((1, 2, 3))
            D = gen_random_family(rng.choice(("dkk", "acyclic-dkk")),
                                  rng.randint(3, 10), k, rng.randrange(1 << 30))
            R = initial_removal(D, k).R
            R |= {e for e in D.edges if e not in R and rng.random() < 0.3}
            moves_agree(RemovalState(D, k, R), tags)
        moves_agree(short_path_state(), tags)
        moves_agree(colored_add_state(), tags)
        assert tags == {"return-edge", "growth-swap", "tree-path-swap",
                        "short-path-swap"}

    def test_covering_adds_are_filtered_combinations(self):
        # the adds of an entry, by brute force over the vertices B its return
        # breaks: each vertex of B lists the non-R edges on the sides that
        # `most` adds bring back to k-1, and each listed set has an add on
        # every list
        rng = random.Random(3)
        states = [loose_first_add_state()]
        for _ in range(60):
            k = rng.choice((1, 2, 3))
            D = gen_random_family("dkk", rng.randint(4, 12), k,
                                  rng.randrange(1 << 30))
            R = initial_removal(D, k).R
            R |= {e for e in D.edges if e not in R and rng.random() < 0.5}
            states.append(RemovalState(D, k, R))
        # B outnumbering the adds needs an add on two lists: the entries
        # without one are those the cover test refuses
        listed, refused, joined = {1: 0, 2: 0}, 0, 0
        for state in states:
            D, R, k = state.D, state.R, state.k
            for remove, most, _ in full_table(state):
                if not most:
                    continue  # a return-edge entry carries no adds
                B = state.broken(remove)
                lists = {v: [g for g in D.edges if g not in R and (
                    g[0] == v and dout - most < k or
                    g[1] == v and din - most < k)]
                    for v, (din, dout) in B.items()}
                U = sorted(set().union(*lists.values()))
                want = [add for add in combinations(U, most)
                        if all(any(g in gs for g in add)
                               for gs in lists.values())]
                assert list(_adds(state, remove, most)) == want
                listed[most] += len(want)
                if most < len(B):
                    if any(sum(g in gs for gs in lists.values()) == 2
                           for g in U):
                        joined += 1
                    else:
                        assert want == []
                        refused += 1
        assert min(listed.values()) >= 100, listed
        assert refused >= 50 and joined >= 20, (refused, joined)
        remove, loose = ((0, 1), (2, 0), (2, 6)), ((6, 0), (6, 3))
        assert loose not in _adds(states[0], remove, 2)
        assert not states[0].swap_feasible(remove, loose)

    def test_move_table_is_the_full_walk_pruned(self):
        # at every call up to the fixpoint, the table's (tag, entry, add)
        # steps up to its first feasible one are a subsequence of the full
        # walk's, and both searches stop at the same feasible step
        rng = random.Random(12)
        states = [short_path_state(), colored_add_state()]
        for _ in range(120):
            k = rng.choice((1, 2, 3))
            D = gen_random_family(rng.choice(("dkk", "acyclic-dkk")),
                                  rng.randint(3, 10), k, rng.randrange(1 << 30))
            R = initial_removal(D, k).R
            R |= {e for e in D.edges if e not in R and rng.random() < 0.3}
            states.append(RemovalState(D, k, R))
        walked = listed = 0
        for state in states:
            while True:
                old, want = to_first_feasible(state, full_walk(state))
                new, got = to_first_feasible(state, (
                    (tag, remove, add) for remove, adds, tag in
                    _move_table(state) for add in adds))
                rest = iter(old)
                assert all(step in rest for step in new)
                assert got == want
                walked, listed = walked + len(old), listed + len(new)
                if got is None:
                    break
                state.apply(find_improvement(state))
        assert listed < walked

    def test_connected_triples_in_order(self):
        rng = random.Random(8)
        for _ in range(40):
            D = gen_random_family("dkk", rng.randint(4, 14), 2,
                                  rng.randrange(1 << 30))
            R = {e for e in D.edges if rng.random() < 0.5}
            R |= initial_removal(D, 2).R
            state = RemovalState(D, 2, R)
            want = [remove for remove, _, _ in full_table(state)
                    if len(remove) == 3]
            assert list(_connected_triples(state, sorted(R))) == want

    def test_apply_keeps_what_a_fresh_state_builds(self):
        # after every move, the incidences, returnable edges, score and every
        # cached repair list are those of a state built afresh from the new R
        rng = random.Random(9)
        for _ in range(80):
            k = rng.choice((1, 2, 3))
            D = gen_random_family("dkk", rng.randint(4, 12), k,
                                  rng.randrange(1 << 30))
            R = initial_removal(D, k).R
            R |= {e for e in D.edges if e not in R and rng.random() < 0.3}
            state = RemovalState(D, k, R)
            while (move := find_improvement(state)) is not None:
                state.apply(move)
                fresh = RemovalState(D, k, state.R)
                assert state.r_at == fresh.r_at
                assert state.returnable == fresh.returnable
                assert state.potential() == fresh.potential()
                for e, adds in state._repairs.items():
                    assert adds == fresh.repairs(e)

    def test_short_path_swap(self):
        moves = moves_agree(short_path_state(), set())
        assert [rw.tag for rw in moves] == ["return-edge"] * 6 + [
            "short-path-swap"]
        assert moves[6] == Step("short-path-swap", ((4, 7), (4, 8), (5, 7)),
                                ((0, 4), (5, 8)))

    def test_growth_swap_takes_colored_add(self):
        moves = moves_agree(colored_add_state(), set())
        assert moves[0] == Step("growth-swap", ((8, 6),), ((6, 0),))


class TestPeel:
    def test_rejects_outside_class(self):
        with pytest.raises(PreconditionError):
            peel_to_lower_class(gen_regular_tournament(3), 2)

    def test_coloring_built_once(self, monkeypatch):
        # one class check per peel; the colors are D's degree flags
        D = gen_regular_tournament(3)
        checks = []
        for mod in (digraph, peel):
            monkeypatch.setattr(mod, "class_partition",
                                lambda *a: checks.append(a)
                                or class_partition(*a), raising=False)
        peel_to_lower_class(D, 3)
        assert len(checks) == 1

    def test_state_refuses_outside_class_and_infeasible_R(self):
        with pytest.raises(PreconditionError):
            RemovalState(gen_regular_tournament(3), 2, set())
        with pytest.raises(PreconditionError):
            RemovalState(gen_regular_tournament(2), 2, set())
        # a move that breaks the remainder is the algorithm's own fault
        state = initial_removal(gen_regular_tournament(2), 2)
        e = min(e for e in state.R if state.crit(e))
        before = (set(state.R), list(state.din), list(state.dout))
        with pytest.raises(AlgorithmBugError, match="remainder leaves"):
            state.apply(Step("return-edge", (e,), ()))
        # the refused move shifted no edge
        assert (state.R, state.din, state.dout) == before

    @pytest.mark.parametrize("k", [2, 3])
    def test_tournament(self, k):
        D = gen_regular_tournament(k)
        rest, R = peel_to_lower_class(D, k)
        assert class_partition(rest, k - 1, k - 1) is not None
        assert (2 * k + 1) * len(R) <= 2 * D.m
        assert len(R) >= k + 1  # known lower bound for this instance

    def test_k1_gives_p3_free_remainder(self):
        rng = random.Random(6)
        for _ in range(40):
            D = gen_random_family("d11", rng.randint(3, 12), 1,
                                  rng.randrange(1 << 30))
            rest, R = peel_to_lower_class(D, 1)
            assert is_p3_free(D, rest.edges)
            assert 3 * len(R) <= 2 * D.m

    @pytest.mark.parametrize("k", [2, 3])
    def test_random(self, k):
        rng = random.Random(7 + k)
        for _ in range(40):
            D = gen_random_family("dkk", rng.randint(4, 20), k,
                                  rng.randrange(1 << 30))
            rest, R = peel_to_lower_class(D, k)
            assert class_partition(rest, k - 1, k - 1) is not None
            assert (2 * k + 1) * len(R) <= 2 * D.m

    def test_fixpoint_consequences(self):
        # two derived properties of locally optimal removal sets: a black
        # vertex with two or more removed out-edges is never critical, and a
        # removed edge followed by another through a black vertex is critical
        # exactly at its tail
        rng = random.Random(21)
        for k in (2, 3):
            for _ in range(25):
                D = gen_random_family("dkk", rng.randint(4, 16), k,
                                      rng.randrange(1 << 30))
                st = initial_removal(D, k)
                while (rw := find_improvement(st)) is not None:
                    st.apply(rw)
                critR = st.crit_R()
                out_in_R: dict = {}
                heads: dict = {}
                for u, v in st.R:
                    out_in_R[u] = out_in_R.get(u, 0) + 1
                    heads.setdefault(v, []).append((u, v))
                for v in range(D.n):
                    if st.black[v] and out_in_R.get(v, 0) >= 2:
                        assert v not in critR
                for (y, z) in st.R:
                    if st.black[y]:
                        for e in heads.get(y, []):
                            assert st.crit(e) == frozenset({e[0]})

    def test_swaps_return_edges_off_the_2_core(self):
        # from `initial_removal` on, no one-for-one swap has returned an
        # edge of R's 2-core, so a tag that told cycle edges apart would
        # still read growth-swap: every five-vertex D(2,2), which holds the
        # golden growth-swap digraph, and seeded draws that allow digons
        rng = random.Random(38)
        runs = [(D, 2) for D in d22_with_digons(5)]
        for _ in range(400):
            k = rng.choice((2, 3))
            runs.append((random_dkk(rng, rng.randint(5, 12), k), k))
        swaps = 0
        for D, k in runs:
            state = initial_removal(D, k)
            while (move := find_improvement(state)) is not None:
                if len(move.kept) == len(move.dropped) == 1:
                    assert move.kept[0] not in r_core_by_passes(state.R)
                    swaps += 1
                state.apply(move)
        assert swaps

    def test_member_of_lower_class_untouched(self):
        D = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        rest, R = peel_to_lower_class(D, 2)
        assert R == frozenset()
