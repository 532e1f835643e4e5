"""Declared `InputError`s and `PreconditionError`s that no other test trips,
each raised by a small input that reaches it; and the runtime certificates
(`AlgorithmBugError`) that no other test trips, each reached by a bad
argument to an internal helper or by a patched helper."""

import pytest

from dicuts import colorcut, d11, decompose, generators, peel
from dicuts.colorcut import Coloring, best_balanced_class_bipartition
from dicuts.decompose import bipartite_edge_coloring
from dicuts.digraph import (
    AlgorithmBugError,
    Digraph,
    InputError,
    PreconditionError,
    Step,
    class_partition,
    cut_from_partition,
    is_p3_free,
    parse_dg,
)
from dicuts.generators import gen_random_family, gen_regular_tournament
from dicuts.peel import RemovalState
from reference import PATTERN_INSTANCES

PATH = Digraph(3, [(0, 1), (1, 2)])

# (id, call, the message it raises)
DECLARED_ERRORS = [
    ("negative-vertex-count", lambda: Digraph(-1, []), "non-negative"),
    ("without-foreign-edge", lambda: PATH.without_edges([(2, 0)]),
     "not in digraph"),
    ("p3-free-foreign-edge", lambda: is_p3_free(PATH, [(2, 0)]),
     "not in digraph"),
    ("removal-foreign-edge", lambda: RemovalState(PATH, 2, {(0, 2)}),
     "not in digraph"),
    ("removal-edge-outside", lambda: RemovalState(PATH, 2, {(0, 5)}),
     "not in digraph"),
    ("negative-class-bound", lambda: class_partition(PATH, -1, 0),
     "non-negative"),
    ("cut-vertex-outside", lambda: cut_from_partition(PATH, [PATH.n]),
     "vertex outside"),
    ("cut-vertex-float", lambda: cut_from_partition(PATH, [1.5]),
     "integer vertex ids"),
    ("cut-vertex-string", lambda: cut_from_partition(PATH, ["a"]),
     "integer vertex ids"),
    ("one-field-header", lambda: parse_dg("5"), "header must be 'n m'"),
    ("three-field-header", lambda: parse_dg("5 0 0"),
     "header must be 'n m'"),
    ("non-numeric-header", lambda: parse_dg("a 1\n0 1\n"), "non-numeric"),
    ("three-field-edge-line", lambda: parse_dg("3 1\n0 1 2\n"),
     "bad edge line"),
    ("tournament-k-0", lambda: gen_regular_tournament(0), "k must be"),
    ("no-triangles", lambda: gen_random_family("disjoint-triangles", 0),
     "at least one triangle"),
    ("no-vertices", lambda: gen_random_family("d11", 0), "n must be"),
    ("negative-k", lambda: gen_random_family("dkk", 5, -1), "non-negative"),
    ("edge-coloring-out-of-range",
     lambda: bipartite_edge_coloring(1, 1, [(0, 1)], 1), "out of range"),
    ("one-color-class", lambda: best_balanced_class_bipartition(
        Coloring((0, 0), 1), [(0, 1)]), "two color classes"),
    ("improper-coloring", lambda: best_balanced_class_bipartition(
        Coloring((0, 0, 1), 2), [(0, 1)]), "not proper"),
]


@pytest.mark.parametrize("call, message",
                         [case[1:] for case in DECLARED_ERRORS],
                         ids=[case[0] for case in DECLARED_ERRORS])
def test_declared_error(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_removal_state_refuses_an_R_left_outside_the_lower_class():
    # the empty R leaves vertex 2 with in- and out-degree 2 at k = 2: the
    # caller's R is at fault, not the algorithm
    D = Digraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    with pytest.raises(PreconditionError,
                       match=r"remainder leaves D\(1,1\) at vertex 2"):
        RemovalState(D, 2, set())


LONG_PATH = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def _undo_a_removal(monkeypatch):
    # a "move" that returns an edge of R and removes it again
    state = peel.initial_removal(gen_random_family("dkk", 14, 2, 5), 2)
    e = min(state.R)
    state.apply(Step("x", (e,), (e,)))


def _peel_without_moves(monkeypatch):
    monkeypatch.setattr(peel, "find_improvement", lambda state: None)
    peel.peel_to_lower_class(gen_random_family("dkk", 14, 2, 5), 2)


def _peel_with_idle_moves(monkeypatch):
    monkeypatch.setattr(peel, "find_improvement",
                        lambda state: Step("x", (), ()))
    monkeypatch.setattr(peel.RemovalState, "apply", lambda self, move: None)
    peel.peel_to_lower_class(gen_random_family("dkk", 14, 2, 5), 2)


def _peel_over_its_bound(monkeypatch):
    # R takes every edge and no move shrinks it, yet Crit(R) is large enough
    monkeypatch.setattr(peel, "initial_removal",
                        lambda D, k: RemovalState(D, k, set(D.edges)))
    monkeypatch.setattr(peel, "find_improvement", lambda state: None)
    monkeypatch.setattr(peel.RemovalState, "crit_R",
                        lambda self: frozenset(range(len(self.R))))
    peel.peel_to_lower_class(gen_random_family("dkk", 14, 2, 5), 2)


def _balanced_split_below_guarantee(monkeypatch):
    # only the split {0, 1} | {2, 3} is scored, and it crosses no edge
    monkeypatch.setattr(colorcut, "combinations", lambda items, r: [(0, 1)])
    best_balanced_class_bipartition(Coloring((0, 1, 2, 3), 4),
                                    [(0, 1), (2, 3)])


def _example_outside_class(gen):
    def run(monkeypatch):
        monkeypatch.setattr(generators, "class_partition", lambda *a: None)
        gen()
    return run


def _acyclic_with_one_color(monkeypatch):
    monkeypatch.setattr(colorcut, "greedy_color",
                        lambda n, edges, most: Coloring((0,) * n, 1))
    colorcut.dicut_acyclic(
        Digraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]), 2)


def _d22_on_a_foreign_cycle(monkeypatch):
    monkeypatch.setattr(colorcut, "shortest_bipartite_cycle",
                        lambda adj, start: [0, 1, 2, 3])
    colorcut.dicut_d22(gen_regular_tournament(2))


def _split_with_one_color(D):
    def run(monkeypatch):
        monkeypatch.setattr(decompose, "bipartite_edge_coloring",
                            lambda nx, ny, bip, p: [1] * len(bip))
        decompose.split_dkk(D, 1, 1)
    return run


def _gamma_on_a_forest(monkeypatch):
    # M with no cycle leaves the last pattern nothing to build
    monkeypatch.setattr(d11, "shortest_bipartite_cycle", lambda adj: None)
    d11.find_reducing_pair(PATTERN_INSTANCES["gamma-cycle"])


def _pair(A, B):
    return lambda monkeypatch: d11.validate_reducing_pair(LONG_PATH, A, B, "t")


# (id, run(monkeypatch), the message it raises)
RUNTIME_CHECKS = [
    ("pair-empty-A", _pair([], []), "t: empty A"),
    ("pair-A-meets-B", _pair([(0, 1)], [(0, 1)]), "t: A and B intersect"),
    ("pair-edge-outside", _pair([(0, 2)], []),
     "t: pair uses edges outside D"),
    ("pair-uncovered-in-edge", _pair([(1, 2)], []),
     r"t: uncovered P3 \(0, 1\) -> \(1, 2\)"),
    ("pair-uncovered-out-edge", _pair([(1, 2)], [(0, 1)]),
     r"t: uncovered P3 \(1, 2\) -> \(2, 3\)"),
    ("cycle-order-on-a-path",
     lambda monkeypatch: d11._directed_cycle_order(LONG_PATH, 0),
     "component is not a directed cycle"),
    # 0 -> 1 -> 2 -> 3 -> 1: the walk from 0 never comes back to 0
    ("cycle-order-off-the-cycle",
     lambda monkeypatch: d11._directed_cycle_order(
         Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)]), 0),
     "component is not a directed cycle"),
    ("minus-side-without-a-set",
     lambda monkeypatch: d11._minus_side(LONG_PATH, [0, 1, 2], {0}, {0}),
     r"no \(l\+1\)-set with include=\[0\] exclude=\[0\]"),
    # a 4-cycle linked at positions 0 and 2 has only odd gaps between links
    ("multiedge-without-an-even-gap",
     lambda monkeypatch: d11._multiedge_in_M(
         LONG_PATH, [[0, 1, 2, 3]], [[4]], {(0, 0): [(0, 4), (2, 4)]}),
     "no even gap between parallel M-links"),
    ("gamma-on-a-forest", _gamma_on_a_forest,
     "no reducing pair found where one must exist"),
    ("peel-move-keeps-potential", _undo_a_removal,
     "move x did not decrease the potential"),
    ("peel-stops-early", _peel_without_moves, r"fixpoint has \|Crit\(R\)\|"),
    ("peel-moves-forever", _peel_with_idle_moves,
     "improvement loop exceeded the potential bound"),
    ("acyclic-improper-coloring", _acyclic_with_one_color,
     "combined coloring is not proper"),
    ("d22-cycle-outside-F", _d22_on_a_foreign_cycle,
     "cycle edge missing from F"),
    ("split-over-budget",
     _split_with_one_color(gen_random_family("dkk", 12, 2, 0)),
     "X-side in-degree budget violated"),
    # vertex 0 sends both its B edges into D1 and has no star to spill to
    ("split-over-Y-budget", _split_with_one_color(
        Digraph(6, [(3, 0), (4, 0), (5, 0), (0, 1), (0, 2)])),
     "Y-side out-degree budget violated"),
    ("peel-over-its-bound", _peel_over_its_bound,
     r"fixpoint \|R\| = 23 exceeds"),
    ("balanced-split-below-guarantee", _balanced_split_below_guarantee,
     "balanced split crosses 0 < guaranteed 4/3"),
    ("example1-outside-class", _example_outside_class(
        lambda: generators.gen_example1(1)),
     "chorded-path chain construction broken"),
    ("example2-outside-class",
     _example_outside_class(generators.gen_example2),
     "double-tournament construction broken"),
]


@pytest.mark.parametrize("run, message",
                         [case[1:] for case in RUNTIME_CHECKS],
                         ids=[case[0] for case in RUNTIME_CHECKS])
def test_runtime_check(run, message, monkeypatch):
    with pytest.raises(AlgorithmBugError, match=message):
        run(monkeypatch)
