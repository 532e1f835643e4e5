"""Declared `InputError`s and `PreconditionError`s that no other test trips,
each raised by a small input that reaches it."""

import pytest

from dicuts.colorcut import Coloring, best_balanced_class_bipartition
from dicuts.decompose import bipartite_edge_coloring
from dicuts.digraph import (
    Digraph,
    InputError,
    PreconditionError,
    class_partition,
    cut_from_partition,
    is_p3_free,
    parse_dg,
)
from dicuts.generators import gen_random_family, gen_regular_tournament
from dicuts.peel import RemovalState

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
