"""Pinned witnesses: every returned cut, trace, peel and split, byte for byte.

`golden_corpus.json` stores, for a fixed set of instances, what each method
returns: X and the full trace for d11/d11c, X and each cycle step's F_C for
d22, X for acyclic, R and the move trace for peel, X and D1 for split.  It
also stores each instance's edges, and (family, n, k, seed) for the seeded
random ones, so a change to a generator shows up as well.

A trace is a list of `Step`s, each stored as [tag, kept, dropped].  A d11
or d11c step keeps the edges it banks and drops the other edges it deletes;
an oracle-base step keeps a maximum cut of its piece and drops the rest of
the piece.  A peel move keeps the edges it returns to the remainder and
drops the edges it adds to R.

A refactor must reproduce the file exactly.  A change that alters a witness
on purpose rewrites the file and says so in CHANGES.md:

    python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dicuts.colorcut import dicut_acyclic, dicut_d22  # noqa: E402
from dicuts.d11 import dicut_d11, dicut_d11_connected  # noqa: E402
from dicuts.decompose import split_dkk  # noqa: E402
from dicuts.digraph import Digraph, class_partition  # noqa: E402
from dicuts.generators import (  # noqa: E402
    gen_example1,
    gen_example2,
    gen_random_family,
    gen_regular_tournament,
)
from dicuts.peel import peel_to_lower_class  # noqa: E402
from reference import PATTERN_INSTANCES, dense_d22, triangle_chain  # noqa: E402

CORPUS = Path(__file__).with_name("golden_corpus.json")

D11_TAGS = {"leaf-in-minus", "leaf-in-plus", "even-cycle", "v0-attach-source",
            "v0-attach-with-inedge", "path-or-cycle", "multiedge-in-M",
            "gamma-cycle"}

# (family, n, k, seed) of the seeded random instances
RANDOM_DRAWS = (
    [("d11", n, 1, seed) for n, seed in
     ((8, 1), (12, 2), (16, 3), (20, 4), (30, 5), (40, 6), (60, 7), (80, 8))]
    + [("d11-trianglefree", n, 1, seed) for n, seed in
       ((10, 11), (20, 12), (30, 13), (50, 14))]
    + [("dkk", n, 2, seed) for n, seed in
       ((8, 21), (12, 22), (16, 23), (24, 24), (32, 25), (40, 26),
        (24, 118))]
    + [("dkk", n, 3, seed) for n, seed in ((10, 31), (16, 32), (24, 33))]
    + [("acyclic-dkk", n, k, seed) for k in (1, 2, 3) for n, seed in
       ((10, 40 + k), (20, 50 + k))]
)


def instances():
    """(name, source, digraph); source is None for the fixed instances."""
    for tag in sorted(PATTERN_INSTANCES):
        yield f"pattern:{tag}", None, PATTERN_INSTANCES[tag]
    # the mirrored instances run each pattern on the reversed digraph
    for tag in sorted(PATTERN_INSTANCES):
        yield f"pattern:{tag}:reversed", None, \
            PATTERN_INSTANCES[tag].reverse()
    for k in (1, 2, 3):
        yield f"example1:{k}", None, gen_example1(k)
    yield "example2", None, gen_example2()
    for k in (2, 3):
        yield f"tournament:{k}", None, gen_regular_tournament(k)
    for t in (2, 3, 4, 5):
        yield f"triangle-chain:{t}", None, triangle_chain(t)
    for n, seed in ((20, 1), (30, 2)):
        yield f"dense-d22:{n}:{seed}", None, dense_d22(n, seed)
    # the one D(2,2) digraph on 5 vertices whose peel2 takes a growth-swap
    yield "growth-swap", None, Digraph(5, [
        (0, 3), (0, 4), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3),
        (3, 0), (3, 2), (4, 0), (4, 1)])
    for family, n, k, seed in RANDOM_DRAWS:
        yield (f"random:{family}:{n}:{k}:{seed}",
               {"family": family, "n": n, "k": k, "seed": seed},
               gen_random_family(family, n, k, seed))


def _edges(es) -> list:
    return [list(e) for e in es]


def outputs(D: Digraph) -> dict:
    """Every method whose precondition D meets, and what it returns."""
    out = {}
    if class_partition(D, 1, 1) is not None and not D.has_digon():
        trace: list = []
        out["d11"] = {"X": dicut_d11(D, trace).X, "trace": trace}
        if D.is_weakly_connected() and not (
                D.m == 3 and len(D.triangles()) == 1):
            trace = []
            out["d11c"] = {"X": dicut_d11_connected(D, trace).X,
                           "trace": trace}
    if class_partition(D, 2, 2) is not None:
        steps: list = []
        out["d22"] = {"X": dicut_d22(D, steps).X,
                      "F_C": [_edges(s.kept) for s in steps]}
    if D.is_acyclic():
        k = max([1] + [min(D.in_deg(v), D.out_deg(v)) for v in range(D.n)])
        out["acyclic"] = {"k": k, "X": dicut_acyclic(D, k).X}
    for k in (2, 3):
        if class_partition(D, k, k) is not None:
            trace = []
            _, R = peel_to_lower_class(D, k, trace)
            out[f"peel{k}"] = {"R": _edges(sorted(R)), "trace": trace}
            split = split_dkk(D, 1, k - 1)
            out[f"split1+{k - 1}"] = {"X": split.X,
                                      "D1": _edges(split.D1.edges)}
    # tuples become lists, exactly as they round-trip through the file
    return json.loads(json.dumps(out))


def build_corpus() -> dict:
    return {"instances": [
        {"name": name, "source": source, "n": D.n, "edges": _edges(D.edges),
         "outputs": outputs(D)}
        for name, source, D in instances()]}


def render() -> bytes:
    """The corpus file's bytes, built afresh: one instance per line, so a
    re-blessed witness reads as a small diff."""
    lines = [json.dumps(inst, separators=(",", ":"))
             for inst in build_corpus()["instances"]]
    return ('{"instances":[\n' + ",\n".join(lines) + "\n]}\n").encode("ascii")


def _stored() -> dict:
    with open(CORPUS, encoding="ascii") as fh:
        return json.load(fh)


def test_corpus_covers_every_method_and_reducing_pair_tag():
    stored = _stored()["instances"]
    methods = {m for inst in stored for m in inst["outputs"]}
    assert methods == {"d11", "d11c", "d22", "acyclic", "peel2", "peel3",
                       "split1+1", "split1+2"}
    tags = {step[0] for inst in stored
            for m in ("d11", "d11c") if m in inst["outputs"]
            for step in inst["outputs"][m]["trace"]}
    assert D11_TAGS <= tags
    assert any(inst["outputs"].get("d22", {}).get("F_C") for inst in stored)
    peel_tags = {step[0] for inst in stored
                 for m in ("peel2", "peel3") if m in inst["outputs"]
                 for step in inst["outputs"][m]["trace"]}
    assert {"return-edge", "tree-path-swap", "short-path-swap",
            "growth-swap"} <= peel_tags


def test_instances_and_witnesses_are_reproduced():
    stored = _stored()["instances"]
    fresh = build_corpus()["instances"]
    assert [inst["name"] for inst in fresh] == \
        [inst["name"] for inst in stored]
    for new, old in zip(fresh, stored):
        assert new == old, new["name"]


def test_writer_reproduces_the_file_byte_for_byte():
    assert render() == CORPUS.read_bytes()


if __name__ == "__main__":
    CORPUS.write_bytes(render())
    print(f"wrote {CORPUS} ({CORPUS.stat().st_size} bytes)")
