"""One op, as `dicuts verify` runs it, and the check of its result.

`execute` is the timed part.  A cut op is the body of `dicuts verify` on
`.dg` text instead of a file: parse it, run the CLI's own method dispatch
(`cli._run_method`, which also computes the exact bound), verify the
certificate and ask the CLI's oracle step for the optimum (n <= 26).  Peel
and split ops call `peel_to_lower_class` and `split_dkk`.  `checked` then
runs the benchmark's own checker and reduces the result to the numbers and
the witness text the metrics need.  Program functions are looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Optional

from dicuts import cli, decompose, digraph, peel

import check
from instances import Op, dense_dkk, instance, sparse_d11


@dataclass(frozen=True)
class Result:
    """What the program returned for one op."""

    kind: str                     # cut, peel, split
    value: Any                    # certificate, (rest, R) or split result
    bound: Fraction = Fraction(0)
    opt: Optional[int] = None


@dataclass(frozen=True)
class Outcome:
    """A checked result: the numbers the metrics sum and the witness text."""

    m: int
    witness: str
    cut: int = 0
    opt: Optional[int] = None
    removed: int = 0


def execute(op: Op) -> Result:
    """Run one op."""
    D = digraph.parse_dg(op.inst.text)
    if op.method == "peel":
        return Result("peel", peel.peel_to_lower_class(D, op.k))
    if op.method == "split":
        return Result("split", decompose.split_dkk(D, *op.split))
    cert, bound = cli._run_method(D, op.method, op.k or None)
    cert.verify(D)
    return Result("cut", cert, bound, cli._oracle_opt(D))


def _edges(edges) -> str:
    return ";".join(f"{u},{v}" for u, v in edges)


def checked(op: Op, res: Result) -> Outcome:
    """Check `res` against `op`'s input; raises check.CheckFailed."""
    n, edges, m = op.inst.n, op.inst.edges, len(op.inst.edges)
    if res.kind == "cut":
        c = res.value
        check.check_cut(n, edges, c.X, c.Y, c.cut_edges, c.size, res.bound, res.opt)
        return Outcome(m, "X=" + ",".join(map(str, c.X)), cut=c.size, opt=res.opt)
    if res.kind == "peel":
        rest, R = res.value
        R = sorted(R)
        check.check_peel(n, edges, op.k, rest.edges, R)
        return Outcome(m, "R=" + _edges(R), removed=len(R))
    s = res.value
    check.check_split(n, edges, *op.split, s.X, s.Y, s.D1.edges, s.D2.edges)
    return Outcome(m, "X=" + ",".join(map(str, s.X)) + " D1=" + _edges(s.D1.edges))


def self_test() -> list[str]:
    """Run one op of each kind, check it, then tamper with its certificate;
    returns what went wrong (empty when the checker accepts the genuine
    results and rejects every tampered one)."""
    rng = random.Random("self-test")
    sparse = instance("self-test-d11", 30, sparse_d11(rng, 30))
    dense = instance("self-test-d22", 16, dense_dkk(rng, 16, 2))
    cut_op, peel_op = Op("d11", sparse), Op("peel", dense, k=2)
    split_op = Op("split", dense, split=(1, 1))
    cut, peeled, split = execute(cut_op), execute(peel_op), execute(split_op)
    problems = []
    for op, res in ((cut_op, cut), (peel_op, peeled), (split_op, split)):
        try:
            checked(op, res)
        except check.CheckFailed as exc:
            problems.append(f"genuine {op.method} result rejected: {exc}")

    c = cut.value
    rest, R = peeled.value
    back = min(R)
    s = split.value
    tampered = [
        ("cut with X changed", cut_op,
         replace(cut, value=replace(c, X=c.X[1:], Y=tuple(sorted(c.Y + c.X[:1]))))),
        ("empty cut", cut_op,
         replace(cut, value=replace(c, X=(), Y=tuple(range(sparse.n)),
                                    cut_edges=(), size=0))),
        ("peel with an edge returned", peel_op,
         replace(peeled, value=(digraph.Digraph(dense.n, rest.edges + (back,)),
                                R - {back}))),
        ("split with an edge in both parts", split_op,
         replace(split, value=replace(s, D1=digraph.Digraph(
             dense.n, set(s.D1.edges) | {s.D2.edges[0]})))),
    ]
    for what, op, res in tampered:
        try:
            checked(op, res)
        except check.CheckFailed:
            continue
        problems.append(f"checker accepted a tampered certificate: {what}")
    return problems
