"""Command-line front end: generate, check, cut, decompose, peel, verify,
and an empirical explorer for the open-problem searches.

Report lines are tab-separated and stable:
instance  method  n  m  size  bound_num/bound_den  oracle  pass
Bounds are exact rationals, never floats.  Each method checks its own bound,
so every printed line passes; a miss is an `AlgorithmBugError` (exit 4).
The oracle column of `verify` is the exact optimum for n <= 26, read off
the exact search's kernel as a number, and `-` past that guard.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import oracle
from .colorcut import dicut_acyclic, dicut_d22
from .d11 import dicut_d11, dicut_d11_connected
from .decompose import split_dkk
from .digraph import (
    AlgorithmBugError,
    Digraph,
    InputError,
    PreconditionError,
    ResourceLimitError,
    class_partition,
    format_dg,
    load_dg,
    save_dg,
)
from .generators import (
    gen_example1,
    gen_example2,
    gen_random_family,
    gen_regular_tournament,
)
from .peel import peel_to_lower_class

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_BUG = 4


# method: (D, k) -> its certificate, which carries the bound it met as a
# Fraction.  The entries read the algorithms from this module's globals at
# call time, so a wrapper bound over one of these names sees the CLI's calls.
METHODS = {
    "d11": lambda D, k: dicut_d11(D),
    "d11c": lambda D, k: dicut_d11_connected(D),
    "acyclic": lambda D, k: dicut_acyclic(D, k),
    "d22": lambda D, k: dicut_d22(D),
    "oracle": lambda D, k: oracle.max_dicut_exact(D),
}


def _run_method(D: Digraph, method: str, k: int | None):
    """(certificate, the bound it carries) of a `METHODS` key; only acyclic
    reads k."""
    if method == "acyclic" and k is None:
        # the least k >= 1 with D in D(k,k): every v has min(d-, d+) <= k
        k = max([1] + [min(D.in_deg(v), D.out_deg(v)) for v in D.vertices])
    elif method != "acyclic" and k is not None:
        raise InputError("--k applies to acyclic only")
    cert = METHODS[method](D, k)
    return cert, cert.bound


# the options each family of `gen` reads, in the order its header names them,
# and the value each takes when it is not given
GEN_READS = {"example1": "k", "example2": "", "tournament": "k",
             "d11": "n seed", "d11-trianglefree": "n seed",
             "dkk": "k n seed", "acyclic-dkk": "k n seed",
             "disjoint-triangles": "t"}
GEN_DEFAULTS = {"k": 1, "n": 10, "seed": 0, "t": 10}


def _cmd_gen(args) -> int:
    reads = GEN_READS[args.family].split()
    value = dict(GEN_DEFAULTS)
    for opt in GEN_DEFAULTS:
        given = getattr(args, opt)
        if given is None:
            continue
        if opt not in reads:
            users = ", ".join(family for family, opts in GEN_READS.items()
                              if opt in opts.split())
            raise InputError(f"--{opt} applies to {users} only")
        value[opt] = given
    if args.family == "example1":
        D = gen_example1(value["k"])
    elif args.family == "example2":
        D = gen_example2()
    elif args.family == "tournament":
        D = gen_regular_tournament(value["k"])
    else:  # t is the size of disjoint-triangles
        size = value["t" if args.family == "disjoint-triangles" else "n"]
        D = gen_random_family(args.family, size, value["k"], value["seed"])
    comment = " ".join([f"family={args.family}"] + [
        f"{opt}={value[opt]}" for opt in reads])
    if args.output:
        save_dg(D, args.output, comment)
    else:
        sys.stdout.write(format_dg(D, comment))
    return EXIT_OK


def _cmd_check(args) -> int:
    D = load_dg(args.file)
    part = class_partition(D, args.k, args.l)
    if part is None:
        print(f"not in D({args.k},{args.l})")
        return EXIT_FAIL
    print(f"in D({args.k},{args.l}); |X|={len(part.X)} |Y|={len(part.Y)}")
    return EXIT_OK


def _oracle_opt(D: Digraph) -> int | None:
    """The maximum directed cut size of D, read off the exact search's
    kernel, or None past its vertex guard."""
    try:
        return oracle.max_dicut_mask(D.n, D.edges)[0]
    except ResourceLimitError:
        return None


def _cmd_cut(args) -> int:
    """`cut`, and `verify`, which also checks the cut against the optimum."""
    D = load_dg(args.file)
    cert, bound = _run_method(D, args.method, args.k)
    opt = None
    if args.cmd == "verify":
        cert.verify(D)
        # the oracle method's cut is the exact search's, so it is the optimum
        opt = cert.size if args.method == "oracle" else _oracle_opt(D)
        if opt is not None and cert.size > opt:
            raise AlgorithmBugError(f"cut of {cert.size} exceeds the optimum {opt}")
    print(f"{args.file}\t{args.method}\t{D.n}\t{D.m}\t{cert.size}\t{bound.numerator}"
          f"/{bound.denominator}\t{'-' if opt is None else opt}\tpass")
    if args.cmd == "cut" and args.edges:
        print("X:", " ".join(map(str, cert.X)))
        for u, v in cert.cut_edges:
            print(u, v)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    D = load_dg(args.file)
    p1, p2 = args.split
    res = split_dkk(D, p1, p2, balance_f=args.balance)
    head = (f"split p1={p1} p2={p2} of {args.file}; "
            f"X={','.join(map(str, res.X))} Y={','.join(map(str, res.Y))}")
    save_dg(res.D1, f"{args.output}.1.dg", head + " (part 1)")
    save_dg(res.D2, f"{args.output}.2.dg", head + " (part 2)")
    print(f"{res.D1.m}\t{res.D2.m}")
    return EXIT_OK


def _cmd_peel(args) -> int:
    D = load_dg(args.file)
    trace: list = []
    rest, R = peel_to_lower_class(D, args.k, trace)
    save_dg(rest, f"{args.output}.rest.dg",
            f"peel k={args.k} of {args.file}")
    save_dg(Digraph._derived(D.n, tuple(sorted(R))),
            f"{args.output}.removed.dg",
            f"removed edges, peel k={args.k} of {args.file}")
    print(f"removed\t{len(R)}\tbound\t{2 * D.m // (2 * args.k + 1)}")
    if args.verbose:
        for tag, rem, add in trace:
            print(f"move\t{tag}\t-{list(rem)}\t+{list(add)}")
    return EXIT_OK


def _cmd_explore(args) -> int:
    rng = random.Random(args.seed)
    p = args.problem
    found_counterexample = False
    low = 3 if p < 4 else 4  # least n drawn
    if args.max_n < low:
        raise InputError(f"--max-n must be at least {low} for problem {p}")
    if args.budget < 1:
        raise InputError("--budget must be at least 1")
    if args.max_n > oracle.MAX_DICUT_VERTICES:  # every oracle refuses more
        raise ResourceLimitError(
            f"--max-n exceeds the oracle guard {oracle.MAX_DICUT_VERTICES}")
    if p == 4:
        print("problem 4 is a complexity question; out of scope")
        return EXIT_OK

    def members(family: str, k: int, high: int):
        """The members with an edge among the budget's draws, n in low..high."""
        for _ in range(args.budget):
            D = gen_random_family(family, rng.randint(low, high), k,
                                  rng.randrange(1 << 30))
            if D.m:
                yield D

    if p == 1:
        # smallest cut ratio of connected D(1,1) digraphs, tracked by m
        best: dict[int, Fraction] = {}
        for D in members("d11", 1, args.max_n):
            if not D.is_weakly_connected():
                continue
            r = Fraction(oracle.max_dicut_mask(D.n, D.edges)[0], D.m)
            best[D.m] = min(r, best.get(D.m, r))
        for m in sorted(best):
            print(f"m={m}\tc_max>={best[m].numerator}/{best[m].denominator}")
    elif p == 2:
        # does max cut reach (2m + s)/5 on triangle-free D(1,1),
        # s = sources + sinks?
        for D in members("d11-trianglefree", 1, args.max_n):
            opt = oracle.max_dicut_mask(D.n, D.edges)[0]
            s = sum(1 for v in range(D.n)
                    if (D.in_deg(v) == 0) != (D.out_deg(v) == 0))
            if 5 * opt < 2 * D.m + s:
                print(f"counterexample\tn={D.n}\tm={D.m}\ts={s}\topt={opt}")
                print(format_dg(D))
                found_counterexample = True
        if not found_counterexample:
            print("no counterexample to (2m+s)/5 found")
    elif p == 3:
        for D in members("d11-trianglefree", 1, args.max_n):
            opt = oracle.max_dicut_mask(D.n, D.edges)[0]
            if opt == -(-2 * D.m // 5):
                print(f"tight\tn={D.n}\tm={D.m}\topt={opt}")
    elif p == 5:
        worst = Fraction(0)
        for D in members("dkk", 2, args.max_n):
            if D.m > 24:
                continue
            R = oracle.min_removal_exact(D, 2)
            worst = max(worst, Fraction(len(R), D.m))
        print(f"lambda>={worst.numerator}/{worst.denominator}")
    elif p == 6:
        for D in members("dkk", 2,
                         min(args.max_n, oracle.MAX_COVER_VERTICES)):
            if oracle.decompose_into_cuts(D, 4) is None:
                print(f"needs>=5 cuts\tn={D.n}\tm={D.m}")
                print(format_dg(D))
                found_counterexample = True
        if not found_counterexample:
            print("all sampled D(2,2) covered by 4 cuts")
    elif p == 7:
        for D in members("dkk", 3, args.max_n):
            opt = oracle.max_dicut_mask(D.n, D.edges)[0]
            if 7 * opt < 2 * D.m:
                print(f"counterexample\tn={D.n}\tm={D.m}\topt={opt}")
                print(format_dg(D))
                found_counterexample = True
        if not found_counterexample:
            print("no counterexample to 2m/7 found")
    else:  # p == 8; argparse admits only 1..8
        k = 2
        bound = Fraction(1, 4) + Fraction(1, 8 * k + 4)
        best = Fraction(1)
        for D in members("dkk", k, args.max_n):
            opt = oracle.max_dicut_mask(D.n, D.edges)[0]
            r = Fraction(opt, D.m)
            best = min(best, r)
            if r < bound:
                print(f"c_max below 1/4+1/(8k+4)\tn={D.n}\tm={D.m}\topt={opt}")
                found_counterexample = True
        print(f"min c_max seen: {best.numerator}/{best.denominator}")
    return EXIT_FAIL if found_counterexample else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dicuts")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("family", choices=list(GEN_READS))
    g.add_argument("--k", type=int, help="class parameter (default 1)")
    g.add_argument("--n", type=int, help="vertex count (default 10)")
    g.add_argument("--t", type=int,
                   help="triangle count for disjoint-triangles (default 10)")
    g.add_argument("--seed", type=int, help="random seed (default 0)")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("check", help="class membership test")
    c.add_argument("file")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.set_defaults(func=_cmd_check)

    for name in ("cut", "verify"):
        s = sub.add_parser(name)
        s.add_argument("file")
        s.add_argument("--method", required=True,
                       choices=list(METHODS))
        s.add_argument("--k", type=int, default=None)
        if name == "cut":
            s.add_argument("--edges", action="store_true",
                           help="also print the witness partition and edges")
        s.set_defaults(func=_cmd_cut)

    d = sub.add_parser("decompose")
    d.add_argument("file")
    d.add_argument("--split", nargs=2, type=int, required=True,
                   metavar=("P1", "P2"))
    d.add_argument("--balance", action="store_true")
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=_cmd_decompose)

    pe = sub.add_parser("peel")
    pe.add_argument("file")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("-o", "--output", required=True)
    pe.add_argument("-v", "--verbose", action="store_true")
    pe.set_defaults(func=_cmd_peel)

    e = sub.add_parser("explore")
    e.add_argument("--problem", type=int, required=True, choices=range(1, 9))
    e.add_argument("--max-n", type=int, default=10)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--budget", type=int, default=100)
    e.set_defaults(func=_cmd_explore)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AlgorithmBugError as exc:
        print(f"internal error: {exc}; input: {getattr(args, 'file', '-')}",
              file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
