import ast
import contextlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from reference import book

from dicuts import cli, colorcut, d11, oracle
from dicuts.cli import main
from dicuts.digraph import (AlgorithmBugError, Digraph, cut_from_banked,
                            format_dg, load_dg, save_dg)
from dicuts.enumeration import d22_with_digons, digonfree_d11
from dicuts.generators import (gen_example1, gen_random_family,
                               gen_regular_tournament)

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(TESTS).parent / "src")


# `gen` options of each family, and the header they give: only the options
# the family reads, with the defaults filled in
GEN_HEADERS = [
    (["example1", "--k", "2"], "family=example1 k=2"),
    (["example2"], "family=example2"),
    (["tournament", "--k", "2"], "family=tournament k=2"),
    (["d11"], "family=d11 n=10 seed=0"),
    (["d11-trianglefree", "--n", "8", "--seed", "3"],
     "family=d11-trianglefree n=8 seed=3"),
    (["dkk", "--k", "2", "--n", "12", "--seed", "1"],
     "family=dkk k=2 n=12 seed=1"),
    (["acyclic-dkk", "--k", "3", "--n", "9", "--seed", "4"],
     "family=acyclic-dkk k=3 n=9 seed=4"),
    (["disjoint-triangles", "--t", "3"], "family=disjoint-triangles t=3"),
]

# an option each family does not read, and the families that do read it
GEN_REFUSED = [
    (["example1", "--seed", "4"], "--seed applies to d11, d11-trianglefree"),
    (["example2", "--k", "2"], "--k applies to example1, tournament"),
    (["tournament", "--k", "2", "--n", "40"], "--n applies to d11,"),
    (["d11", "--k", "3"], "--k applies to example1, tournament, dkk"),
    (["d11-trianglefree", "--k", "2"], "--k applies to example1, tournament"),
    (["dkk", "--t", "2"], "--t applies to disjoint-triangles"),
    (["acyclic-dkk", "--t", "2"], "--t applies to disjoint-triangles"),
    (["disjoint-triangles", "--n", "3"], "--n applies to d11,"),
]


@pytest.fixture
def t5_file(tmp_path):
    path = tmp_path / "t5.dg"
    assert main(["gen", "tournament", "--k", "2", "-o", str(path)]) == 0
    return str(path)


class TestGen:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ex1.dg"
        assert main(["gen", "example1", "--k", "1", "-o", str(path)]) == 0
        assert load_dg(path).edges == gen_example1(1).edges

    def test_stdout(self, capsys):
        assert main(["gen", "tournament", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "3 3" in out

    def test_t_sets_and_records_the_triangle_count(self, capsys):
        assert main(["gen", "disjoint-triangles", "--t", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# family=disjoint-triangles t=2"
        assert lines[1] == "6 6"

    @pytest.mark.parametrize("argv, header", GEN_HEADERS,
                             ids=[argv[0] for argv, _ in GEN_HEADERS])
    def test_header_records_what_the_family_reads(self, argv, header,
                                                  capsys):
        assert main(["gen", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# " + header

    @pytest.mark.parametrize("argv, message", GEN_REFUSED,
                             ids=[argv[0] for argv, _ in GEN_REFUSED])
    def test_refuses_an_option_the_family_does_not_read(self, argv, message,
                                                       capsys):
        assert main(["gen", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("family", ["d11", "tournament", "example1"])
    def test_t_rejected_for_other_families(self, family, capsys):
        assert main(["gen", family, "--t", "5"]) == 2
        assert "--t applies to disjoint-triangles only" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["example1", "--k", "174763"], ["tournament", "--k", "524288"],
        ["disjoint-triangles", "--t", "349526"], ["d11", "--n", "1048577"]],
        ids=lambda argv: argv[0])
    def test_past_the_vertex_guard(self, argv, capsys):
        assert main(["gen", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "resource guard: more than 1048576 vertices" in err

    def test_tournament_past_the_edge_guard(self, capsys):
        # 1 048 575 vertices pass the vertex guard, but n * k edges do not
        assert main(["gen", "tournament", "--k", "524287"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "resource guard: 549754241025 edges exceed guard 1048576" in err


class TestCheck:
    def test_member(self, t5_file):
        assert main(["check", t5_file, "--k", "2", "--l", "2"]) == 0

    def test_non_member(self, t5_file):
        assert main(["check", t5_file, "--k", "1", "--l", "1"]) == 1

    def test_missing_file(self):
        assert main(["check", "no-such.dg", "--k", "1", "--l", "1"]) == 2


# each method's bound as its theorem states it, on an instance of its class:
# example 1 at k = 1 has k + 1 = 2 disjoint triangles, the transitive
# 5-tournament is acyclic D(2,2), and T5's best cut has 3 of its 10 edges
METHOD_BOUNDS = {
    "d11": (lambda: gen_example1(1), lambda m: Fraction(2 * m - 2, 5)),
    "d11c": (lambda: gen_example1(1), lambda m: Fraction(7 * m, 20)),
    "acyclic": (lambda: Digraph(5, [(u, v) for u in range(5)
                                    for v in range(u + 1, 5)]),
                lambda m: Fraction((2 + 1) * m, 4 * 2 + 2)),
    "d22": (lambda: gen_regular_tournament(2), lambda m: Fraction(3 * m, 10)),
    "oracle": (lambda: gen_regular_tournament(2), lambda m: Fraction(3)),
}


class TestCutVerify:
    def test_report_format(self, t5_file, capsys):
        assert main(["verify", t5_file, "--method", "d22"]) == 0
        cols = capsys.readouterr().out.strip().split("\t")
        assert cols[1:] == ["d22", "5", "10", "3", "3/1", "3", "pass"]

    def test_cut_d11c_bound(self, tmp_path, capsys):
        path = tmp_path / "ex1.dg"
        main(["gen", "example1", "--k", "1", "-o", str(path)])
        assert main(["cut", str(path), "--method", "d11c"]) == 0
        assert "77/20" in capsys.readouterr().out

    def test_cut_acyclic_infers_k_and_lists_edges(self, tmp_path, capsys):
        # the transitive 5-tournament: vertex 2 has d- = d+ = 2, so k = 2
        path = tmp_path / "tt5.dg"
        save_dg(Digraph(5, [(u, v) for u in range(5)
                            for v in range(u + 1, 5)]), path)
        assert main(["cut", str(path), "--method", "acyclic", "--edges"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[1:] == [
            "acyclic", "5", "10", "6", "3/1", "-", "pass"]
        assert lines[1:] == ["X: 0 1", "0 2", "0 3", "0 4", "1 2", "1 3", "1 4"]

    def test_acyclic_k_past_the_split_guard(self, tmp_path, monkeypatch,
                                            capsys):
        # k = 10^6 asks for C(2k + 2, k + 1) splits of the colour classes
        # of a 3-edge path; the guard refuses before the first is scored
        def scored(*args):
            for group in real(*args):
                pytest.fail("a split was scored")
                yield group

        real = colorcut.combinations
        monkeypatch.setattr(colorcut, "combinations", scored)
        path = tmp_path / "path.dg"
        save_dg(Digraph(4, [(0, 1), (1, 2), (2, 3)]), path)
        assert main(["cut", str(path), "--method", "acyclic",
                     "--k", "1000000"]) == 3
        assert "split guard" in capsys.readouterr().err

    def test_non_ascii_input_exit(self, tmp_path, capsys):
        path = tmp_path / "latin1.dg"
        path.write_bytes(b"# caf\xe9\n2 1\n0 1\n")
        assert main(["cut", str(path), "--method", "d11"]) == 2
        assert "non-ASCII" in capsys.readouterr().err

    def test_precondition_exit(self, t5_file):
        # tournament on 5 is not in D(1,1)
        assert main(["cut", t5_file, "--method", "d11"]) == 2

    def test_class_checked_before_packing(self, tmp_path, monkeypatch):
        # dicut_d11 refuses a non-member before t's triangles are counted
        path = tmp_path / "t9.dg"
        assert main(["gen", "tournament", "--k", "4", "-o", str(path)]) == 0
        calls = []
        count = d11._books
        monkeypatch.setattr(d11, "_books",
                            lambda D: calls.append(D) or count(D))
        assert main(["cut", str(path), "--method", "d11"]) == 2
        assert calls == []

    def test_d11_checks_the_class_once(self, monkeypatch):
        # dicut_d11 checks the class and counts t once, for the bound its
        # certificate carries to the report; the count checks no class
        D, calls = gen_example1(3), []
        for owner, name in ((d11, "class_partition"), (Digraph, "has_digon"),
                            (d11, "_books")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, fn=fn, name=name:
                                calls.append(name) or fn(*args))
        cli._run_method(D, "d11", None)
        assert sorted(calls) == ["_books", "class_partition", "has_digon"]

    @pytest.mark.parametrize("command", ["cut", "verify"])
    @pytest.mark.parametrize("method", ["d11", "d11c"])
    def test_missed_bound_exits_4(self, command, method, tmp_path,
                                  monkeypatch, capsys):
        # a cut below its theorem's bound is a bug, never a "fail" line
        path = tmp_path / "ex1.dg"
        save_dg(gen_example1(3), path)
        monkeypatch.setattr(d11, "cut_from_banked",
                            lambda D, K, bound: cut_from_banked(D, (), bound))
        assert main([command, str(path), "--method", method]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "cut of 0 misses its bound" in err

    def test_cut_above_the_optimum_exits_4(self, t5_file, monkeypatch,
                                           capsys):
        monkeypatch.setattr(cli, "_oracle_opt", lambda D: 2)
        assert main(["verify", t5_file, "--method", "d22"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "cut of 3 exceeds the optimum 2" in err

    def test_k_refused_for_methods_that_ignore_it(self, t5_file, capsys):
        assert main(["cut", t5_file, "--method", "d22", "--k", "2"]) == 2
        assert "--k applies to acyclic only" in capsys.readouterr().err

    def test_d11_bound_on_a_book(self, tmp_path, capsys):
        # 2 001 triangles, past the packing search's guard, and t = 1:
        # the bound is (2 * 4003 - 1) / 5
        path = tmp_path / "book.dg"
        save_dg(book(2001), path)
        assert main(["verify", str(path), "--method", "d11"]) == 0
        cols = capsys.readouterr().out.strip().split("\t")
        assert cols[1:4] == ["d11", "2003", "4003"]
        assert cols[5:] == ["1601/1", "-", "pass"]

    def test_oracle_method(self, t5_file, capsys):
        # the oracle's bound is its own size, the optimum
        assert main(["verify", t5_file, "--method", "oracle"]) == 0
        cols = capsys.readouterr().out.strip().split("\t")
        assert cols[1:] == ["oracle", "5", "10", "3", "3/1", "3", "pass"]

    def test_oracle_method_verifies_with_one_search(self, t5_file,
                                                    monkeypatch):
        # the oracle method's cut is the optimum verify compares it with
        calls, kernel_calls = [], []
        search, kernel = cli.oracle.max_dicut_exact, cli.oracle.max_dicut_mask
        monkeypatch.setattr(cli.oracle, "max_dicut_exact",
                            lambda D: calls.append(D) or search(D))
        monkeypatch.setattr(cli.oracle, "max_dicut_mask",
                            lambda *a: kernel_calls.append(a) or kernel(*a))
        assert main(["verify", t5_file, "--method", "oracle"]) == 0
        assert len(calls) == len(kernel_calls) == 1

    def test_reported_optimum_is_the_exact_one(self):
        # verify reads the optimum off the exact search's kernel, with no
        # certificate; it is the size of the oracle method's certificate,
        # and None past the vertex guard
        rng = random.Random(41)
        draws = [gen_random_family(family, rng.randint(7, 20), k,
                                   rng.randrange(1 << 30))
                 for family, k in (("d11", 1), ("dkk", 2), ("acyclic-dkk", 3))
                 for _ in range(4)]
        for D in chain(digonfree_d11(6), d22_with_digons(5), draws):
            assert cli._oracle_opt(D) == oracle.max_dicut_exact(D).size
        assert cli._oracle_opt(Digraph(27, [(0, 1)])) is None

    @pytest.mark.parametrize("method", list(cli.METHODS))
    def test_reported_bound_is_the_certificates(self, method, tmp_path,
                                                capsys):
        # the printed bound is the one the certificate carries, and that is
        # its theorem's formula in m
        build, formula = METHOD_BOUNDS[method]
        D, path = build(), tmp_path / "in.dg"
        save_dg(D, path)
        assert main(["cut", str(path), "--method", method]) == 0
        printed = capsys.readouterr().out.split("\t")[5]
        cert, bound = cli._run_method(D, method, None)
        assert bound == cert.bound == formula(D.m)
        assert printed == f"{bound.numerator}/{bound.denominator}"

    @pytest.mark.parametrize("argv", [
        ["check", "--k", "1", "--l", "1"], ["cut", "--method", "d11"],
        ["verify", "--method", "d22"], ["decompose", "--split", "1", "1"],
        ["peel", "--k", "2"]], ids=lambda argv: argv[0])
    def test_resource_exit(self, argv, tmp_path, capsys):
        # a header past the vertex guard is refused before any per-vertex
        # list is built
        path = tmp_path / "huge.dg"
        path.write_text("1048577 0\n")
        argv = [argv[0], str(path), *argv[1:]]
        if argv[0] in ("decompose", "peel"):
            argv += ["-o", str(tmp_path / "out")]
        assert main(argv) == 3
        assert "resource guard" in capsys.readouterr().err

    def test_algorithm_bug_exit(self, t5_file, monkeypatch, capsys):
        def broken(D, method, k):
            raise AlgorithmBugError("pair failed validation")

        monkeypatch.setattr(cli, "_run_method", broken)
        assert main(["cut", t5_file, "--method", "d22"]) == 4
        err = capsys.readouterr().err
        assert "internal error: pair failed validation" in err
        assert t5_file in err


class TestDecomposePeel:
    def test_decompose_files(self, t5_file, tmp_path):
        prefix = str(tmp_path / "sp")
        assert main(["decompose", t5_file, "--split", "1", "1",
                     "-o", prefix]) == 0
        d1 = load_dg(prefix + ".1.dg")
        d2 = load_dg(prefix + ".2.dg")
        assert d1.m + d2.m == 10

    def test_peel_files(self, t5_file, tmp_path, capsys):
        prefix = str(tmp_path / "pe")
        assert main(["peel", t5_file, "--k", "2", "-o", prefix]) == 0
        rest = load_dg(prefix + ".rest.dg")
        removed = load_dg(prefix + ".removed.dg")
        assert rest.m + removed.m == 10
        assert "removed" in capsys.readouterr().out

    def test_peel_verbose_moves(self, tmp_path, capsys):
        # example2 needs no move at k = 2; this seeded D(2,2) draw makes
        # return-edge moves and tree-path swaps with an add
        path, prefix = str(tmp_path / "g.dg"), str(tmp_path / "pe")
        assert main(["gen", "dkk", "--k", "2", "--n", "32", "--seed", "25",
                     "-o", path]) == 0
        assert main(["peel", path, "--k", "2", "-o", prefix, "-v"]) == 0
        assert capsys.readouterr().out == (
            "removed\t6\tbound\t22\n"
            "move\treturn-edge\t-[(2, 19)]\t+[]\n"
            "move\treturn-edge\t-[(4, 8)]\t+[]\n"
            "move\ttree-path-swap\t-[(4, 5), (4, 14)]\t+[(5, 14)]\n"
            "move\ttree-path-swap\t-[(6, 22), (8, 7)]\t+[(22, 7)]\n"
            "move\ttree-path-swap\t-[(14, 27), (24, 29)]\t+[(29, 27)]\n")

    def test_peel_removed_file_bytes(self, tmp_path):
        path, prefix = str(tmp_path / "g.dg"), str(tmp_path / "pe")
        assert main(["gen", "dkk", "--k", "2", "--n", "32", "--seed", "25",
                     "-o", path]) == 0
        assert main(["peel", path, "--k", "2", "-o", prefix]) == 0
        with open(prefix + ".removed.dg", "rb") as fh:
            assert fh.read() == (
                f"# removed edges, peel k=2 of {path}\n"
                "32 6\n5 14\n10 2\n11 8\n22 4\n22 7\n29 27\n").encode()

    def test_non_ascii_input_path(self, tmp_path):
        # each output's comment names the input path, escaped to ASCII
        path = str(tmp_path / "gr\u00e4ph.dg")
        escaped = path.encode("ascii", "backslashreplace").decode()
        assert "gr\\xe4ph.dg" in escaped
        assert main(["gen", "tournament", "--k", "2", "-o", path]) == 0
        pe, sp = str(tmp_path / "pe"), str(tmp_path / "sp")
        assert main(["peel", path, "--k", "2", "-o", pe]) == 0
        assert main(["decompose", path, "--split", "1", "1", "-o", sp]) == 0
        for out, comment in [
                (pe + ".rest.dg", f"# peel k=2 of {escaped}\n"),
                (pe + ".removed.dg",
                 f"# removed edges, peel k=2 of {escaped}\n"),
                (sp + ".1.dg", f"# split p1=1 p2=1 of {escaped}; "),
                (sp + ".2.dg", f"# split p1=1 p2=1 of {escaped}; ")]:
            with open(out, encoding="ascii") as fh:
                assert fh.read().startswith(comment)
            assert load_dg(out).n == 5


class TestExplore:
    def test_problem4_out_of_scope(self, capsys):
        assert main(["explore", "--problem", "4"]) == 0
        assert "out of scope" in capsys.readouterr().out

    def test_problem2_no_counterexample(self, capsys):
        assert main(["explore", "--problem", "2", "--max-n", "8",
                     "--budget", "20", "--seed", "1"]) == 0

    def test_problem1_ratios(self, capsys):
        assert main(["explore", "--problem", "1", "--max-n", "7",
                     "--budget", "30", "--seed", "1"]) == 0
        assert "c_max" in capsys.readouterr().out

    @pytest.mark.parametrize("problem, out", [
        (1, "m=5\tc_max>=3/5\nm=6\tc_max>=2/3\nm=7\tc_max>=3/7\n"
            "m=9\tc_max>=5/9\nm=10\tc_max>=1/2\nm=11\tc_max>=7/11\n"),
        (2, "no counterexample to (2m+s)/5 found\n"),
        (3, "tight\tn=5\tm=7\topt=3\ntight\tn=6\tm=7\topt=3\n"),
        (4, "problem 4 is a complexity question; out of scope\n"),
        (5, "lambda>=2/11\n"),
        (6, "all sampled D(2,2) covered by 4 cuts\n"),
        (7, "no counterexample to 2m/7 found\n"),
        (8, "min c_max seen: 5/11\n"),
    ])
    def test_pinned_output(self, problem, out, capsys):
        # each problem's draws and report for one fixed seed
        assert main(["explore", "--problem", str(problem), "--seed", "1",
                     "--budget", "10", "--max-n", "7"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("problem, budget, out", [
        (2, 1, "counterexample\tn=3\tm=3\ts=2\topt=0\n"
               "3 3\n0 1\n0 2\n2 1\n\n"),
        (6, 1, "needs>=5 cuts\tn=4\tm=6\n"
               "4 6\n0 1\n0 3\n1 3\n2 0\n2 1\n2 3\n\n"),
        (7, 1, "counterexample\tn=4\tm=6\topt=0\n"
               "4 6\n0 1\n0 3\n1 3\n2 0\n2 1\n2 3\n\n"),
        (8, 2, "c_max below 1/4+1/(8k+4)\tn=4\tm=6\topt=0\n" * 2
               + "min c_max seen: 0/1\n"),
    ])
    def test_counterexample_reports(self, problem, budget, out, capsys,
                                    monkeypatch):
        # oracles that find no cut and no cover make every draw a
        # counterexample: each problem prints it and exits 1
        monkeypatch.setattr(cli.oracle, "max_dicut_mask",
                            lambda n, edges: (0, 0))
        monkeypatch.setattr(cli.oracle, "decompose_into_cuts",
                            lambda D, c: None)
        assert main(["explore", "--problem", str(problem), "--seed", "1",
                     "--budget", str(budget), "--max-n", "4"]) == 1
        assert capsys.readouterr().out == out

    def test_problem5_skips_draws_past_24_edges(self, capsys, monkeypatch):
        # the exact removal search runs on the draws with 1..24 edges only
        drawn, solved = [], []
        draw = cli.gen_random_family
        monkeypatch.setattr(cli, "gen_random_family",
                            lambda *a: drawn.append(draw(*a)) or drawn[-1])
        monkeypatch.setattr(cli.oracle, "min_removal_exact",
                            lambda D, k: solved.append(D) or D.edges[:1])
        assert main(["explore", "--problem", "5", "--seed", "1",
                     "--budget", "6", "--max-n", "20"]) == 0
        assert capsys.readouterr().out == "lambda>=1/8\n"
        assert [D.m for D in drawn] == [8, 22, 37, 25, 13, 31]
        assert solved == [D for D in drawn if D.m <= 24]

    @pytest.mark.parametrize("problem, max_n", [
        (1, 2), (2, 2), (3, 2), (4, 3), (5, 3), (6, 3), (7, 3), (8, 3)])
    def test_max_n_below_least_draw(self, problem, max_n, capsys):
        assert main(["explore", "--problem", str(problem),
                     "--max-n", str(max_n), "--budget", "1"]) == 2
        assert "--max-n must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", [1, 4, 5, 8])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one(self, problem, budget, capsys):
        # no draw would be made: problem 8 would print a vacuous 1/1, and
        # problem 4, which draws nothing, refuses what the others refuse
        assert main(["explore", "--problem", str(problem),
                     "--budget", budget]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--budget must be at least 1" in err

    def test_max_n_above_oracle_guard(self, capsys, monkeypatch):
        # every oracle refuses a draw past MAX_DICUT_VERTICES: none is drawn;
        # problem 4, which draws nothing, refuses it too
        monkeypatch.setattr(cli, "gen_random_family", None)
        for problem, max_n in (("1", "1000000"), ("4", "27")):
            assert main(["explore", "--problem", problem, "--max-n", max_n,
                         "--budget", "3"]) == 3
            out, err = capsys.readouterr()
            assert out == "" and "--max-n exceeds the oracle guard 26" in err


# (family, k) of the members the contract test draws
MEMBERS = [("d11", 1), ("d11-trianglefree", 1), ("dkk", 1), ("dkk", 2),
           ("dkk", 3), ("acyclic-dkk", 1), ("acyclic-dkk", 2),
           ("acyclic-dkk", 3), ("disjoint-triangles", 1)]
# the words a mutated line is made of: small ids, ids just past n <= 12,
# a header past the vertex guard, and words that are no vertex id at all
WORDS = ["0", "1", "2", "3", "7", "11", "12", "13", "-1", "2000000", "x",
         "1.5", "#"]


@st.composite
def dg_texts(draw):
    """A `.dg` text of a member with n <= 12, or of one with one line
    replaced by words or by another edge, deleted or repeated; members and
    edge swaps, which mostly still parse, are drawn most often."""
    family, k = draw(st.sampled_from(MEMBERS))
    size = draw(st.integers(1, 4 if family == "disjoint-triangles" else 12))
    lines = format_dg(gen_random_family(family, size, k, draw(
        st.integers(0, 1 << 16)))).splitlines()
    how = draw(st.sampled_from(["keep"] * 3 + ["edge"] * 3
                               + ["words", "delete", "repeat"]))
    # an edge swap keeps the header; the other mutations take any line
    i = draw(st.integers(how == "edge" and len(lines) > 1, len(lines) - 1))
    if how == "edge":
        lines[i] = f"{draw(st.integers(0, 13))} {draw(st.integers(0, 13))}"
    elif how == "words":
        lines[i] = " ".join(draw(st.lists(st.sampled_from(WORDS),
                                          max_size=3)))
    elif how == "delete":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@st.composite
def commands(draw, out):
    """`check`, `cut`, `verify`, `decompose` or `peel` argv tails with
    bounded option values, writing under `out`; only `acyclic` reads --k,
    and it infers k at times."""
    cmd = draw(st.sampled_from(["check", "cut", "verify", "decompose",
                                "peel"]))
    if cmd == "check":
        return [cmd, "--k", str(draw(st.integers(0, 4))),
                "--l", str(draw(st.integers(0, 4)))]
    if cmd == "decompose":
        return [cmd, "--split", str(draw(st.integers(-1, 4))),
                str(draw(st.integers(-1, 4)))] + draw(st.sampled_from(
                    [[], ["--balance"]])) + ["-o", out]
    if cmd == "peel":
        return [cmd, "--k", str(draw(st.integers(-1, 5)))] + draw(
            st.sampled_from([[], ["-v"]])) + ["-o", out]
    method = draw(st.sampled_from(list(cli.METHODS)))
    k = draw(st.sampled_from([None, 0, 1, 2, 3, 4] if method == "acyclic"
                             else [None] * 5 + [0, 1, 2, 3, 4]))
    return [cmd, "--method", method] + ([] if k is None else ["--k", str(k)])


def test_declared_exits_on_members_and_mutations(tmp_path):
    # every run ends in a declared exit: 0, 2 or 3, and 1 only from
    # `check` on a non-member; 4 would be a bug, a raw exception fails here
    path = str(tmp_path / "g.dg")
    start = time.perf_counter()

    @settings(max_examples=200, deadline=None, database=None)
    @given(dg_texts(), commands(str(tmp_path / "out")))
    def run(text, argv):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
        assert code in ((0, 1, 2, 3) if argv[0] == "check" else (0, 2, 3)), (
            code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    run()
    assert time.perf_counter() - start < 5.0


@st.composite
def gen_and_explore(draw, out):
    """`gen` or `explore` argvs with bounded option values; `gen` draws
    the options its family reads four times in five and any other option
    once in ten, and writes to `out`."""
    if draw(st.booleans()):
        return ["explore", "--problem", str(draw(st.integers(1, 8))),
                "--max-n", str(draw(st.integers(-1, 8))),
                "--seed", str(draw(st.integers(0, 3))),
                "--budget", str(draw(st.integers(-1, 3)))]
    family = draw(st.sampled_from(list(cli.GEN_READS)))
    reads = cli.GEN_READS[family].split()
    argv = ["gen", family]
    for opt, low, high in (("k", -1, 4), ("n", -1, 40), ("t", -1, 10),
                           ("seed", 0, 5)):
        if draw(st.integers(0, 9)) < (8 if opt in reads else 1):
            argv += [f"--{opt}", str(draw(st.integers(low, high)))]
    return argv + ["-o", out]


def test_declared_exits_on_gen_and_explore(tmp_path):
    # as above, for the commands that read no file: 0, 2 or 3 only
    start = time.perf_counter()

    @settings(max_examples=200, deadline=None, database=None)
    @given(gen_and_explore(str(tmp_path / "g.dg")))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    run()
    assert time.perf_counter() - start < 5.0


def test_core_imports_neither_numpy_nor_networkx():
    # the package needs nothing outside the standard library; `cli` and
    # `enumeration` import every other module of it
    code = ("import sys, dicuts.cli, dicuts.enumeration; "
            "print(sorted({'numpy', 'networkx'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "[]"


def test_no_test_module_imports_another():
    # a helper that several test files use lives in tests/reference.py
    found = []
    for path in sorted(Path(TESTS).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for name in names
                      if name.startswith("test_")]
    assert found == []


def test_corpus_writer_needs_no_test_extra():
    # `python tests/test_golden.py` runs on `src/` and tests/reference.py
    code = ("import sys, test_golden; "
            "print(sorted(m for m in sys.modules if m != 'test_golden' and "
            "(m.startswith('test_') or m.split('.')[0] in "
            "('pytest', 'hypothesis', 'networkx'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join((SRC, TESTS))}
                         ).stdout
    assert out.strip() == "[]"


def test_no_function_calls_itself():
    # no recursion: a search keeps its frontier on an explicit stack, so no
    # input can end in a RecursionError
    found = []
    for path in sorted(Path(SRC, "dicuts").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                if (isinstance(f, ast.Name) and f.id == fn.name
                        or isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")):
                    found.append((path.name, fn.name))
    assert found == []
