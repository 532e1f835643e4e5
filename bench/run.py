"""Benchmark for the dicuts package: one workload per process, closed loop.

    python3 bench/run.py --workload sparse-d11 --seed 1 --seconds 20 --trace 0

One client sends one op at a time, each after the previous one returned
(see ops.py for what an op does).  A round is one pass over the workload's
op list.  The number of rounds follows from --seconds and the workload's
nominal round length alone, never from measured time, so every run with the
same --seconds does the same work on any machine and any commit.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced rounds and prints the per-layer metrics.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it, starting with `detail `, holds
the figures that are not metrics (witness digest, tail percentile, failure
types, answer-quality ratios).  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORTS = {
    "sparse-d11": "dicuts.cli",
    "dense-dkk": "dicuts.cli",
    "small-exhaustive": "dicuts.cli, dicuts.enumeration",
}
# Nominal length of one round (small-exhaustive: without the enumeration,
# which a plain run does once); it only sets the number of rounds, which is
# max(MIN_ROUNDS, round(seconds / ROUND_SECONDS)).  Every timing is taken in
# reference seconds (see pace.py).  Each op's latency is its median over the
# rounds, so what the pace does not take out of one round is filtered; the
# rates are taken over all rounds together.
ROUND_SECONDS = {"sparse-d11": 8.0, "dense-dkk": 7.0, "small-exhaustive": 8.0}
MIN_ROUNDS = 3
SETUP_REPEATS = 9
TAIL_MIN_BEYOND = 10
SHOWN_FAILURES = 5

D11_TAGS = ("oracle-base", "triangle", "leaf-in-minus", "leaf-in-plus",
            "even-cycle", "v0-attach-source", "v0-attach-with-inedge",
            "path-or-cycle", "multiedge-in-M", "gamma-cycle", "leaf-triangle")
PEEL_TAGS = ("return-edge", "cycle-recolor-swap", "growth-swap",
             "tree-path-swap", "short-path-swap")
LAYERS = ("digraph", "d11", "oracle", "colorcut", "peel", "decompose",
          "enumeration")

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("edges_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
    ("cut_ratio", "ratio"),
)
PER_LAYER = (
    ("digraph.build.calls", "count"), ("digraph.build.edges", "count"),
    ("digraph.build.self_s", "s"), ("digraph.adjacency.self_s", "s"),
    ("digraph.without_edges.calls", "count"),
    ("digraph.weak_components.calls", "count"),
    ("digraph.weak_components.self_s", "s"),
    ("digraph.triangles.calls", "count"), ("digraph.triangles.self_s", "s"),
    ("digraph.class_partition.calls", "count"),
    ("digraph.class_partition.self_s", "s"),
    ("digraph.has_digon.calls", "count"), ("digraph.reverse.calls", "count"),
    ("digraph.parse.self_s", "s"), ("digraph.cert.self_s", "s"),
    ("d11.cut.self_s", "s"), ("d11.connected.self_s", "s"),
    ("d11.triangle_reduction.calls", "count"),
    ("d11.triangle_reduction.self_s", "s"),
    ("d11.reducing_pair.calls", "count"), ("d11.reducing_pair.self_s", "s"),
    ("d11.triangle_forest.calls", "count"), ("d11.triangle_forest.self_s", "s"),
    *((f"d11.steps.{tag}", "count") for tag in D11_TAGS),
    ("oracle.max_dicut.calls", "count"), ("oracle.max_dicut.self_s", "s"),
    ("oracle.triangle_packing.calls", "count"),
    ("oracle.triangle_packing.self_s", "s"),
    ("colorcut.d22.self_s", "s"), ("colorcut.d22.cycle_steps", "count"),
    ("colorcut.degeneracy.self_s", "s"), ("colorcut.greedy_color.self_s", "s"),
    ("colorcut.balanced_split.self_s", "s"), ("colorcut.acyclic.self_s", "s"),
    ("peel.initial_removal.self_s", "s"),
    ("peel.find_improvement.calls", "count"),
    ("peel.find_improvement.self_s", "s"),
    ("peel.swap_feasible.calls", "count"),
    *((f"peel.moves.{tag}", "count") for tag in PEEL_TAGS),
    ("decompose.split.self_s", "s"), ("decompose.edge_coloring.self_s", "s"),
    ("enumeration.d11.graphs", "count"), ("enumeration.d11.s", "s"),
    ("enumeration.d22.graphs", "count"), ("enumeration.d22.s", "s"),
    ("enumeration.d22.peak_mb", "MB"),
    ("generators.s", "s"),
    *((f"share.{layer}", "%") for layer in (*LAYERS, "bench")),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Round:
    """Everything one pass over the op list produced."""

    wall: float = 0.0
    ops: int = 0
    ok: int = 0
    ok_edges: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    cut: int = 0
    cut_m: int = 0
    opt_cut: int = 0
    opt: int = 0
    removed: int = 0
    peel_m: int = 0
    spans: list = field(default_factory=list)  # (start, end) of each op
    enum_spans: dict = field(default_factory=dict)
    enum_s: dict = field(default_factory=dict)


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def timed_list(make) -> tuple[list, tuple[float, float]]:
    """(list(make()), the span it took).  The call is inside the span too,
    since a traced enumeration does its work in the call."""
    start = perf_counter()
    out = list(make())
    return out, (start, perf_counter())


def exhaustive_round_ops(rnd: Round, seed: int):
    """Enumerate both small corpora (timed work of the round) and list the
    ops over them (untimed)."""
    from dicuts import enumeration

    import instances

    d11_graphs, d11_span = timed_list(lambda: enumeration.digonfree_d11(6))
    d22_graphs, d22_span = timed_list(lambda: enumeration.d22_with_digons(5))
    rnd.enum_spans = {"enumeration.d11.s": d11_span, "enumeration.d22.s": d22_span}
    rnd.enum_s = {name: t1 - t0 for name, (t0, t1) in rnd.enum_spans.items()}
    return instances.exhaustive_ops(d11_graphs, d22_graphs, seed)


def run_round(op_list, seed: int, tracer=None) -> Round:
    """One pass over `op_list`; its wall time covers the ops and, when
    `op_list` is None (the exhaustive workload in a traced run), the two
    enumeration calls that make the op list."""
    import ops as op_mod

    rnd = Round()
    digest = hashlib.sha256()
    if op_list is None:
        op_list = exhaustive_round_ops(rnd, seed)
    start = perf_counter()
    for i, op in enumerate(op_list):
        if tracer is not None:
            tracer.op_id = i
        rnd.ops += 1
        t0 = perf_counter()
        try:
            res = op_mod.execute(op)
            rnd.spans.append((t0, perf_counter()))
            out = op_mod.checked(op, res)
        except Exception as exc:  # any failure is one failed op; keep going
            if len(rnd.spans) < rnd.ops:
                rnd.spans.append((t0, perf_counter()))
            rnd.failures.append((op.method, op.inst.name, type(exc).__name__, str(exc)[:200]))
            if len(rnd.failures) <= SHOWN_FAILURES:
                print(f"op {op.method} on {op.inst.name} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            digest.update(f"{op.method}|{op.inst.name}|failed {type(exc).__name__}\n".encode())
            continue
        rnd.ok += 1
        rnd.ok_edges += out.m
        digest.update(f"{op.method}|{op.inst.name}|{out.witness}\n".encode())
        if op.method == "peel":
            rnd.removed += out.removed
            rnd.peel_m += out.m
        elif op.method != "split":
            rnd.cut += out.cut
            rnd.cut_m += out.m
            if out.opt is not None:
                rnd.opt_cut += out.cut
                rnd.opt += out.opt
    rnd.wall = perf_counter() - start + sum(rnd.enum_s.values())
    rnd.digest = digest.hexdigest()
    return rnd


def import_seconds(workload: str) -> float:
    """Import time of the modules the workload uses, in a fresh interpreter."""
    code = ("import time\nt = time.perf_counter()\n"
            f"import {IMPORTS[workload]}\nprint(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def named_generator(name: str, *args):
    from dicuts import generators

    return getattr(generators, name)(*args)


def setup(workload: str, seed: int, pace):
    """(median set-up reference seconds, median set-up wall seconds, op
    list, problems): imports in a fresh interpreter plus building the
    inputs, repeated, with the machine sampled before and after each; every
    build must give the same inputs."""
    import instances

    samples, ref_samples, builds = [], [], []
    for _ in range(SETUP_REPEATS):
        pace.sample()
        imp = import_seconds(workload)
        start = perf_counter()
        builds.append(instances.build(workload, seed, named_generator))
        took = imp + perf_counter() - start
        pace.sample()
        # the speed between the two samples around this set-up
        rate = pace.seconds(pace.ends[-2], pace.starts[-1])
        samples.append(took)
        ref_samples.append(took * rate[1] / rate[0])
    problems = []
    if any(b != builds[0] for b in builds[1:]):
        problems.append("the same seed built different inputs")
    return (statistics.median(ref_samples), statistics.median(samples),
            builds[0], problems)


def tail_percentile(round_ops: int) -> float:
    """Highest percentile, in tenths, with at least TAIL_MIN_BEYOND of one
    round's ops beyond it."""
    if round_ops <= TAIL_MIN_BEYOND:
        return 50.0
    return math.floor(1000 * (round_ops - TAIL_MIN_BEYOND) / round_ops) / 10


def percentile(values: list, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def _ratio(num: int, den: int):
    return num / den if den else None


def summarize(rounds: list, problems: list) -> dict:
    """The figures both modes report beside their metrics."""
    first = rounds[0]
    failures = [f for r in rounds for f in r.failures]
    digests = {r.digest for r in rounds}
    if len(digests) > 1:
        problems.append("witnesses differ between rounds")
    detail = {
        "rounds": len(rounds),
        "ops_per_round": first.ops,
        "attempted": sum(r.ops for r in rounds),
        "failed": len(failures),
        "fail_ratio": len(failures) / sum(r.ops for r in rounds),
        "failure_types": dict(Counter(f[2] for f in failures)),
        "first_failures": failures[:SHOWN_FAILURES],
        "witness_sha256": first.digest,
        "cut_ratio": _ratio(first.cut, first.cut_m),
        "opt_ratio": _ratio(first.opt_cut, first.opt),
        "peel_removed_ratio": _ratio(first.removed, first.peel_m),
        "problems": problems,
    }
    return detail


def timings(latencies: list, enum_s: float, ok: int, ok_edges: int) -> dict:
    """The timing metrics from one latency list per round.  An op's latency
    is its median over the rounds; the rates take all ops of all rounds over
    the time of all rounds plus the one enumeration they ran over."""
    # every round runs the same ops in the same order
    lat = [statistics.median(op) for op in zip(*latencies)]
    busy_s = enum_s + sum(sum(r) for r in latencies)
    return {
        "ops_per_s": ok / busy_s,
        "edges_per_s": ok_edges / busy_s,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * percentile(lat, tail_percentile(len(lat))),
    }


def plain_run(workload: str, seed: int, op_list, seconds: float,
              setup: tuple, problems: list, pace):
    enum = Round()
    with pace:
        if op_list is None:
            # the exhaustive workload enumerates its corpora once, as timed
            # work of the run, and its rounds run over them
            op_list = exhaustive_round_ops(enum, seed)
        rounds = [run_round(op_list, seed)
                  for _ in range(rounds_for(workload, seconds))]
    # (wall, reference) seconds of the enumeration and of every op
    enum_s = [pace.seconds(*span) for span in enum.enum_spans.values()]
    lat = [[pace.seconds(*span) for span in r.spans] for r in rounds]
    ok = sum(r.ok for r in rounds)
    ok_edges = sum(r.ok_edges for r in rounds)
    detail = summarize(rounds, problems)
    detail["op_tail_percentile"] = tail_percentile(len(op_list))
    detail["latency_samples"] = len(op_list)
    detail["round_s"] = [round(sum(w for w, _ in r), 3) for r in lat]
    detail["round_ref_s"] = [round(sum(x for _, x in r), 3) for r in lat]
    detail["enumeration_s"] = sum(w for w, _ in enum_s)
    detail["enumeration_ref_s"] = sum(r for _, r in enum_s)
    detail["wall"] = {"setup_s": setup[1], **timings(
        [[w for w, _ in r] for r in lat], sum(w for w, _ in enum_s), ok, ok_edges)}
    kernel_ms = pace.kernel_ms()
    detail["pace_kernel_ms"] = statistics.median(kernel_ms)
    detail["pace_samples"] = len(kernel_ms)
    values = {
        "setup_s": setup[0],
        **timings([[r for _, r in rl] for rl in lat], sum(r for _, r in enum_s),
                  ok, ok_edges),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cut_ratio": detail["cut_ratio"],
    }
    return detail, {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END}


def traced_run(workload: str, seed: int, op_list, seconds: float,
               problems: list, spans_dir: Path):
    from dicuts import enumeration

    import instances
    from tracer import Tracer, peak_traced_mb

    with Tracer() as setup_tracer:
        instances.build(workload, seed, named_generator)
    generators_s = sum(s for name, s in setup_tracer.total_s.items()
                       if name.startswith("generators."))

    # half as many untraced + traced pairs as a plain run has rounds, so a
    # traced run lasts about as long as a plain one
    plain, traced, tracers = [], [], []
    for _ in range(max(1, rounds_for(workload, seconds) // 2)):
        plain.append(run_round(op_list, seed))
        with Tracer() as tr:
            traced.append(run_round(op_list, seed, tr))
        tracers.append(tr)
    detail = summarize(plain + traced, problems)
    first = tracers[0]
    exact = lambda tr: (dict(tr.calls), dict(tr.counts))
    if any(exact(t) != exact(first) for t in tracers[1:]):
        problems.append("exact counts differ between traced rounds")

    def med(get):
        return statistics.median(get(t, r) for t, r in zip(tracers, traced))

    values = {"generators.s": generators_s,
              "trace.overhead_ratio": sum(r.wall for r in traced)
              / sum(r.wall for r in plain)}
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        if name.startswith(("d11.steps.", "peel.moves.", "colorcut.d22.cycle")) \
                or kind in ("edges", "graphs"):
            values[name] = first.counts[name]
        elif kind == "calls":
            values[name] = first.calls[base]
        elif kind == "self_s":
            values[name] = med(lambda t, r, b=base: t.self_s[b])
        elif kind == "peak_mb":
            values[name] = (peak_traced_mb(enumeration.d22_with_digons, 5)
                            if workload == "small-exhaustive" else 0.0)
        elif name.startswith("enumeration."):
            values[name] = statistics.median(r.enum_s.get(name, 0.0) for r in plain)
    for layer in LAYERS:
        values[f"share.{layer}"] = med(lambda t, r, lay=layer: 100 * sum(
            s for n, s in t.self_s.items() if n.split(".")[0] == lay) / r.wall)
    values["share.bench"] = 100 - sum(values[f"share.{layer}"] for layer in LAYERS)

    spans_dir.mkdir(parents=True, exist_ok=True)
    first.write_spans(spans_dir / f"spans-{workload}-seed{seed}.tsv.gz")
    detail["traced_rounds"] = len(traced)
    return detail, {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dicuts" / "__init__.py").is_file():
        print(f"no dicuts package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dicuts
    if Path(dicuts.__file__).resolve().parent != SRC / "dicuts":
        print(f"imported dicuts from {dicuts.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import ops
    from pace import Pace

    problems = ops.self_test()
    pace = Pace()
    *setup_s, op_list, more = setup(args.workload, args.seed, pace)
    problems += more
    if args.trace:
        detail, metrics = traced_run(args.workload, args.seed, op_list,
                                     args.seconds, problems,
                                     ROOT / "bench" / "out")
    else:
        detail, metrics = plain_run(args.workload, args.seed, op_list,
                                    args.seconds, setup_s, problems, pace)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, **detail}
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems and detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
