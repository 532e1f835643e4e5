"""Run the benchmark over workloads and seeds, one process at a time.

    python3 bench/suite.py --seeds 1                  # one row per workload
    python3 bench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --passes 2
    python3 bench/suite.py --seeds 1 2 --trace

It runs every workload of BENCHMARK.json with its run_seconds.  Each row
prints every metric with its unit, then the figures run.py keeps out of the
metrics: failures, the answer-quality ratios, the tail percentile with its
sample count and the witness digest.  With several seeds it reports, per
workload and metric, the median and the quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json; a spread above the
bound fails the suite, except that of setup_s, whose spread is only shown
(a run's set-up is a few short, noisy subprocess starts; its median across
runs is what a later change is held to).  With --passes 2 it runs every
seed twice and also checks that witness digests and exact counts repeat and
that no metric's second median, setup_s included, is worse than the first
by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
EXACT = (".calls", ".edges", ".graphs", ".cycle_steps")


def run_once(workload: str, seed: int, seconds: int, trace: bool):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1])


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.6g}"


def row(detail: dict, result: dict, pass_no: int) -> str:
    cells = [f"{detail['workload']:<16} seed={detail['seed']} pass={pass_no}",
             f"correct={result['correct']}"]
    cells += [f"{k}={_fmt(v['value'])} {v['unit']}" for k, v in result["metrics"].items()
              if not detail["trace"] or v["value"]]
    cells += [f"fail_ratio={result['failed']}/{result['attempted']}",
              f"failure_types={detail['failure_types'] or '-'}",
              f"opt_ratio={_fmt(detail['opt_ratio'])}",
              f"peel_removed_ratio={_fmt(detail['peel_removed_ratio'])}"]
    if "op_tail_percentile" in detail:
        cells.append(f"op_tail=p{detail['op_tail_percentile']} of {detail['latency_samples']} ops")
    cells.append(f"witness_sha256={detail['witness_sha256'][:16]}")
    return "  ".join(cells)


def spread(values: list) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--passes", type=int, choices=(1, 2), default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for pass_no in range(1, args.passes + 1):
            for seed in args.seeds:
                detail, result = run_once(workload, seed, seconds, args.trace)
                runs[pass_no, seed] = (detail, result)
                print(row(detail, result, pass_no), flush=True)
                ok &= result["correct"]
        for seed in args.seeds if args.passes == 2 else ():
            (d1, r1), (d2, r2) = runs[1, seed], runs[2, seed]
            exact = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                               if k.endswith(EXACT) or ".steps." in k or ".moves." in k}
            if d1["witness_sha256"] != d2["witness_sha256"] or exact(r1) != exact(r2):
                print(f"{workload} seed={seed}: witnesses or exact counts differ between passes")
                ok = False
        if args.trace or len(args.seeds) < 2:
            continue
        for name, spec_m in bounds.items():
            per_pass = []
            for pass_no in range(1, args.passes + 1):
                vals = [runs[pass_no, s][1]["metrics"][name]["value"] for s in args.seeds]
                per_pass.append(spread(vals))
            bound = spec_m["bound"]
            line = "  ".join(f"pass{i + 1} median={_fmt(m)} spread={s:.3f}"
                             for i, (m, s) in enumerate(per_pass))
            flags = []
            if name == "setup_s":
                flags.append("(spread not gated)")
            elif any(s > bound for _, s in per_pass):
                flags.append("SPREAD>BOUND")
                ok = False
            elif any(s > bound / 3 for _, s in per_pass):
                flags.append("spread>bound/3")
            if len(per_pass) == 2:
                (m1, _), (m2, _) = per_pass
                worse = (m2 - m1) / m1 if spec_m["better"] == "lower" else (m1 - m2) / m1
                if worse > bound:
                    flags.append("DRIFT>BOUND")
                    ok = False
            print(f"{workload:<16} {name:<12} bound={bound}  {line}  {' '.join(flags)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
