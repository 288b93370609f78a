"""kbproj benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run is a closed loop of passes, one
process on one thread: each pass is a fresh interpreter (``worker.py``)
that runs the workload's units once, cold, after ``clear_caches()``.
Passes follow one another until the next would overrun ``--seconds``,
with at least three (``--trace 0``) or one untraced/traced pair
(``--trace 1``).

With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, with ``--trace 1`` its ``per_layer`` list; the last line
of standard output is the JSON result.  Any unit whose exact check fails,
or whose results do not match ``reference.json``, counts in ``failed`` and
makes ``correct`` false.  The run exits 1 without a result if a pass
cannot run at all, for instance when the checkout has no kbproj sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("functoriality", "dims-oracle", "conjugation", "certify")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# The tail ladder starts at p95: on sub-millisecond units the higher
# percentiles are set by garbage-collection pauses and host hiccups, and
# spread 50-120% from run to run.
TAIL_LADDER = (95, 90, 80, 75, 66, 50)


class PassFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, pass_index: int, trace: bool) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--pass-index", str(pass_index),
    ]
    if trace:
        cmd.append("--trace")
    # A fixed string hash keeps set and dict orders, and so the work done,
    # the same from one pass to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise PassFailed(f"pass {pass_index} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(min_units: int) -> float:
    """Highest ladder percentile with at least 10 of min_units beyond it."""
    for q in TAIL_LADDER:
        if min_units * (1 - q / 100) >= 10:
            return q
    return TAIL_LADDER[-1]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Untraced passes (and, with trace, traced ones in alternation) until time is up."""
    plain, traced = [], []
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_PASSES
    start = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            out = run_worker(workload, seed, rounds, kind)
            (traced if kind else plain).append(out)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return plain, traced


def end_to_end(workload: str, passes: list[dict]) -> tuple[dict, str]:
    units_per_pass = passes[0]["attempted"]
    pooled = sorted(x for p in passes for x in p["latencies"])
    q = tail_percentile(units_per_pass * MIN_PASSES)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "units_per_s": statistics.median(p["attempted"] / p["wall_s"] for p in passes),
        "unit_p50_ms": 1e3 * statistics.median(pooled),
        "unit_tail_ms": 1e3 * percentile(pooled, q),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    beyond = len(pooled) - math.ceil(q / 100 * len(pooled))
    note = (
        f"{workload}: {len(passes)} passes of {units_per_pass} units; "
        f"unit_tail_ms is p{q} of {len(pooled)} units ({beyond} beyond it)"
    )
    return values, note


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, str]:
    names = traced[0]["layers"].keys()
    values = {n: statistics.median_low(p["layers"][n] for p in traced) for n in names}
    # Layers this workload is expected never to enter (layers.json).
    isolation = json.loads((HERE / "layers.json").read_text())["zero_calls"].get(workload, [])
    entered = sorted(
        n for n in names
        if n.endswith(".calls") and values[n] and any(n.startswith(f"{z}.") for z in isolation)
    )
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
    note = (
        f"tracing overhead {values['trace.overhead_pct']:+.1f}% "
        f"({traced_wall:.3f} s traced vs {untraced_wall:.3f} s untraced, "
        f"{len(traced)} + {len(plain)} passes)\n"
        f"{workload}: calls into {isolation or 'no layer'} expected to be zero; "
        f"nonzero: {entered or 'none'}"
    )
    return values, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values, note = per_layer(args.workload, plain, traced)
    else:
        values, note = end_to_end(args.workload, plain)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatched = sorted({g for p in passes for g in p["mismatched_groups"]})
    print(note)
    print(
        f"{args.workload}: failed_share {failed / attempted:.6f} "
        f"({failed} of {attempted} units); digest mismatches: {mismatched or 'none'}"
    )
    for m in declared:
        print(f"  {m['name']:<52} {values[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
