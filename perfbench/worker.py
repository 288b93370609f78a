"""One timed pass of one workload, in a fresh interpreter.

Run by ``run.py``, one process at a time:

    python3 perfbench/worker.py --workload NAME --seed N --pass-index P \
        --spawned MONOTONIC [--trace]

The pass imports kbproj from the checkout's ``src``, calls
``clear_caches()``, builds its units, then times them one by one.  Set-up
time runs from ``--spawned`` (``time.monotonic()`` in the parent just
before it started this process) to the first timed unit.  The last line
of standard output is one JSON object with the pass's figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".perfbench_out"


def import_kbproj():
    """kbproj from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import kbproj

    if Path(kbproj.__file__).resolve().parent != SRC / "kbproj":
        raise ImportError(f"kbproj imported from {kbproj.__file__}, not from {SRC}")
    return kbproj


def group_digests(records: dict[str, list[str]]) -> dict[str, str]:
    return {
        group: hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]
        for group, lines in records.items()
    }


def run_pass(name: str, seed: int, pass_index: int, tracer=None) -> dict:
    """Build the units of one pass and run them; returns figures and records."""
    import workloads

    make_units, run_unit = workloads.WORKLOADS[name]
    if tracer is not None:
        tracer.install(extra_modules=[workloads])
    units = make_units(seed, pass_index)
    first = time.monotonic()
    latencies = []
    outcomes = []
    records: dict[str, list[str]] = {}
    clock = time.perf_counter
    start = clock()
    for unit in units:
        t0 = clock()
        try:
            ok, group, record = run_unit(unit)
        except Exception as exc:  # a unit that raises counts as failed
            ok, group, record = False, "raised", f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        outcomes.append((ok, group))
        records.setdefault(group, []).append(record)
    wall = clock() - start
    return {
        "first_unit": first,
        "wall_s": wall,
        "latencies": latencies,
        "outcomes": outcomes,
        "records": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    kbproj = import_kbproj()
    kbproj.clear_caches()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    result = run_pass(args.workload, args.seed, args.pass_index, tracer)

    # Exact results against the digests recorded from the seed commit: every
    # unit of a group whose digest differs counts as failed.
    reference = json.loads(REFERENCE.read_text())[args.workload]
    digests = group_digests(result["records"])
    mismatched = sorted(g for g, d in digests.items() if reference.get(g) != d)
    failed = sum(not ok or g in mismatched for ok, g in result["outcomes"])

    out = {
        "setup_s": result["first_unit"] - args.spawned,
        "wall_s": result["wall_s"],
        "latencies": result["latencies"],
        "attempted": len(result["latencies"]),
        "failed": failed,
        "mismatched_groups": mismatched,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}.tsv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
