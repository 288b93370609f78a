"""Record the exact-result digests that every timed pass is checked against.

    python3 perfbench/record.py

Runs each workload once over all of its groups and writes
``perfbench/reference.json``.  Record only on a commit whose answers are
known good: the file is the benchmark's notion of a correct answer.
"""

from __future__ import annotations

import json

from worker import REFERENCE, group_digests, import_kbproj, run_pass


def main() -> None:
    import_kbproj()
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        passes = 1
        if name == "conjugation":
            passes = workloads.CONJUGATION_POOL // workloads.CONJUGATION_PER_PASS
        records: dict[str, list[str]] = {}
        for pass_index in range(passes):
            result = run_pass(name, 0, pass_index)
            failed = [g for ok, g in result["outcomes"] if not ok]
            if failed:
                raise SystemExit(f"{name}: {len(failed)} units failed their checks")
            for group, lines in result["records"].items():
                records.setdefault(group, []).extend(lines)
        reference[name] = dict(sorted(group_digests(records).items()))
        print(name, len(reference[name]), "groups")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
