"""Record reference digests of the current code for a set of seeds.

    python3 perfbench/record_digests.py 0 1 2

For each seed it runs one round of every workload (the GA random
states of ``workloads.ROUND_GA_SEEDS`` on the GA inputs and the
brute-force detect, each with its serving tail), and merges the
digests into ``reference_digests.json``.  Only record from a
commit whose results are known good: every later run is held to them.
"""

from __future__ import annotations

import json
import sys

from run import import_library


def record(workloads, checks, seed: int) -> dict:
    table = {}
    for workload in workloads.WORKLOADS:
        data = workloads.make_inputs(workload, seed)
        run = workloads.Run(checks.References())
        workloads.run_workload(run, workload, data, seed, seconds=0.0, rounds=1)
        if run.failed:
            raise SystemExit(f"{workload} seed {seed} failed: {run.problems[:5]}")
        entry: dict = {}
        for label, digest in run.digests.items():
            kind, key = label.split(":")
            entry.setdefault(kind, {})[key] = digest
        table[workloads.family(workload)] = entry
        print(f"seed {seed} {workload}: {len(run.digests)} digests", file=sys.stderr)
    return table


def main(argv: list[str]) -> int:
    workloads = import_library()
    import checks

    path = checks.REFERENCE_PATH
    stored = json.loads(path.read_text()) if path.exists() else {}
    for seed in (int(a) for a in argv):
        for fam, entry in record(workloads, checks, seed).items():
            stored.setdefault(fam, {})[str(seed)] = entry
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
