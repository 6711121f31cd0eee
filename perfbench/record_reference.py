"""Record the reference CSVs that the benchmark checks its outputs against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known to be right: the
reference is whatever this code prints.  Every workload is recorded at its
default seed and at the held-out seed: the first REPS repetitions at full
size and the one repetition of the smoke size.  The result replaces
`reference.json`.
"""

import json
import sys

from run import BenchError, run_worker
from workloads import HELD_OUT_SEED, REFERENCE_FILE, WORKLOADS

REPS = 8


def main():
    reference = {}
    try:
        for name, w in sorted(WORKLOADS.items()):
            seeds = [w.default_seed, HELD_OUT_SEED]
            reference.update(run_worker("record", name, "smoke", 1, *seeds))
            reference.update(run_worker("record", name, "full", REPS, *seeds))
            print(f"recorded {name}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
