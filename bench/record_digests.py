"""Record the outputs of the current commit as bench/digests.json.

    python3 bench/record_digests.py

For each recorded seed and workload it makes one short run, which must
pass every reference check, and stores the observed digests: SHA-256 of
the 9 sweep bundle files, the fields printed by `lexsweep evaluate`, and
one digest over the first batch of library points.  run.py then requires
the same outputs at those seeds.  Re-record only when the program's
output is meant to change.
"""

from __future__ import annotations

import json
import sys

import gen
from run import DIGESTS, WORKLOADS, run

RECORDED_SEEDS = [gen.DEFAULT_SEED, gen.HELD_OUT_SEED, *range(1, 11)]


def main() -> int:
    digests: dict[str, dict] = {}
    for seed in RECORDED_SEEDS:
        for workload in WORKLOADS:
            result, observed = run(workload, seed, seconds=0, trace=False, record=True)
            if not result["correct"]:
                print(f"seed {seed} {workload}: outputs fail the reference checks", file=sys.stderr)
                return 1
            digests.setdefault(str(seed), {})[workload] = observed
            print(f"seed {seed} {workload}: recorded", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
