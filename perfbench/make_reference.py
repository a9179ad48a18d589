"""Capture ``perfbench/reference.json`` at the current commit.

    python3 perfbench/make_reference.py

Runs one untraced pass per workload and bank seed and stores the verdict
vector and the SHA-256 of every report.  Runs compare against it; a change
whose outputs differ on purpose recaptures it and says why.
"""

import json
import sys

import run
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    sys.path.insert(0, run.SRC)
    workloads = {}
    for workload in WORKLOADS:
        seeds = range(REFERENCE_SEEDS) if run.uses_seed(workload) else [0]
        entries = {}
        for seed in seeds:
            runner = run.Runner(workload, seed)
            runner.run_pass()
            if runner.failed or runner.problems:
                print(f"{workload} seed {seed}: {runner.failures + runner.problems}",
                      file=sys.stderr)
                return 1
            entries[run.reference_key(workload, seed)] = runner.reference_entry()
            print(f"{workload} seed {seed}: captured", flush=True)
        workloads[workload] = entries
    doc = {"git_sha": run.git_sha(), "src_sha256": run.source_digest(),
           "workloads": workloads}
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
