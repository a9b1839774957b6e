"""Record the reference outputs that the benchmark's correctness gate
compares against: one fingerprint (exit status and JSON output) per
report, for every workload and each default seed.

    python3 perfbench/record_references.py

Run it from the root of a checkout whose outputs are known to be right,
and only when an intended change of output makes the old ones stale.
"""

from __future__ import annotations

import json

import run
from inputs import WORKLOADS, make_inputs

DEFAULT_SEEDS = range(10)


def main() -> None:
    cli = run.import_cli()
    references = {}
    for workload in WORKLOADS:
        references[workload] = {}
        for seed in DEFAULT_SEEDS:
            result = run.measure(cli, make_inputs(workload, seed), 0, None)
            references[workload][str(seed)] = " ".join(result["fingerprints"])
            print(f"{workload} seed {seed}: {len(result['fingerprints'])} reports, {result['failed']} failed")
    run.REFERENCES.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
