"""Record the reference outcomes that runs at the default seed are checked
against: python3 bench/record_reference.py (from the repository root).

Re-record only when a change to the library is meant to change which curves
are accepted or how they are classified, and say so in that change.
"""

import json
import sys

from checks import DEFAULT_SEED, REFERENCE, check_record, encode_reference
from run import Run, provenance
from workloads import WORKLOADS, stream

# More than twice the curves of one 30-second run when recorded; later
# curves are still cross-checked, only not against a reference.
LENGTHS = {"scan-p5-d4": 36000, "plane-large-p": 200, "ext-field": 1000}


def main():
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, length in LENGTHS.items():
        run = Run(WORKLOADS[name], seed=None)
        run.setup(1)
        outcomes = []
        inputs = stream(run.workload, DEFAULT_SEED)
        for index in range(length):
            rec = run.pipeline.run(next(inputs))
            problems = check_record(run.eo, index, rec, None)
            if problems:
                sys.exit(f"{name} curve {index}: {problems}")
            outcomes.append(rec.outcome)
        out["workloads"][name] = encode_reference(outcomes)
        print(name, length, "curves,", len(set(outcomes)), "distinct outcomes")
    out["recorded_with"] = provenance(run.eo, DEFAULT_SEED)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
