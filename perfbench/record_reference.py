"""Record reference.json: the logged `total` of the first steps of each
train workload on the fixed check input, from the current sources.

    python3 perfbench/record_reference.py

Every train run replays these steps and fails its check when a value moves
by more than harness.REFERENCE_RTOL.  Re-record only for a change that is
meant to alter the training arithmetic, and say so where the change is
described.
"""

import json

import run

run.bootstrap()
import harness  # noqa: E402  (needs the import path set by bootstrap)

reference = {
    wl.name: {"check_seed": harness.CHECK_SEED, "total": harness.reference_totals(wl, wl.check_steps)}
    for wl in harness.WORKLOADS.values()
    if wl.check_steps
}
harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
print(json.dumps(reference, indent=1))
