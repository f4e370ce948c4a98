"""Record the reference outputs that every later run is compared against.

    python3 bench/record.py

Runs the first rounds of each workload at the reference seed and writes
``bench/reference.json``: per-check verdict counts for the campaign
workloads and the first round's enclosures for the solver workload.
Re-record only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import worker  # noqa: E402  (after the BLAS pin)


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    doc = {"seed": worker.REFERENCE_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        for name, cls in worker.WORKLOADS.items():
            workload = cls(name, worker.REFERENCE_SEED, Path(tmp))
            # Only outputs are recorded, so the calibration pass is skipped.
            _timing, outputs = worker.run_rounds(
                workload, lambda: worker.CAL_REF_S, worker.MIN_ROUNDS, worker.MIN_ROUNDS, 0.0
            )
            checked = worker.check_outputs(workload, outputs, None)
            if checked["failed"]:
                print("\n".join(checked["notes"]), file=sys.stderr)
                return 1
            doc["workloads"][name] = workload.reference()
    worker.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {worker.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
