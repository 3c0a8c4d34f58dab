"""Write the reference series that checks.py compares every op against.

Run from the repository root, one workload at a time (or all if none is
named); each run replaces that workload's entries in reference.json:

    python3 perfbench/make_reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, OUT

os.environ.update(BLAS_THREADS)   # before numpy loads, as in the benchmark's ops

import op  # noqa: E402
from checks import REFERENCE_PATH, read_series  # noqa: E402
from workloads import ALL_WORKLOADS, N_DATA  # noqa: E402


def main(names) -> int:
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name in names or ALL_WORKLOADS:
        entries = {}
        for datum in range(N_DATA):
            OUT.mkdir(exist_ok=True)
            out = Path(tempfile.mkdtemp(dir=OUT))
            try:
                op.run(ALL_WORKLOADS[name], datum, out)
                s = read_series(out)
            finally:
                shutil.rmtree(out)
            entries[str(datum)] = {"energy": s["energy"], "x": s.get("x_report.x", [])}
            print(name, datum, flush=True)
        ref[name] = entries
    REFERENCE_PATH.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
