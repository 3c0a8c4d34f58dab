"""One benchmark operation, run in a fresh process so that its peak resident
set is its own.

Set-up: ``build_two_phase_disk``, ``StokesWorkspace``,
``ws.step_factorization(dt)`` and the initial datum.  Solve: the solver call,
``energy_budget``, ``momentum_and_barycenter`` and ``write_csv`` of
``diagnostics.csv`` (and ``x_report.csv`` for the global workloads), the way
the ``solve-global`` and ``solve-linear`` commands write them.  The outputs
are then checked; the checks are not timed.

Usage: python3 perfbench/op.py WORKLOAD SEED TRACE OUT_DIR
Prints one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import lagstokes  # noqa: E402
import lagstokes.snapshots  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ALL_WORKLOADS, DT, PARAMS, R_INNER, R_OUTER, initial_datum  # noqa: E402


def _csv_columns(traj, params, ws):
    eb = lagstokes.energy_budget(traj, params, ws)
    mb = lagstokes.momentum_and_barycenter(traj, params, ws)
    cols = eb.csv_columns()
    cols.update((k, v) for k, v in mb.csv_columns().items() if k != "time")
    return cols


def set_up(workload, seed: int):
    mesh = lagstokes.build_two_phase_disk(workload.n_radial, workload.n_angular,
                                          R_INNER, R_OUTER)
    params = lagstokes.MaterialParams(*PARAMS)
    ws = lagstokes.StokesWorkspace(mesh, params)
    lu = ws.step_factorization(DT)
    return params, ws, lu, initial_datum(workload, seed, mesh, params, ws)


def run(workload, seed: int, out_dir: Path):
    """Set up, solve and write the CSVs; return (timings and facts,
    trajectory, X report)."""
    t0 = time.perf_counter()
    params, ws, lu, u0 = set_up(workload, seed)
    t1 = time.perf_counter()

    write_csv = lagstokes.snapshots.write_csv
    if workload.solver == "global":
        cfg = lagstokes.IterationConfig(dt=DT, horizon=workload.horizon,
                                        smallness=workload.smallness)
        traj, report = lagstokes.global_continue(u0, cfg, params, workspace=ws)
        write_csv(out_dir / "diagnostics.csv", _csv_columns(traj, params, ws))
        write_csv(out_dir / "x_report.csv", {
            "time": report.times, "x": report.x_values,
            "bound": np.full(len(report.times), report.bound)})
    else:
        traj = lagstokes.run_linear(u0, workload.n_steps, DT, params, workspace=ws)
        report = None
        write_csv(out_dir / "diagnostics.csv", _csv_columns(traj, params, ws))
    t2 = time.perf_counter()

    digest = hashlib.sha256()
    for name in ("diagnostics.csv", "x_report.csv"):
        if (out_dir / name).exists():
            digest.update((out_dir / name).read_bytes())
    try:
        fill = int(lu._lu.L.nnz + lu._lu.U.nnz)
    except AttributeError:
        fill = None
    return {
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "final_time": float(traj.times[-1]),
        "csv_sha256": digest.hexdigest(),
        "delivered_states": len(traj.states),
        "lu_fill_nnz": fill,
    }, traj, report


def main(argv) -> int:
    name, seed, trace, out_dir = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    workload = ALL_WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(layers.EXTRACT)
    try:
        result, _, report = run(workload, seed, out_dir)
        result["failures"] = checks.check(workload, seed, report, out_dir)
    except Exception:  # an op that raises counts as failed; the run goes on
        result = {"failures": ["raised: " + traceback.format_exc(limit=4)]}
    if tracer is not None and "delivered_states" in result:
        result["layers"] = layers.compute(tracer.aggregate(), tracer.returns,
                                          tracer.absent, result)
        result["absent"] = tracer.absent
    result["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
