"""Benchmark of lagstokes: whole workloads end to end, and each layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-check

A single closed-loop client: each operation ("op") runs in a fresh process
(perfbench/op.py) with one BLAS thread, and the next op starts when the
previous one has finished, until --seconds have passed (at least one op).
Every op's outputs are checked (perfbench/checks.py) and their CSV bytes
hashed; all ops of a run must give the same hash.

--trace 0 reports the end-to-end metrics: the medians over the run's ops of
setup_s, solve_s and rss_peak_mb.  --trace 1 alternates an untraced op with a
traced op (perfbench/spans.py) and reports the per-layer metrics
(perfbench/layers.py): exact counts from the traced ops, which must repeat,
and median times.  The last line of standard output is the JSON result;
failed_frac is its ``failed`` / ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0          # every run ends well inside the 180 s allowed

# One BLAS thread per op: the benchmark is a single closed-loop client, and a
# second thread on a shared two-core machine adds more noise than speed.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "solve_s": "s", "rss_peak_mb": "MiB"}


def _op(name: str, seed: int, traced: bool, out_dir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "op.py"), name, str(seed), str(int(traced)),
           str(out_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env={**os.environ, **BLAS_THREADS})
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"op exceeded {timeout:.0f} s"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"failures": [f"op exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    result["traced"] = traced
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run ops until ``seconds`` have passed; return (result, details)."""
    work = OUT / f"{name}-{seed}-{os.getpid()}"
    ops = []
    start = time.monotonic()
    try:
        while not ops or time.monotonic() - start < seconds:
            for traced in ((False, True) if trace else (False,)):
                left = RUN_LIMIT_S - (time.monotonic() - start)
                ops.append(_op(name, seed, traced, work / f"op{len(ops)}", left))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for op in ops for f in op["failures"]]
    good = [op for op in ops if not op["failures"]]
    hashes = {op["csv_sha256"] for op in good}
    if len(hashes) > 1:
        failures.append(f"CSV bytes differ between ops: {sorted(hashes)}")
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    metrics = {}
    if trace:
        metrics = _layer_metrics(traced, plain, failures)
    elif plain:
        metrics = {k: {"value": statistics.median(op[k] for op in plain), "unit": unit}
                   for k, unit in END_TO_END.items()}
    result = {"correct": not failures and bool(good), "attempted": len(ops),
              "failed": len(ops) - len(good), "metrics": metrics}
    from workloads import ALL_WORKLOADS
    details = {"workload": name, "seed": seed, "ops": len(ops),
               "horizon": ALL_WORKLOADS[name].horizon,
               "final_time": sorted({op["final_time"] for op in good}),
               "csv_sha256": sorted(hashes), "failures": failures,
               "absent": sorted({a for op in traced for a in op.get("absent", [])}),
               "per_op": [{k: op.get(k) for k in ("traced", "setup_s", "solve_s",
                                                   "rss_peak_mb")} for op in ops]}
    return result, details


def _layer_metrics(traced: list, plain: list, failures: list) -> dict:
    import layers
    if not traced or not plain:
        return {}
    metrics = {}
    for name, (unit, *_rest) in layers.PER_LAYER.items():
        values = [op["layers"][name] for op in traced if name in op["layers"]]
        if not values:
            continue
        if name in layers.EXACT:
            if len(set(values)) > 1:
                failures.append(f"{name} differs between traced ops: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(op["solve_s"] for op in traced)
                / statistics.median(op["solve_s"] for op in plain) - 1.0)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def environment(name: str, seed: int) -> dict:
    """What the timings depend on besides the code."""
    import hashlib
    import platform

    import numpy
    import scipy

    from workloads import N_DATA

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            return None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lagstokes").glob("*.py")):
        src.update(path.read_bytes())
    return {"workload": name, "seed": seed, "datum": seed % N_DATA,
            "git_commit": _git_commit(), "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _summary(result: dict, details: dict) -> str:
    parts = []
    for k, m in result["metrics"].items():
        if k in END_TO_END or k == "trace.overhead_frac":
            parts.append(f"{k} {m['value']:.4g} {m['unit']}")
    parts.append(f"failed_frac {result['failed'] / result['attempted']:.3g} ratio "
                 f"({result['failed']}/{result['attempted']} ops)")
    parts.append(f"final_time {details['final_time']} (horizon {details['horizon']})")
    return f"{details['workload']} seed {details['seed']}: " + ", ".join(parts)


def self_check() -> int:
    """Run the tiny workloads traced and untraced; confirm every metric that
    BENCHMARK.json names is emitted and the checks pass."""
    import layers
    from workloads import SELF_CHECK, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"] for m in spec["per_layer"]} != set(layers.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        for name in SELF_CHECK:
            result, details = run_workload(name, 1, 0.0, trace)
            missing = [m["name"] for m in spec[section]
                       if m["name"] not in result["metrics"]]
            if not result["correct"] or missing:
                problems.append(f"{name} trace={int(trace)}: missing {missing}, "
                                f"failures {details['failures']}")
            print(_summary(result, details))
    for p in problems:
        print("self-check:", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lagstokes" / "__init__.py").is_file():
        print(f"error: no lagstokes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.self_check:
        return self_check()
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        ap.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")
    status = 0
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"environment": environment(name, args.seed)}))
        print(json.dumps({"details": details}))
        print(_summary(result, details))
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
