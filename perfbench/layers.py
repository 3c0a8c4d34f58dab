"""Per-layer metrics: what each one measures, which end-to-end metric it
should move and on which workload, and how it is computed from one traced op.

Times are in seconds; a ``.self_s`` is the span time minus the time its
child spans cover.  Counts repeat exactly for a given seed.  No layer waits
on another process, so there are no wait metrics; the retry path of the
continuation (horizon halvings) is counted but not exercised by these data.
"""

from __future__ import annotations

# name -> (unit, better, end-to-end metric it should move, workloads)
PER_LAYER = {}

ALL = ("global-c12", "linear-fine")


def _add(names, moves, on, unit=None, better="lower"):
    for name in names:
        PER_LAYER[name] = (unit or ("s" if name.endswith("_s") else "count"),
                           better, moves, on)


def _calls_self(*spans):
    return [f"{s}.{k}" for s in spans for k in ("calls", "self_s")]


_add(["mesh.build_s"], "setup_s", ("linear-fine",))
_add(["fem.factor.calls", "fem.factor_s"], "setup_s", ("linear-fine",))
_add(["fem.lu_fill_nnz"], "rss_peak_mb", ("linear-fine",))
_add(_calls_self("fem.lu_solve"), "solve_s", ("linear-fine",))
_add(_calls_self("fem.recover_gradient", "fem.cell_gradients", "fem.hessian_seminorm",
                 "fem.field_l2", "fem.facet_l2"), "solve_s", ("global-c12",))
_add(_calls_self("kernel.neumann_cofactor") + ["kernel.neumann_cofactor.terms"]
     + _calls_self("kernel.accumulate_gradient", "kernel.pushforward_normal"),
     "solve_s", ("global-c12",))
_add(_calls_self("transmission.helmholtz_project", "transmission.build_rigid_basis"),
     "setup_s", ALL)
_add(["stepper.workspace_s", "stepper.step_factorization.calls"], "setup_s",
     ("linear-fine",))
_add(["stepper.lu_cache_hit_ratio"], "setup_s", ("linear-fine",), "ratio", "higher")
_add(_calls_self("stepper.step_linear", "stepper.run_linear"), "solve_s",
     ("linear-fine",))
_add(_calls_self("stepper.stress_volume_load", "stepper.facet_value_load"), "solve_s",
     ("global-c12",))
_add(["stepper.linear_steps_per_state"], "solve_s", ("global-c12",), "ratio")
_add(["fixedpoint.segments", "fixedpoint.picard_iters", "fixedpoint.horizon_halvings"]
     + _calls_self("fixedpoint.picard_solve_local") + ["fixedpoint.global_continue.self_s"]
     + _calls_self("fixedpoint.compute_nonlinear_terms", "fixedpoint.trajectory_norm"),
     "solve_s", ("global-c12",))
_add(["fixedpoint.cofactor_evals_per_state_iter", "fixedpoint.rhs_evals_per_state_iter"],
     "solve_s", ("global-c12",), "ratio")
_add(_calls_self("diagnostics.discrete_spectrum")
     + ["diagnostics.energy_budget.self_s", "diagnostics.momentum_and_barycenter.self_s"],
     "solve_s", ("global-c12",))
_add(["snapshots.write_csv.self_s"], "solve_s", ALL)
_add(["trace.overhead_frac"], None, ALL, "ratio")

# Counts, and ratios of counts, repeat exactly between traced ops of one seed.
EXACT = tuple(n for n in PER_LAYER
              if not n.endswith("_s") and n != "trace.overhead_frac")

# span -> the part of its result the metrics read
EXTRACT = {
    "kernel.neumann_cofactor": lambda cof: cof.order,
    "fixedpoint.picard_solve_local":
        lambda res: (res[1].iterations, res[1].n_steps, res[1].horizon_halvings),
}


def compute(stats: dict, returns: dict, absent: list, op_info: dict) -> dict:
    """Metrics of one traced op.  A metric whose span or result field is gone
    is left out."""
    out = {}

    def put(name, fn):
        try:
            value = fn()
        except (KeyError, AttributeError, TypeError):
            return
        if value is not None:
            out[name] = value

    def span(name):
        if name in absent:
            raise KeyError(name)
        return stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "children": {}})

    def ratio(num, den):
        return num / den if den else 0.0

    for name in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key in ("calls", "self_s"):
            put(name, lambda base=base, key=key: span(base)[key])

    put("mesh.build_s", lambda: span("mesh.build")["total_s"])
    put("fem.factor_s", lambda: span("fem.factor")["total_s"])
    put("fem.lu_fill_nnz", lambda: op_info["lu_fill_nnz"])
    put("kernel.neumann_cofactor.terms",
        lambda: sum(returns["kernel.neumann_cofactor"]))
    put("stepper.workspace_s", lambda: span("stepper.workspace")["total_s"])
    put("stepper.lu_cache_hit_ratio", lambda: ratio(
        span("stepper.step_factorization")["calls"]
        - span("stepper.step_factorization")["children"].get("fem.factor", 0),
        span("stepper.step_factorization")["calls"]))
    put("stepper.linear_steps_per_state", lambda: ratio(
        span("stepper.step_linear")["calls"], op_info["delivered_states"]))

    # (iterations, n_steps, horizon_halvings) of each IterationReport returned
    reports = returns.get("fixedpoint.picard_solve_local", [])
    state_iters = lambda: sum(it * (n + 1) for it, n, _ in reports)  # noqa: E731
    put("fixedpoint.segments", lambda: len(reports))
    put("fixedpoint.picard_iters", lambda: sum(it for it, _, _ in reports))
    put("fixedpoint.horizon_halvings", lambda: sum(h for _, _, h in reports))
    put("fixedpoint.cofactor_evals_per_state_iter", lambda: ratio(
        span("kernel.neumann_cofactor")["calls"], state_iters()))
    put("fixedpoint.rhs_evals_per_state_iter", lambda: ratio(
        span("fixedpoint.compute_nonlinear_terms")["calls"], state_iters()))
    return out
