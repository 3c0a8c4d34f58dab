"""Spans around the calls into each layer's public functions.

The wrappers live here, in the benchmark, and the package source is not
changed.  Each wrapped name is replaced in every ``lagstokes`` module
namespace that bound it (``fixedpoint`` imports ``run_linear`` by name, the
package re-exports most functions), and methods are wrapped on their class,
which every importer shares.  A name that no longer exists is recorded as
absent, so the metrics built on it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "mesh.build": ("mesh", "build_two_phase_disk"),
    "fem.factor": ("fem", "Factorized.__init__"),
    "fem.lu_solve": ("fem", "Factorized.solve"),
    "fem.recover_gradient": ("fem", "recover_gradient"),
    "fem.cell_gradients": ("fem", "cell_gradients"),
    "fem.hessian_seminorm": ("fem", "hessian_seminorm"),
    "fem.field_l2": ("fem", "field_l2"),
    "fem.facet_l2": ("fem", "facet_l2"),
    "kernel.neumann_cofactor": ("kernel", "neumann_cofactor"),
    "kernel.accumulate_gradient": ("kernel", "accumulate_gradient"),
    "kernel.pushforward_normal": ("kernel", "pushforward_normal"),
    "transmission.helmholtz_project": ("transmission", "helmholtz_project"),
    "transmission.build_rigid_basis": ("transmission", "build_rigid_basis"),
    "stepper.workspace": ("stepper", "StokesWorkspace.__init__"),
    "stepper.step_factorization": ("stepper", "StokesWorkspace.step_factorization"),
    "stepper.step_linear": ("stepper", "step_linear"),
    "stepper.run_linear": ("stepper", "run_linear"),
    "stepper.stress_volume_load": ("stepper", "StokesWorkspace.stress_volume_load"),
    "stepper.facet_value_load": ("stepper", "StokesWorkspace.facet_value_load"),
    "fixedpoint.picard_solve_local": ("fixedpoint", "picard_solve_local"),
    "fixedpoint.global_continue": ("fixedpoint", "global_continue"),
    "fixedpoint.compute_nonlinear_terms": ("fixedpoint", "compute_nonlinear_terms"),
    "fixedpoint.trajectory_norm": ("fixedpoint", "trajectory_norm"),
    "diagnostics.discrete_spectrum": ("diagnostics", "discrete_spectrum"),
    "diagnostics.energy_budget": ("diagnostics", "energy_budget"),
    "diagnostics.momentum_and_barycenter": ("diagnostics", "momentum_and_barycenter"),
    "snapshots.write_csv": ("snapshots", "write_csv"),
}


class Tracer:
    """In-memory spans (name, start, end, parent index) plus the values the
    return hooks read off results."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.returns: dict[str, list] = defaultdict(list)   # extracted results

    def _wrap(self, name, fn, extract):
        spans, stack, returns = self.spans, self._stack, self.returns
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if extract is not None:
                try:
                    returns[name].append(extract(result))
                except (AttributeError, TypeError, IndexError):
                    returns[name].append(None)
            return result

        return traced

    def install(self, extract: dict):
        """Wrap every target that exists.  ``extract`` maps a span name to a
        function of the call's result whose value is kept in ``returns``."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "lagstokes"
                                           or name.startswith("lagstokes."))}
        for span, (modname, path) in TARGETS.items():
            owner = modules.get(f"lagstokes.{modname}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(span)
                continue
            wrapped = self._wrap(span, orig, extract.get(span))
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds, self seconds (duration minus
        the time its direct child spans cover) and the number of direct
        children of each name."""
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "children": defaultdict(int)})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                stats[self.spans[parent][0]]["children"][name] += 1
        for (name, start, end, _), covered in zip(self.spans, child_time):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - covered
        return stats
