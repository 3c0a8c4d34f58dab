"""Workload definitions and the seeded initial datum.

Every workload uses the two-phase disk with radii 0.5/1.0, material
parameters (eta+, eta-, mu+, mu-) = (2.0, 1.0, 0.3, 0.1) and dt = 0.05.
The program receives only the generated initial velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARAMS = (2.0, 1.0, 0.3, 0.1)
R_INNER, R_OUTER = 0.5, 1.0
DT = 0.05

# Reference series are stored for this many data; seed s runs datum s mod N_DATA.
N_DATA = 16
# Weight of the seeded profiles next to the c12 swirl; it keeps the Picard
# iteration count (the work) the same across seeds, so that seeds vary the
# data but not the cost.
PERTURBATION = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str            # "global" (global_continue) or "linear" (run_linear)
    n_radial: int
    n_angular: int
    h1_norm: float         # H1 norm of the datum before the projections
    horizon: float         # global: continuation horizon; linear: n_steps * DT
    why: str
    smallness: float = 10.0

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / DT))


WORKLOADS = {w.name: w for w in (
    Workload("global-c12", "global", 3, 12, 0.04, 10.0,
             "c12 global continuation on 3x12: Python/numpy call overhead in "
             "fixedpoint, kernel and fem; ~60 Picard iterations over 10 segments"),
    Workload("linear-fine", "linear", 24, 96, 0.1, 10.0,
             "run_linear on 24x96 (32k unknowns), 200 steps: LU fill, factor and "
             "triangular solves; bypasses the nonlinear path"),
)}

# Tiny configurations for ``run.py --self-check``; not benchmarked.
SELF_CHECK = {w.name: w for w in (
    Workload("selfcheck-global", "global", 3, 12, 0.04, 0.4, "self-check"),
    Workload("selfcheck-linear", "linear", 3, 12, 0.1, 0.4, "self-check"),
)}
ALL_WORKLOADS = {**WORKLOADS, **SELF_CHECK}

# Stream-function multipliers m_k(x, y) and their gradients; the profile k is
# curl(w^2 m_k) with w = 1.1 R^2 - r^2, so every profile is divergence-free and
# profile 0 is (a multiple of) the swirl w (y, -x) of the c12 datum.
_MULTIPLIERS = (
    (lambda x, y: 1.0, lambda x, y: 0.0, lambda x, y: 0.0),
    (lambda x, y: x, lambda x, y: 1.0, lambda x, y: 0.0),
    (lambda x, y: y, lambda x, y: 0.0, lambda x, y: 1.0),
    (lambda x, y: x * x - y * y, lambda x, y: 2 * x, lambda x, y: -2 * y),
    (lambda x, y: 2 * x * y, lambda x, y: 2 * y, lambda x, y: 2 * x),
)


def datum_coefficients(seed: int) -> np.ndarray:
    """Weights of the profiles for the datum that ``seed`` selects."""
    rng = np.random.default_rng(seed % N_DATA)
    coef = PERTURBATION * rng.standard_normal(len(_MULTIPLIERS))
    coef[0] = 1.0
    return coef


def _profile(coef: np.ndarray, x: float, y: float) -> np.ndarray:
    w = 1.1 * R_OUTER * R_OUTER - x * x - y * y
    u = np.zeros(2)
    for c, (m, mx, my) in zip(coef, _MULTIPLIERS):
        # psi = w^2 m: d/dx psi = w (w m_x - 4 x m), d/dy psi = w (w m_y - 4 y m)
        u += c * w * np.array([w * my(x, y) - 4 * y * m(x, y),
                               -(w * mx(x, y) - 4 * x * m(x, y))])
    return u


def initial_datum(workload: Workload, seed: int, mesh, params, ws):
    """Seeded smooth datum scaled to the workload's H1 norm, then rigid- and
    Helmholtz-projected as the command line's ``build_initial`` does."""
    import lagstokes   # looked up at call time, so traced runs see the wrappers

    fem = lagstokes.fem
    coef = datum_coefficients(seed)
    u0 = fem.interpolate(mesh, lambda x, y: _profile(coef, x, y), 2)
    u0 = u0 * (workload.h1_norm / fem.field_h1(u0))
    u0 = lagstokes.project_out_rigid(u0, ws.rigid_basis(), params)
    u0, _ = lagstokes.helmholtz_project(u0, params)
    return u0
