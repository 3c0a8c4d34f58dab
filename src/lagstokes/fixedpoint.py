"""Nonlinear right-hand sides of the Lagrangian two-phase system, the
Picard solution map on a short horizon, stability probing, and global
continuation for the droplet.

The solver decomposes the unknown as (linear evolution) + (correction) and
iterates the map that feeds the previous iterate's Lagrangian geometry
into the linear stepper.  Horizons obey the smallness conditions derived
from the exponent arithmetic, with adaptive halving when the measured
contraction factor is too large or the displacement gradient leaves the
series region.  Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cache

import numpy as np

from . import fem, kernel
from .errors import (DomainError, GeometryError, NonContractionError,
                     ParameterError, ValidationError)
from .mesh import Field
from .stepper import StokesWorkspace, Trajectory, run_linear
from .transmission import MaterialParams, helmholtz_project, project_out_rigid, rigid_momenta


# -- exponent arithmetic -------------------------------------------------------

@dataclass(frozen=True)
class ExponentSet:
    """The three time-smallness exponents of the short-horizon estimates."""

    sigma: float
    s: float
    sigma_tilde: float
    index_class: str   # "I" (p >= 2) or "II" (p < 2 with the slope condition)


def sigma_exponents(p: float, q: float, n_dim: int = 2) -> ExponentSet:
    """Exponents sigma_{p,q}, s_{p,q}, sigma~_{p,q} of the nonlinear
    estimates.

    Admissible indices: q > N with either p >= 2 (class I) or
    1 < p < 2 and 1/p + N/q > 3/2 (class II).
    """
    if not q > n_dim:
        raise DomainError(f"need q > N = {n_dim}, got q = {q}")
    if not p > 1:
        raise DomainError(f"need p > 1, got p = {p}")
    if p >= 2:
        index_class = "I"
    else:
        if not (1.0 / p + n_dim / q > 1.5):
            raise DomainError(
                f"(p, q) = ({p}, {q}) outside the admissible index sets: "
                "p < 2 requires 1/p + N/q > 3/2")
        index_class = "II"
    sigma = 0.5 * (1.0 - n_dim / q) if (2.0 / p + n_dim / q > 1.0) else 0.0
    if index_class == "I":
        s = 0.5 * (1.0 - n_dim / (p * q) + sigma)
    else:
        s = 0.5 * ((1.0 - 1.0 / p) + sigma)
    sigma_tilde = min(1.0 / p, 0.5 * (1.0 - n_dim / q))
    return ExponentSet(sigma=sigma, s=s, sigma_tilde=sigma_tilde, index_class=index_class)


def select_local_T(L: float, exps: ExponentSet, p: float, C_cal: float = 1.0) -> float:
    """Largest horizon T <= 1 satisfying both smallness conditions

        C_cal * T^(1/p' + sigma) * L <= 1/2   and   C_cal * T^s * L <= 1.
    """
    if not L > 0:
        raise DomainError(f"bound L must be positive, got {L}")
    if not C_cal > 0:
        raise DomainError(f"calibration constant must be positive, got {C_cal}")
    one_pprime = 1.0 - 1.0 / p
    t1 = (0.5 / (C_cal * L)) ** (1.0 / (one_pprime + exps.sigma))
    t2 = (1.0 / (C_cal * L)) ** (1.0 / exps.s)
    return min(1.0, t1, t2)


# -- configuration -------------------------------------------------------------

@dataclass
class IterationConfig:
    """Parameters of the fixed-point solver.

    ``L_bound = 0`` measures the bound from the linear solve; ``eps0 = 0``
    derives the decay weight from the discrete spectral gap.  ``gamma0``
    is the exponential bookkeeping weight of the extension bounds.
    """

    p: float = 2.0
    q: float = 4.0
    dt: float = 0.05
    horizon: float = 1.0
    L_bound: float = 0.0
    fp_tol: float = 1e-11
    max_iters: int = 30
    kappa_cap: float = 0.5
    gamma0: float = 1.0
    eps0: float = 0.0
    C_cal: float = 1.0
    a_cal: float = 1.0
    contraction_target: float = 0.9
    min_steps: int = 4
    smallness: float = 1.0
    n_dim: int = 2

    def __post_init__(self):
        self.exponents = sigma_exponents(self.p, self.q, self.n_dim)
        if self.dt <= 0:
            raise ValidationError("dt must be positive", field="dt")
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive", field="horizon")
        if self.gamma0 < 1.0:
            raise ValidationError("gamma0 must be >= 1", field="gamma0")
        if not (0 < self.kappa_cap < 1):
            raise ValidationError("kappa_cap must lie in (0, 1)", field="kappa_cap")
        if self.fp_tol <= 0:
            raise ValidationError("fp_tol must be positive", field="fp_tol")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1", field="max_iters")
        if self.min_steps < 1:
            raise ValidationError("min_steps must be >= 1", field="min_steps")


# -- time-series extension operators -------------------------------------------

def extension_reflect(values: np.ndarray, dt: float, t: float) -> np.ndarray:
    """Even reflection about s = t of cell-centered samples on (0, T),
    zero outside (0, 2t): sample j of the output mirrors index 2m-1-j.

    ``t`` must be a grid multiple within (0, T]."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if dt <= 0:
        raise ParameterError("dt must be positive")
    m = int(round(t / dt))
    if m < 1 or m > n or abs(m * dt - t) > 1e-9 * dt:
        raise ParameterError(f"t = {t} is not a grid multiple inside (0, {n * dt}]")
    out = np.zeros((2 * m,) + values.shape[1:])
    out[:m] = values[:m]
    out[m:] = values[m - 1::-1]
    return out


def smoothstep_cutoff(x: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 1 for x <= 0, 0 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    return 1.0 - (10.0 * x ** 3 - 15.0 * x ** 4 + 6.0 * x ** 5)


@dataclass
class CutoffExtension:
    values: np.ndarray
    bound_factor: float      # measured weighted-norm quotient
    bound_limit: float       # (1 + e^{2 p gamma})^{1/p}


def weighted_lp_norm(values: np.ndarray, dt: float, p: float, gamma: float) -> float:
    """Discrete (sum dt |e^{gamma s} v|^p)^{1/p} on cell-centered samples."""
    values = np.asarray(values, dtype=float)
    s = (np.arange(len(values)) + 0.5) * dt
    flat = np.abs(values).reshape(len(values), -1).max(axis=1) if values.ndim > 1 \
        else np.abs(values)
    return float((dt * np.sum((np.exp(gamma * s) * flat) ** p)) ** (1.0 / p))


def cutoff_extension(values: np.ndarray, dt: float, T: float,
                     gamma: float, p: float) -> CutoffExtension:
    """phi_T x (even reflection about T): the compactly supported extension
    used by the global continuation, with the measured exponential-weight
    bound against its theoretical limit (1 + e^{2 p gamma})^{1/p}."""
    ext = extension_reflect(values, dt, T)
    m = len(ext)
    s = (np.arange(m) + 0.5) * dt
    phi = smoothstep_cutoff(s - T)
    out = ext * (phi if ext.ndim == 1 else phi.reshape(-1, *([1] * (ext.ndim - 1))))
    nin = weighted_lp_norm(values[:int(round(T / dt))], dt, p, gamma)
    nout = weighted_lp_norm(out, dt, p, gamma)
    factor = nout / nin if nin > 0 else 0.0
    limit = (1.0 + math.exp(2.0 * p * gamma)) ** (1.0 / p)
    return CutoffExtension(values=out, bound_factor=factor, bound_limit=limit)


# -- nonlinear right-hand sides -------------------------------------------------

@dataclass
class NonlinearRHS:
    """The five data fields of the Stokes-like reformulation at one time, or
    at a stack of times (every array and field then has a leading axis).

    The stress difference T(u,q) - T_A(u,q) A enters the momentum equation
    weakly (``stress`` per cell, applied through the integration-by-parts
    load); ``f_ext`` carries the external-force and density-defect parts.
    ``h_jump`` is the interface jump of T n - T_A nbar and ``k`` the outer
    traction defect (nodal traces, used for reports and the Xi residuals).

    For assembly, the combined facet terms [[h]] - [[Sigma n]] and
    k - Sigma n+ collapse analytically to T_A (A n - nbar); the solver uses
    that collapsed form built from the same cellwise data as ``stress``
    (``j_gamma`` per interface facet, ``j_outer`` per outer facet), so the
    stress traces cancel exactly instead of through two discretizations.
    """

    t: float                           # or (n_steps,) for a stack
    stress: np.ndarray                 # (nc, 2, 2)
    g: Field
    R: Field
    h_jump: np.ndarray                 # (n_gamma_nodes, 2)
    k: np.ndarray                      # (n_outer_nodes, 2)
    j_gamma: np.ndarray                # (n_interface_facets, 2): [[T_A (A n - nbar)]]
    j_outer: np.ndarray                # (n_outer_facets, 2)
    f_ext: Field | None = None


def _history(hist, n: int):
    """Mesh and the values of the last (up to) ``n`` entries of a list of
    fields or of a field stack, as (n, nsdof, ncomp)."""
    if isinstance(hist, Field):
        vals = hist.values if hist.values.ndim == 3 else hist.values[None]
        return hist.mesh, vals[-n:]
    return hist[-1].mesh, np.stack([f.values for f in hist[-n:]])


def compute_nonlinear_terms(u_hist, q_hist, A: kernel.CofactorField,
                            params: MaterialParams, dt: float,
                            rho0: Field | None = None, f_ext=None,
                            X: np.ndarray | None = None,
                            eval_time=0.0,
                            mu_nodal: Field | None = None,
                            grads: tuple | None = None) -> NonlinearRHS:
    """Assemble the nonlinear data at the last times of a history.

    ``u_hist`` and ``q_hist`` are the velocity/pressure fields up to the
    evaluation time, oldest first, as lists of fields or field stacks.  A
    single-time cofactor ``A`` evaluates the last entry; a cofactor stack
    evaluates the last ``len(A.mats)`` entries in one pass, and the result
    then carries the same leading axis (``X`` and ``eval_time`` give one
    entry per evaluated time).  Each evaluated entry's predecessor in the
    history supplies the time derivative needed when the density differs
    from eta.  The divergence parts use nodal recovered Jacobians; the
    momentum source is produced in weak form from exact cellwise gradients,
    never by second differentiation.  ``f_ext`` is called as f(x, y, t) at
    the mapped positions ``X``; ``mu_nodal`` tabulates a smooth viscosity
    mu(rho0) nodewise, replacing the piecewise-constant coefficients of
    ``params``.  ``grads`` passes the evaluated velocities' cell gradients
    and recovered nodal Jacobians, ``(fem.cell_gradients(u),
    fem.recover_gradient(u))``, when the caller already has them.
    """
    single = A.mats.ndim == 3
    A_n = A.mats[None] if single else A.mats            # (k, nsdof, 2, 2)
    n_eval = len(A_n)
    mesh, hist = _history(u_hist, n_eval + 1)
    if A.mesh is not mesh:
        _raise_shape()
    if len(hist) < n_eval:
        _raise_shape("history is shorter than the cofactor stack")
    u_vals = hist[-n_eval:]
    q_vals = _history(q_hist, n_eval)[1]
    u = Field(mesh, 2, u_vals)
    q = Field(mesh, 1, q_vals)
    mu_c = params.mu_cells(mesh) if mu_nodal is None \
        else fem.cell_values(mu_nodal)[:, 0]
    if grads is None:
        G_c = fem.cell_gradients(u)
        grads = G_c, fem.recover_gradient(u, G_c)
    G_c, G_n = grads                                   # (k, nc, 2, 2), (k, nsdof, 2, 2)

    # the 2x2 algebra runs on component planes (kernel.to_planes): entry
    # (i, j) of a stack is one contiguous plane and a transpose is a swap of
    # the two leading axes
    mul, apply = kernel.mul_planes, kernel.apply_planes
    a_n, g_n = kernel.to_planes(A_n), kernel.to_planes(G_n)      # (2, 2, k, nsdof)

    # cellwise exact quantities for the weak momentum source
    q_c = fem.cell_values(q)[..., 0]
    g_c = kernel.to_planes(G_c)
    a_c = a_n[..., mesh.cell_sdofs].mean(axis=-1)                 # (2, 2, k, nc)
    gt_c, at_c = g_c.swapaxes(0, 1), a_c.swapaxes(0, 1)
    d_c = g_c + gt_c
    du_c = mul(g_c, at_c) + mul(a_c, gt_c)
    eye = np.eye(2)[:, :, None, None]
    t_c = mu_c * d_c - q_c * eye
    tu_c = mu_c * du_c - q_c * eye
    stress = t_c - mul(tu_c, a_c)

    # nodal recovered quantities for the divergence data
    ima_t = _eye_minus(a_n).swapaxes(0, 1)
    gi = mul(g_n, ima_t)
    g_vals = gi[0, 0] + gi[1, 1]                          # tr(G (I - A^T))
    R_vals = kernel.from_vector_planes(apply(ima_t, kernel.vector_planes(u_vals)))

    # interface and outer traction defects from nodal traces
    nbar = kernel.pushforward_normal(kernel.CofactorField(mesh, A_n), mesh)
    mu_s = params.mu_sdofs(mesh) if mu_nodal is None else mu_nodal.values[:, 0]
    q_dof = q_vals[..., 0]
    h_jump, k = _traction_defects(mesh, g_n, a_n, q_dof, mu_s, nbar)
    j_gamma, j_outer = _facet_corrections(mesh, tu_c, a_c)

    f_vals = None
    if rho0 is not None or f_ext is not None:
        eta_s = params.eta_sdofs(mesh)
        acc = np.zeros(u_vals.shape)
        if f_ext is not None:
            # compose the force with the Lagrangian map by nodal interpolation
            pos = np.broadcast_to(mesh.nodes if X is None else X, (n_eval, mesh.n_nodes, 2))
            times = np.broadcast_to(eval_time, (n_eval,))
            fvals = np.array([[np.atleast_1d(f_ext(x, y, t)) for x, y in pos_t]
                              for pos_t, t in zip(pos, times)], dtype=float)
            fnod = Field.from_nodal(mesh, fvals)
            rho_vals = eta_s if rho0 is None else rho0.values[:, 0]
            acc += rho_vals[:, None] * fnod.values
        if rho0 is not None and len(hist) >= 2:
            dudt = np.diff(hist, axis=0) / dt
            acc[n_eval - len(dudt):] += (eta_s - rho0.values[:, 0])[:, None] * dudt
        f_vals = acc / eta_s[:, None]

    pick = (lambda a: a[0]) if single else (lambda a: a)
    return NonlinearRHS(t=eval_time, stress=pick(kernel.from_planes(stress)),
                        g=Field(mesh, 1, pick(g_vals[..., None])),
                        R=Field(mesh, 2, pick(R_vals)),
                        h_jump=pick(h_jump), k=pick(k),
                        j_gamma=pick(j_gamma), j_outer=pick(j_outer),
                        f_ext=None if f_vals is None else Field(mesh, 2, pick(f_vals)))


def _unit(vec: np.ndarray) -> np.ndarray:
    """Unit vectors of a (2, ...) component-plane stack."""
    return vec / np.sqrt(vec[0] * vec[0] + vec[1] * vec[1])


def _facet_corrections(mesh, tu_c: np.ndarray, a_c: np.ndarray):
    """Per-facet values of [[T_A (A n - nbar)]] on Gamma and of
    T_A (A n+ - nbar+) on Gamma_plus, from the adjacent-cell traces of the
    component planes ``tu_c`` and ``a_c``; the pushforward normal uses the
    facet-averaged cofactor so it stays single-valued on the interface.
    The plus, minus and outer traces go through each product together."""
    ni = mesh.n_interface_facets
    cells = np.concatenate([mesh.interface_facets[:, 2], mesh.interface_facets[:, 3],
                            mesh.outer_facets[:, 2]])
    normals = np.concatenate([mesh.facet_normals[:ni], mesh.facet_normals])
    an = kernel.apply_planes(a_c[..., cells], kernel.vector_planes(normals))
    an_p, an_m, an_o = an[..., :ni], an[..., ni:2 * ni], an[..., 2 * ni:]
    nbar = _unit(0.5 * (an_p + an_m))
    j = kernel.apply_planes(tu_c[..., cells], np.concatenate(
        [an_p - nbar, an_m - nbar, an_o - _unit(an_o)], axis=-1))
    return (kernel.from_vector_planes(j[..., :ni] - j[..., ni:2 * ni]),
            kernel.from_vector_planes(j[..., 2 * ni:]))


def _raise_shape(msg: str = "cofactor field and velocity live on different meshes"):
    from .errors import ShapeError
    raise ShapeError(msg)


def _eye_minus(planes: np.ndarray) -> np.ndarray:
    """I - A of a component-plane stack."""
    out = -planes
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


def _traction_defects(mesh, g_n, a_n, q_dof, mu_s, nbar):
    """The interface jump on Gamma and the outer value on Gamma_plus of
    T(u,q) n - T_A(u,q) nbar from nodal traces, per time of the stacks
    q_dof and of the component planes g_n and a_n.  The plus, minus and
    outer traces go through each product together."""
    gn, on = mesh.gamma_nodes, mesh.gamma_plus_nodes
    ng = len(gn)
    outer = mesh.sdof_minus[on] if mesh.outer_phase < 0 else mesh.sdof_plus[on]
    sdofs = np.concatenate([mesh.sdof_plus[gn], mesh.sdof_minus[gn], outer])
    n_fixed = kernel.vector_planes(np.concatenate(
        [mesh.node_normals_gamma, mesh.node_normals_gamma, mesh.node_normals_outer]))[:, None]
    n_bar = kernel.vector_planes(np.concatenate([nbar.gamma, nbar.gamma, nbar.outer], axis=-2))
    mul, apply = kernel.mul_planes, kernel.apply_planes
    g = g_n[..., sdofs]
    a = a_n[..., sdofs]
    gt, at = g.swapaxes(0, 1), a.swapaxes(0, 1)
    d = g + gt
    du = mul(g, at) + mul(a, gt)
    mu = mu_s[sdofs]
    q = q_dof[:, sdofs]
    t_n = mu * apply(d, n_fixed) - q * n_fixed
    tu_nb = mu * apply(du, n_bar) - q * n_bar
    defect = t_n - tu_nb
    return (kernel.from_vector_planes(defect[..., :ng] - defect[..., ng:2 * ng]),
            kernel.from_vector_planes(defect[..., 2 * ng:]))


# -- trajectory norms ------------------------------------------------------------

def _lp(vals, dt: float, p: float) -> float:
    """Discrete L_p-in-time norm (dt sum |v|^p)^(1/p); 0 without samples."""
    vals = np.asarray(vals, dtype=float)
    return float((dt * np.sum(vals ** p)) ** (1.0 / p)) if vals.size else 0.0


def trajectory_norm(u: Field, q: Field, dt: float, p: float) -> float:
    """Computable surrogate of the maximal-regularity trajectory norm of the
    velocity and pressure field stacks u and q: sup-in-time H1 of u, plus
    L_p-in-time of the step increments / dt, the recovered second
    differences, and the pressure gradient."""
    inc = fem.field_l2(u[1:] - u[:-1]) / dt
    g = fem.cell_gradients(u)
    h1 = np.hypot(fem.field_l2(u), fem.field_h1_semi(u, g))
    return (float(np.max(h1)) + _lp(inc, dt, p)
            + _lp(fem.hessian_seminorm(u, g), dt, p) + _lp(fem.field_h1_semi(q), dt, p))


def _xi_norms(mesh, u: Field, rhs: NonlinearRHS | None, params, dt, p,
              mu_nodal: Field | None = None) -> tuple[float, float]:
    """L_p-in-time of the surface L2 norms of the normal-stress residuals
    Xi = (mu D(u) n) . n - h . n on Gamma and its outer analogue, over the
    field stack u (steps 0..n); the traction data ``rhs`` cover steps 1..n
    and were built with the same viscosity (``mu_nodal`` when given)."""
    mu_s = params.mu_sdofs(mesh) if mu_nodal is None else mu_nodal.values[:, 0]
    G = fem.recover_gradient(u)
    D = G + np.swapaxes(G, -1, -2)
    gn, on = mesh.gamma_nodes, mesh.gamma_plus_nodes
    nrm, onrm = mesh.node_normals_gamma, mesh.node_normals_outer
    sd = mesh.sdof_plus[gn]
    xi = mu_s[sd] * np.sum(nrm * kernel.apply2x2(D[:, sd], nrm), axis=-1)
    osd = mesh.sdof_minus[on] if mesh.outer_phase < 0 else mesh.sdof_plus[on]
    xio = mu_s[osd] * np.sum(onrm * kernel.apply2x2(D[:, osd], onrm), axis=-1)
    if rhs is not None:
        xi[1:] -= np.sum(rhs.h_jump * nrm, axis=-1)
        xio[1:] -= np.sum(rhs.k * onrm, axis=-1)

    def surface_norms(vals, nodes, facets, lengths):
        full = np.zeros((len(vals), mesh.n_nodes, 1))
        full[:, nodes, 0] = vals
        return fem.facet_l2(facets[:, :2], lengths, full)

    ni = mesh.n_interface_facets
    xi_series = surface_norms(xi, gn, mesh.interface_facets, mesh.facet_lengths[:ni])
    xio_series = surface_norms(xio, on, mesh.outer_facets, mesh.facet_lengths[ni:])
    return _lp(xi_series, dt, p), _lp(xio_series, dt, p)


# -- the Picard loop --------------------------------------------------------------

@dataclass
class IterationReport:
    converged: bool
    iterations: int
    contraction_factors: list
    distances: list
    horizon: float
    n_steps: int
    kappa_max: float
    residual: float                  # substituted nonlinear residual (relative)
    ball_norm: float                 # trajectory norm of the converged correction
    xi_norm: float
    xi_outer_norm: float
    L_bound: float
    horizon_halvings: int

    def csv_rows(self):
        rows = []
        for i, d in enumerate(self.distances):
            fac = self.contraction_factors[i - 1] if i >= 1 else float("nan")
            rows.append((i + 1, fac, d))
        return rows


def _build_geometry(mesh, grads: np.ndarray, dt, cfg, C0=None):
    """Accumulated displacement gradients and cofactors along a velocity
    stack (steps 0..n) from its recovered nodal Jacobians ``grads``, in one
    pass over the stack.

    Returns (C at step n, cofactor stack for steps 0..n, kappa_max); C0
    carries prior accumulation for continued runs, and otherwise the
    gradient at step 0 seeds the trapezoid left endpoint.
    """
    C = C0 if C0 is not None else kernel.DisplacementGradient(mesh)
    if C._last_grad is None:
        C = C.copy()
        C.seed_left_endpoint(grads[0])
    C_steps = kernel.accumulate_gradient(C, grads[1:], dt)
    A = kernel.neumann_cofactor(
        kernel.DisplacementGradient(mesh, np.concatenate([C.mats[None], C_steps.mats])),
        kappa=cfg.kappa_cap)
    return C_steps.last(), A, A.kappa


def picard_solve_local(v0: Field, cfg: IterationConfig, params: MaterialParams,
                       workspace: StokesWorkspace | None = None,
                       C0: kernel.DisplacementGradient | None = None,
                       X0: np.ndarray | None = None,
                       t0: float = 0.0,
                       rho0: Field | None = None,
                       f_ext=None,
                       mu_nodal: Field | None = None,
                       bubble0: np.ndarray | None = None) -> tuple[Trajectory, IterationReport]:
    """Fixed-point solve of the nonlinear system on a short horizon.

    The initial velocity is projected into the discrete divergence-free
    space, the horizon is chosen by the measured linear bound through the
    smallness conditions, and the Picard map (geometry from the previous
    iterate, one linear solve per iterate) runs until the successive
    trajectory distance falls below tolerance.  The horizon is halved when
    the series region or the contraction target is violated.  It takes at
    least ``cfg.min_steps`` steps but never runs past ``cfg.horizon``
    (rounded to the time grid).

    ``rho0`` (initial density), ``f_ext(x, y, t)`` (external force, composed
    with the Lagrangian map) and ``mu_nodal`` (tabulated smooth viscosity)
    enable the general local path; the defaults give the piecewise-constant
    forceless case the global continuation builds on.
    """
    mesh = v0.mesh
    if mu_nodal is not None:
        ws = StokesWorkspace(mesh, params,
                             mu_cells=fem.cell_values(mu_nodal)[:, 0])
    else:
        ws = workspace or StokesWorkspace(mesh, params)
    if C0 is None:
        v0, _ = helmholtz_project(v0, params, ws)

    # horizon from the measured linear bound; every attempt takes its linear
    # part from the leading states of this run
    n_hor = max(int(round(cfg.horizon / cfg.dt)), 1)
    n_cap = max(min(n_hor, int(round(1.0 / cfg.dt))), cfg.min_steps)
    lin = run_linear(v0, n_cap, cfg.dt, params, workspace=ws, bubble0=bubble0)
    lin_u, lin_q, lin_vecs = lin.u, lin.q, lin.uvecs

    @cache
    def lin_norm(n: int) -> float:
        """Trajectory norm of the linear stacks' steps 0..n, computed once."""
        return max(trajectory_norm(lin_u[:n + 1], lin_q[:n + 1], cfg.dt, cfg.p), 1e-12)

    L = cfg.L_bound
    if L <= 0:
        L = lin_norm(n_cap)
    T = min(select_local_T(L, cfg.exponents, cfg.p, cfg.C_cal), cfg.horizon)
    n_steps = min(max(int(math.ceil(T / cfg.dt - 1e-12)), cfg.min_steps), n_cap, n_hor)
    halvings = 0

    while True:
        head = slice(0, n_steps + 1)
        try:
            result = _picard_attempt(lin_u[head], lin_q[head], lin_vecs[head],
                                     lin_norm(n_steps), cfg, params, ws, C0, X0, t0, rho0,
                                     f_ext, mu_nodal)
        except (GeometryError, NonContractionError):
            if n_steps // 2 < cfg.min_steps:
                raise
            n_steps //= 2
            halvings += 1
            continue
        traj, report = result
        if report.converged and max(report.contraction_factors[1:], default=0.0) \
                < cfg.contraction_target:
            report.horizon_halvings = halvings
            report.L_bound = L
            return traj, report
        if n_steps // 2 < cfg.min_steps:
            report.horizon_halvings = halvings
            report.L_bound = L
            return traj, report
        n_steps //= 2
        halvings += 1


def _lagrangian_maps(mesh, u: Field, dt, X0) -> np.ndarray:
    """Nodal particle positions X = xi + int u dtau (trapezoid) at every
    step of the field stack u, (n_steps, n_nodes, 2)."""
    X = mesh.nodes if X0 is None else X0
    up = u.plus()
    return np.cumsum(np.concatenate([X[None], 0.5 * dt * (up[:-1] + up[1:])]), axis=0)


def _iterate_data(mesh, u: Field, q: Field, maps, cfg, C0, params, dt, t0, rho0, f_ext,
                  mu_nodal):
    """Geometry along the stacks u, q (steps 0..n) and their nonlinear data
    at steps 1..n, in one evaluation; u's cell gradients and recovered
    Jacobians are computed once and serve both.  Returns (C at step n,
    cofactor stack, kappa_max, nonlinear data)."""
    G_c = fem.cell_gradients(u)
    G_n = fem.recover_gradient(u, G_c)
    C_end, A, kappa_max = _build_geometry(mesh, G_n, dt, cfg, C0)
    n = len(A.mats) - 1
    rhs = compute_nonlinear_terms(u, q, A[1:], params, dt, rho0=rho0, f_ext=f_ext,
                                  X=None if maps is None else maps[1:],
                                  eval_time=t0 + dt * np.arange(1, n + 1),
                                  mu_nodal=mu_nodal, grads=(G_c[1:], G_n[1:]))
    return C_end, A, kappa_max, rhs


def _picard_attempt(lin_u, lin_q, lin_vecs, scale, cfg, params, ws, C0, X0, t0, rho0,
                    f_ext, mu_nodal):
    """Picard iteration on the horizon of the linear stacks (steps 0..n);
    each iterate evaluates its geometry and nonlinear data over the whole
    stack at once, and only the backward-Euler solves run step by step.
    The iteration stops when the iterates' distance falls below
    ``cfg.fp_tol * scale``, with ``scale`` the linear stacks' trajectory
    norm."""
    mesh = ws.mesh
    dt, p = cfg.dt, cfg.p
    n_steps = len(lin_vecs) - 1
    terms = dict(cfg=cfg, C0=C0, params=params, dt=dt, t0=t0, rho0=rho0, f_ext=f_ext,
                 mu_nodal=mu_nodal)

    U = Field(mesh, 2, np.zeros_like(lin_u.values))
    Q = Field(mesh, 1, np.zeros_like(lin_q.values))
    U_vecs = np.zeros_like(lin_vecs)
    distances, factors = [], []
    converged = False

    for it in range(cfg.max_iters):
        W, Th = lin_u + U, lin_q + Q
        maps = _lagrangian_maps(mesh, W, dt, X0) if f_ext is not None else None
        *_, rhs = _iterate_data(mesh, W, Th, maps, **terms)
        U_new_vecs, U_new, Q_new = _solve_correction(ws, dt, rhs)
        dist = trajectory_norm(U_new - U, Q_new - Q, dt, p)
        distances.append(dist)
        if len(distances) >= 2 and distances[-2] > 0:
            factors.append(dist / distances[-2])
        U, Q, U_vecs = U_new, Q_new, U_new_vecs
        if dist <= cfg.fp_tol * scale:
            converged = True
            break
    if not converged:
        fac = factors[-1] if factors else float("inf")
        if fac >= 1.0:
            raise NonContractionError(
                f"Picard iteration failed to contract (factor {fac:.3f})", factor=fac)

    # the composed solution; its geometry and nonlinear data are built once
    # and shared by the trajectory companions and the substituted residual
    u, q = lin_u + U, lin_q + Q
    u_vecs = lin_vecs + U_vecs
    maps = _lagrangian_maps(mesh, u, dt, X0)
    C_end, A_u, kappa_max, rhs_u = _iterate_data(mesh, u, q, maps if f_ext is not None
                                                 else None, **terms)
    traj = Trajectory(times=t0 + dt * np.arange(n_steps + 1), uvecs=u_vecs, q=q,
                      diagnostics={"energy": ws.kinetic_energy(u_vecs)},
                      cofactors=A_u.mats, lagrangian_maps=maps,
                      meta={"displacement": C_end}, workspace=ws)

    residual = _substituted_residual(ws, dt, u_vecs, q, rhs_u)
    ball = trajectory_norm(U, Q, dt, p)
    xi, xio = _xi_norms(mesh, U, rhs, params, dt, p, mu_nodal)
    report = IterationReport(converged=converged, iterations=len(distances),
                             contraction_factors=factors, distances=distances,
                             horizon=n_steps * dt, n_steps=n_steps,
                             kappa_max=kappa_max, residual=residual,
                             ball_norm=ball, xi_norm=xi, xi_outer_norm=xio,
                             L_bound=0.0, horizon_halvings=0)
    return traj, report


def _momentum_rhs(ws, rhs_nl: NonlinearRHS) -> np.ndarray:
    """Assembled momentum loads of the nonlinear data, one row per step:
    volume stress term plus the collapsed facet corrections (and the
    external part)."""
    load = ws.stress_volume_load(rhs_nl.stress)
    load += ws.facet_value_load(rhs_nl.j_gamma, interface=True)
    load += ws.facet_value_load(rhs_nl.j_outer, interface=False)
    if rhs_nl.f_ext is not None:
        load += fem.apply_sparse(ws.mass, fem.field_to_uvec(rhs_nl.f_ext), -1)
    return load


def _solve_correction(ws, dt, rhs_nl: NonlinearRHS):
    """Backward-Euler march for the correction from rest, driven by the
    nonlinear data at steps 1..n; the sequential part of an iterate.
    Returns the velocity dof stack and the velocity and pressure field
    stacks, steps 0..n."""
    mesh = ws.mesh
    loads = np.concatenate([_momentum_rhs(ws, rhs_nl),
                            fem.apply_sparse(ws.pressure_mass, rhs_nl.g.values[..., 0], -1)],
                           axis=1)
    xs = ws.march(dt, np.zeros(ws.nu + ws.np_), len(loads), lambda m: loads[m])
    vecs = xs[:, :ws.nu]
    return vecs, fem.uvec_to_field(mesh, vecs), Field(mesh, 1, xs[:, ws.nu:, None])


def _substituted_residual(ws, dt, u_vecs, q: Field, rhs_nl: NonlinearRHS) -> float:
    """Relative algebraic residual of the composed solution (velocity dof
    stack and pressure field stack, steps 0..n) substituted back into the
    discrete nonlinear system, with its own nonlinear data at steps 1..n."""
    lu = ws.step_factorization(dt)
    rhs = np.concatenate([fem.apply_sparse(ws.mass, u_vecs[:-1], -1) / dt
                          + _momentum_rhs(ws, rhs_nl),
                          fem.apply_sparse(ws.pressure_mass, rhs_nl.g.values[..., 0], -1)],
                         axis=1)
    z = np.concatenate([u_vecs[1:], q.values[1:, :, 0]], axis=1)
    r = fem.apply_sparse(lu.matrix, z, -1) - rhs
    rel = np.linalg.norm(r, axis=1) / np.maximum(np.linalg.norm(rhs, axis=1), 1e-300)
    return float(rel.max())


# -- stability probe ---------------------------------------------------------------

@dataclass
class StabilityReport:
    distance: float            # trajectory distance L
    initial_distance: float
    ratio: float
    horizon: float


def stability_probe(v0_a: Field, v0_b: Field, cfg: IterationConfig,
                    params: MaterialParams,
                    workspace: StokesWorkspace | None = None) -> StabilityReport:
    """Distance between the two fixed points divided by the initial-data
    distance; bounded ratios are the discrete uniqueness/stability probe."""
    ws = workspace or StokesWorkspace(v0_a.mesh, params)
    traj_a, rep_a = picard_solve_local(v0_a, cfg, params, workspace=ws)
    traj_b, rep_b = picard_solve_local(v0_b, cfg, params, workspace=ws)
    n = min(len(traj_a.times), len(traj_b.times))
    du = traj_b.u[:n] - traj_a.u[:n]
    dq = traj_b.q[:n] - traj_a.q[:n]
    dist = trajectory_norm(du, dq, cfg.dt, cfg.p)
    d0 = fem.field_h1(v0_b - v0_a)
    ratio = dist / d0 if d0 > 0 else 0.0
    return StabilityReport(distance=dist, initial_distance=d0, ratio=ratio,
                           horizon=min(rep_a.horizon, rep_b.horizon))


# -- global continuation -------------------------------------------------------------

@dataclass
class XReport:
    times: np.ndarray
    x_values: np.ndarray
    bound: float
    exceeded: bool
    eps0: float
    initial_norm: float
    momenta_drift: float
    decay_rate: float
    a_fit: float = float("nan")
    b_fit: float = float("nan")
    segments: list = dc_field(default_factory=list)   # IterationReport per local solve


def fit_x_recursion(x_values: np.ndarray) -> tuple[float, float]:
    """Least-squares (a, b) of X = a + b (X^2 + X^3) over the samples, with
    the intercept lifted so the inequality covers every sample."""
    x = np.asarray(x_values, dtype=float)
    x = x[np.isfinite(x)]
    if len(x) == 0:
        return 0.0, 0.0
    z = x ** 2 + x ** 3
    design = np.column_stack([np.ones_like(x), z])
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    a, b = float(coef[0]), float(max(coef[1], 0.0))
    a = max(a, float(np.max(x - b * z)), 0.0)
    return a, b


def global_continue(v0: Field, cfg: IterationConfig, params: MaterialParams,
                    workspace: StokesWorkspace | None = None,
                    orthogonality_tol: float = 1e-12) -> tuple[Trajectory, XReport]:
    """Extend the small-data droplet solution to the configured horizon by
    chained local solves, tracking the exponentially weighted functional

        X(T) = || e^{eps0 t} (d_t w, w, grad w, grad^2 w) ||_{Lp(Lq)}
             + || e^{eps0 t} P ||_{Lp(W1)},    (w, P) = (u, q) - (u_L, q_L),

    against the bound 2 * a_cal * ||v0||.  Requires rho0 = eta (piecewise
    constant), zero external force, and eta-orthogonality of v0 to the
    rigid motions (projected when violated beyond tolerance).
    """
    mesh = v0.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    basis = ws.rigid_basis()

    v0n = fem.field_h1(v0)
    moms = rigid_momenta(v0, basis, params)
    if np.abs(moms).max() > orthogonality_tol * max(v0n, 1e-30):
        v0 = project_out_rigid(v0, basis, params)
    v0, _ = helmholtz_project(v0, params, ws)
    init_norm = fem.field_h1(v0) + fem.hessian_seminorm(v0)
    if init_norm > cfg.smallness:
        raise ValidationError(
            f"initial datum norm {init_norm:.3e} exceeds the smallness bound "
            f"{cfg.smallness:.3e}", field="smallness")

    eps0 = cfg.eps0
    if eps0 <= 0:
        from .diagnostics import discrete_spectrum
        eps0 = 0.5 * discrete_spectrum(mesh, params, len(basis) + 3, ws).gap

    # global linear reference from the same datum; the continuation stops
    # at its final step, the horizon rounded to the time grid
    n_total = max(int(round(cfg.horizon / cfg.dt)), 1)
    lin = run_linear(v0, n_total, cfg.dt, params, workspace=ws)
    x_functional = _XFunctional(lin, cfg, eps0)

    bound = 2.0 * cfg.a_cal * init_norm
    # (velocity dofs, pressures, cofactors, maps) of each segment; a later
    # segment drops its first row, the previous segment's last state
    parts = []
    C_state, X_state = None, None
    x_times, x_vals, segments = [], [], []
    exceeded = False
    t = 0.0
    n_done = 0
    current = v0
    current_bubble = None
    while n_done < n_total and not exceeded:
        seg_cfg = replace(cfg, horizon=(n_total - n_done) * cfg.dt)
        traj, rep = picard_solve_local(current, seg_cfg, params, workspace=ws,
                                       C0=C_state, X0=X_state, t0=t,
                                       bubble0=current_bubble)
        if not rep.converged:
            raise NonContractionError(
                f"segment at t = {t:.4g} failed to converge "
                f"(last factor {rep.contraction_factors[-1] if rep.contraction_factors else float('nan'):.3g})")
        segments.append(rep)
        first = 1 if parts else 0
        parts.append((traj.uvecs[first:], traj.q.values[first:], traj.cofactors[first:],
                      traj.lagrangian_maps[first:]))
        n_done += rep.n_steps
        C_state = traj.meta["displacement"]
        X_state = traj.lagrangian_maps[-1]
        t = traj.times[-1]
        last = traj.states[-1]
        current, current_bubble = last.u, last.bubble

        x_now = x_functional(traj.u, traj.q)
        x_times.append(t)
        x_vals.append(x_now)
        if x_now > bound:
            exceeded = True

    vecs, q, cofactors, maps = (np.concatenate(stacks) for stacks in zip(*parts))
    full = Trajectory(times=cfg.dt * np.arange(n_done + 1), uvecs=vecs, q=Field(mesh, 1, q),
                      diagnostics={"energy": ws.kinetic_energy(vecs)},
                      cofactors=cofactors, lagrangian_maps=maps,
                      meta={"eps0": eps0, "bound": bound}, workspace=ws)

    from .diagnostics import decay_fit, momentum_and_barycenter
    vel = np.sqrt(np.maximum(2.0 * full.diagnostics["energy"], 1e-300))
    try:
        rate, _ = decay_fit(vel, cfg.dt)
    except (DomainError, ParameterError):
        rate = float("nan")
    # stored, so that the diagnostics of this trajectory reuse them
    mom = momentum_and_barycenter(full, params, ws)
    full.diagnostics["lagrangian_momenta"] = mom.momenta
    drift = float(mom.residuals["momentum"].max())
    a_fit, b_fit = fit_x_recursion(np.array(x_vals))
    report = XReport(times=np.asarray(x_times), x_values=np.asarray(x_vals),
                     bound=bound, exceeded=exceeded, eps0=eps0,
                     initial_norm=init_norm, momenta_drift=drift,
                     decay_rate=rate, a_fit=a_fit, b_fit=b_fit, segments=segments)
    return full, report


class _XFunctional:
    """X(T) of the delivered states against the linear reference trajectory.
    Each call takes the velocity and pressure stacks of one new segment,
    whose first row is the last step of the previous one, computes only the
    terms of its steps and keeps them, so the sums run over the same
    per-step terms as a full recomputation would."""

    def __init__(self, lin: Trajectory, cfg: IterationConfig, eps0: float):
        self.lin_u, self.lin_q = lin.u, lin.q
        self.dt, self.p, self.eps0 = cfg.dt, cfg.p, eps0
        self.terms, self.pterms = [], []

    def __call__(self, u: Field, q: Field) -> float:
        dt = self.dt
        m0 = len(self.terms) + 1                 # first step without its terms
        n = min(m0 - 1 + len(u.values), len(self.lin_u.values))
        if n > m0:
            w = u[:n - m0 + 1] - self.lin_u[m0 - 1:n]
            P = q[1:n - m0 + 1] - self.lin_q[m0:n]
            wn = w[1:]
            g = fem.cell_gradients(wn)
            s = (fem.field_l2(wn - w[:-1]) / dt + fem.field_l2(wn)
                 + fem.field_h1_semi(wn, g) + fem.hessian_seminorm(wn, g))
            weight = np.exp(self.eps0 * np.arange(m0, n) * dt)
            self.terms.extend(weight * s)
            self.pterms.extend(weight * fem.field_h1(P))
        return _lp(self.terms, dt, self.p) + _lp(self.pterms, dt, self.p)

