"""Conservation budgets, exponential-decay fitting, the cubic bootstrap
lemma and the discrete spectrum of the two-phase Stokes operator.

The spectrum is computed from the saddle-point generalized eigenproblem on
the discretely divergence-free manifold with the eta-weighted mass.  With
the pressure rows negated it is the real symmetric pencil
K = [[A, -B^T], [-B, 0]], M = diag(M_u, 0), solved by shift-invert Lanczos
(ARPACK) at a small negative shift, so the exact rigid-motion kernel
separates cleanly from the first positive cluster.  The shifted solves use
the unpivoted condensed saddle factor of the time steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, kernel
from .errors import DomainError, NumericError, ParameterError
from .mesh import Field
from .stepper import StokesWorkspace, Trajectory
from .transmission import MaterialParams

# decay_fit drops this leading fraction of the series as transient
_DROP_FRACTION = 0.1
# eigenvalues below this fraction of the largest computed one form the kernel
_KERNEL_TOL = 1e-8
# roundoff allowance of the bootstrap inequalities on sampled X
_BOOTSTRAP_SLACK = 1e-12


@dataclass
class ConservationReport:
    """Scalar budget series along a trajectory; residual arrays are keyed
    by identity name ('energy', 'momentum', 'barycenter')."""

    times: np.ndarray
    energy: np.ndarray | None = None
    dissipation: np.ndarray | None = None
    momenta: np.ndarray | None = None          # (n_steps+1, M)
    barycenter: np.ndarray | None = None       # (n_steps+1, 2)
    residuals: dict = dc_field(default_factory=dict)

    def csv_columns(self) -> dict:
        cols = {"time": self.times}
        if self.energy is not None:
            cols["energy"] = self.energy
        if self.dissipation is not None:
            cols["dissipation"] = self.dissipation
        if self.momenta is not None:
            for alpha in range(self.momenta.shape[1]):
                cols[f"momentum_{alpha}"] = self.momenta[:, alpha]
        if self.barycenter is not None:
            cols["barycenter_x"] = self.barycenter[:, 0]
            cols["barycenter_y"] = self.barycenter[:, 1]
        for name, arr in self.residuals.items():
            cols[f"residual_{name}"] = arr
        return cols


@dataclass
class SpectrumReport:
    """Eigenvalues of the discrete Stokes operator, ascending."""

    eigenvalues: np.ndarray
    kernel_dim: int
    gap: float                   # smallest nonzero eigenvalue
    kernel_vectors: np.ndarray = None   # velocity dof columns
    principal_angles: np.ndarray = None


def _lagrangian_dissipation(traj: Trajectory, mu_c: np.ndarray) -> np.ndarray:
    """1/2 int mu D_A(u):D_A(u) per step with the stored cofactors and the
    cellwise viscosity mu_c, evaluated cellwise (exact velocity gradients,
    centroid cofactor)."""
    mesh = traj.mesh
    weights = mesh.areas * mu_c
    u = traj.u

    def block(steps):
        # cells lead, (nc, n_steps, ...): ``weights @ r`` rounds differently
        # for a step-major r, which would move the dissipation's last bit
        g = kernel.to_planes(fem.cell_gradients(u[steps]).swapaxes(0, 1))
        Ac = traj.cofactors[steps][:, mesh.cell_sdofs].mean(axis=2)   # centroid values
        Du = kernel.from_planes(kernel.rate_tensors(g, kernel.to_planes(Ac.swapaxes(0, 1)))[1])
        return weights @ (0.5 * np.einsum("cnij,cnij->cn", Du, Du))

    return fem.blockwise(block, len(traj.times))


def energy_budget(traj: Trajectory, params: MaterialParams,
                  workspace: StokesWorkspace | None = None) -> ConservationReport:
    """Kinetic energy, dissipation and the per-step residual of the energy
    identity d/dt (1/2 eta|u|^2) + 1/2 (mu D(u), D(u)) = 0 of the forceless
    problem.

    With a Lagrangian trajectory (cofactors present) the dissipation uses
    the transformed deformation tensor and the viscosity the trajectory was
    solved with, that of its workspace.  Series the solver stored with the
    same workspace are reused.
    """
    n = len(traj.times)
    if n < 2:
        raise ParameterError("trajectory must contain at least two states")
    mesh = traj.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    dt = traj.dt
    energy = traj.series("energy", ws, ws.kinetic_energy)
    if traj.cofactors is not None:
        solved = traj.workspace
        dissip = _lagrangian_dissipation(
            traj, params.mu_cells(mesh) if solved is None else solved.mu_cells)
    else:
        dissip = traj.series("dissipation", ws, ws.dissipation)
    residual = np.zeros(n)
    residual[1:] = (energy[1:] - energy[:-1]) / dt + dissip[1:]
    return ConservationReport(times=traj.times, energy=energy, dissipation=dissip,
                              residuals={"energy": residual})


def momentum_and_barycenter(traj: Trajectory, params: MaterialParams,
                            workspace: StokesWorkspace | None = None) -> ConservationReport:
    """Rigid-momentum and barycenter series with their identity residuals.

    Linear trajectories use the fixed-domain momenta (eta u, p_alpha); a
    Lagrangian trajectory evaluates the pulled-back momenta
    int eta u . p_alpha(X(xi,t)) dxi and the barycenter int eta X dxi.
    The series the solver stored with the same workspace (``momenta`` or
    ``lagrangian_momenta``, and the eta-weighted ``flux``) are reused, so a
    linear trajectory's budgets need none of its states.
    """
    mesh = traj.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    eta_c = ws.eta_cells
    dt = traj.dt
    n = len(traj.times)
    vol_flux = traj.series("flux", ws, ws.flux)

    if traj.lagrangian_maps is None:
        momenta = traj.series("momenta", ws, ws.momentum)
        bary = np.cumsum(np.concatenate([
            fem.weighted_integral(mesh, eta_c, Field.from_nodal(mesh, mesh.nodes).values)[None],
            0.5 * dt * (vol_flux[:-1] + vol_flux[1:])]), axis=0)
    else:
        X = Field.from_nodal(mesh, traj.lagrangian_maps)
        basis = ws.rigid_basis()
        momenta = traj.series("lagrangian_momenta", ws, lambda vecs: fem.blockwise(
            lambda steps: _lagrangian_momenta(fem.uvec_to_field(mesh, vecs[steps]), X[steps],
                                              basis, eta_c), n))
        bary = fem.weighted_integral(mesh, eta_c, X.values)

    mom_res = momenta - momenta[0]
    bary_res = np.zeros(n)
    bary_res[1:] = np.linalg.norm(np.diff(bary, axis=0) / dt - vol_flux[1:], axis=1)
    return ConservationReport(times=traj.times, momenta=momenta, barycenter=bary,
                              residuals={"momentum": np.abs(mom_res).max(axis=1),
                                         "barycenter": bary_res})


def _lagrangian_momenta(u: Field, X: Field, basis, eta_c: np.ndarray) -> np.ndarray:
    """int eta u . p_alpha(X) per step of a stack, one column per motion."""
    return np.column_stack([fem.field_inner(u, Field(u.mesh, 2, X.values @ A.T + b), eta_c)
                            for A, b in basis.coeffs])


def decay_fit(series: np.ndarray, dt: float) -> tuple[float, float]:
    """Least-squares exponential rate of a positive series sampled every
    ``dt``: fits log y = c - rate * t after dropping the leading transient
    fraction ``_DROP_FRACTION``.

    Returns (rate, confidence half-width); rate > 0 means decay.
    """
    series = np.asarray(series, dtype=float)
    if len(series) < 8:
        raise ParameterError(f"need at least 8 samples, got {len(series)}")
    if np.any(series <= 0) or not np.all(np.isfinite(series)):
        raise DomainError("decay fit requires strictly positive finite samples")
    t = np.arange(len(series)) * dt
    skip = int(np.floor(_DROP_FRACTION * len(series)))
    t, y = t[skip:], np.log(series[skip:])
    a = np.column_stack([np.ones_like(t), t])
    coef, res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    rate = -coef[1]
    dof = len(t) - 2
    if dof > 0 and len(res):
        sigma2 = res[0] / dof
        tvar = np.sum((t - t.mean()) ** 2)
        half = 1.96 * np.sqrt(sigma2 / tvar) if tvar > 0 else np.inf
    else:
        half = 0.0
    return float(rate), float(half)


def discrete_spectrum(mesh, params: MaterialParams, count: int,
                      workspace: StokesWorkspace | None = None,
                      sigma: float = -0.1, seed: int = 0) -> SpectrumReport:
    """Smallest eigenpairs of the two-phase Stokes operator on the
    discretely divergence-free manifold, eigenvalues ascending.

    The kernel consists of the rigid motions; every other eigenvalue of the
    symmetric pencil is positive.  The shift ``sigma`` must be negative, so
    that the shifted velocity block is definite; like the step factor, the
    shifted factor raises ``SolverError`` where its elimination is unstable.
    """
    ws = workspace or StokesWorkspace(mesh, params)
    basis = ws.rigid_basis()
    if count < len(basis) + 3:
        raise ParameterError(f"count must be at least {len(basis) + 3}")
    if not sigma < 0:
        raise ParameterError(f"sigma must be negative, got {sigma}")
    nu, np_ = ws.nu, ws.np_
    K = sp.bmat([[ws.stiffness, -ws.div.T], [-ws.div, None]], format="csc")
    M = sp.bmat([[ws.mass, None],
                 [None, sp.csr_matrix((np_, np_))]], format="csc")
    flip = np.concatenate([np.ones(nu), -np.ones(np_)])
    v0 = np.random.default_rng(seed).standard_normal(nu + np_)
    shifted = fem.CondensedSaddle(ws.saddle(-sigma), 2 * mesh.n_nodes, nu)
    op_inv = spla.LinearOperator(K.shape, matvec=lambda r: shifted.solve(flip * r))
    try:
        vals, vecs = spla.eigsh(K, k=count, M=M, sigma=sigma, which="LM", v0=v0,
                                OPinv=op_inv)
    except Exception as exc:
        raise NumericError(f"spectrum eigen-solver failed: {exc}") from exc

    scale = max(np.abs(vals).max(), 1.0)
    kernel_mask = np.abs(vals) <= _KERNEL_TOL * scale
    kernel_dim = int(kernel_mask.sum())
    gap = float(vals[~kernel_mask].min()) if kernel_dim < len(vals) else np.inf
    kvecs = vecs[:nu, kernel_mask]
    angles = _principal_angles(ws, basis, kvecs) if kernel_dim else np.array([])
    return SpectrumReport(eigenvalues=vals, kernel_dim=kernel_dim, gap=gap,
                          kernel_vectors=kvecs, principal_angles=angles)


def _principal_angles(ws: StokesWorkspace, basis, kvecs: np.ndarray) -> np.ndarray:
    """Principal angles, ascending, between the kernel eigenvectors and the
    rigid-motion span, measured in the eta-weighted inner product.

    Small angles come from their sines, the M-norms of the kernel basis
    after its rigid-span component is removed; the arccos of cosines near
    1 cannot resolve angles below about 1e-8 (Knyazev & Argentati, SIAM J.
    Sci. Comput. 23(6), 2002).  Large angles keep the cosine formula."""
    if kvecs.shape[1] == 0:
        return np.array([])
    p_mat = np.column_stack([fem.field_to_uvec(p) for p in basis.fields])
    # eta-orthonormalize both bases, then SVD of the cross-Gram
    def orthonormalize(cols):
        g = cols.T @ (ws.mass @ cols)
        lam, q = np.linalg.eigh(g)
        if np.any(lam <= 0):
            raise NumericError("degenerate subspace in principal-angle computation")
        return cols @ (q / np.sqrt(lam)) @ q.T

    pb = orthonormalize(p_mat)
    kb = orthonormalize(kvecs)
    cross = pb.T @ (ws.mass @ kb)
    cosines = np.linalg.svd(cross, compute_uv=False)              # descending
    # residual of the lower-dimensional basis against the other span
    resid = kb - pb @ cross if kb.shape[1] <= pb.shape[1] else pb - kb @ cross.T
    gram = resid.T @ (ws.mass @ resid)
    sines = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))[:len(cosines)]   # ascending
    return np.where(cosines ** 2 >= 0.5, np.arcsin(np.minimum(sines, 1.0)),
                    np.arccos(np.clip(cosines, -1.0, 1.0)))


# -- bootstrap lemma -----------------------------------------------------------

class BootstrapRoot(NamedTuple):
    r_b: float
    fprime: float     # 3 b r_b^2 + 2 b r_b - 1, zero by construction


def bootstrap_rb(b: float) -> BootstrapRoot:
    """Critical radius r_b = (-1 + sqrt(1 + 3/b)) / 3 of the cubic
    bootstrap map, with the stationarity residual for verification."""
    if not b > 0:
        raise DomainError(f"b must be positive, got {b}")
    r = (-1.0 + np.sqrt(1.0 + 3.0 / b)) / 3.0
    fprime = 3.0 * b * r * r + 2.0 * b * r - 1.0
    return BootstrapRoot(float(r), float(fprime))


@dataclass
class BootstrapVerdict:
    hypothesis_ok: bool
    recursion_ok: bool
    conclusion_ok: bool
    first_violation: int | None
    r_b: float
    bound: float              # 2a
    max_x: float
    max_step: float

    @property
    def holds(self) -> bool:
        return self.hypothesis_ok and self.recursion_ok and self.conclusion_ok


def bootstrap_check(a: float, b: float, X: np.ndarray) -> BootstrapVerdict:
    """Verify the cubic bootstrap lemma on sampled data: under the smallness
    hypothesis a < r_b (2 - b r_b)/3 with X(0) <= r_b, a trajectory obeying
    X <= a + b X^2 + b X^3 stays below 2a."""
    if not (a > 0 and b > 0):
        raise DomainError("a and b must be positive")
    X = np.asarray(X, dtype=float)
    r_b = bootstrap_rb(b).r_b
    steps = np.abs(np.diff(X)) if len(X) > 1 else np.array([0.0])
    max_step = float(steps.max()) if len(steps) else 0.0
    hypothesis_ok = (a < r_b * (2.0 - b * r_b) / 3.0) and (len(X) > 0 and X[0] <= r_b)
    recursion = X <= a + b * X ** 2 + b * X ** 3 + _BOOTSTRAP_SLACK
    first = None
    if not np.all(recursion):
        first = int(np.argmin(recursion))
    conclusion = X <= 2.0 * a + _BOOTSTRAP_SLACK
    if first is None and not np.all(conclusion):
        first = int(np.argmin(conclusion))
    return BootstrapVerdict(
        hypothesis_ok=bool(hypothesis_ok),
        recursion_ok=bool(np.all(recursion)),
        conclusion_ok=bool(np.all(conclusion)),
        first_violation=first,
        r_b=r_b,
        bound=2.0 * a,
        max_x=float(X.max()) if len(X) else 0.0,
        max_step=max_step,
    )
