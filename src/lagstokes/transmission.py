"""Weak elliptic transmission solves, pressure reconstruction, the weighted
Helmholtz projection and the rigid-motion basis.

The transmission potential lives in continuous P1 with zero trace on the
outer boundary; prescribed interface jumps are imposed strongly through a
plus-side nodal lift, so the doubled representation of the solution
reproduces the jump datum exactly.  The Helmholtz projection is realized
as the eta-weighted L2 projection of nodal fields onto the discretely
weighted-divergence-free subspace.  Its potential solves the Schur
complement of the mixed system by preconditioned conjugate gradients, and
the gradient part is recovered by a direct solve with the mass; that
algebraic form is what makes the projection idempotent and orthogonal to
rigid motions at roundoff.

Each transmission solve factors its operator for that call.  The
projection solver, with its factors of the mass and of the
preconditioner, is owned by a :class:`lagstokes.stepper.StokesWorkspace`
when the caller passes one, and is built for the call otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from . import fem, kernel
from .errors import GeometryError, NumericError, ParameterError, ShapeError, SolverError
from .fem import Factorized
from .mesh import Field, RefMesh

if TYPE_CHECKING:
    from .stepper import StokesWorkspace


@dataclass(frozen=True)
class MaterialParams:
    """Piecewise-constant densities and viscosities of the two phases."""

    eta_plus: float
    eta_minus: float
    mu_plus: float
    mu_minus: float

    def __post_init__(self):
        for name in ("eta_plus", "eta_minus", "mu_plus", "mu_minus"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")

    def eta_cells(self, mesh: RefMesh) -> np.ndarray:
        return np.where(mesh.phase > 0, self.eta_plus, self.eta_minus)

    def mu_cells(self, mesh: RefMesh) -> np.ndarray:
        return np.where(mesh.phase > 0, self.mu_plus, self.mu_minus)

    def eta_sdofs(self, mesh: RefMesh) -> np.ndarray:
        return np.where(mesh.sdof_phase > 0, self.eta_plus, self.eta_minus)

    def mu_sdofs(self, mesh: RefMesh) -> np.ndarray:
        return np.where(mesh.sdof_phase > 0, self.mu_plus, self.mu_minus)


@dataclass
class TransmissionSolution:
    """Discrete transmission potential with its solve diagnostics.

    ``theta`` is a doubled scalar field (the continuous part plus the
    interface-jump lift); ``residual`` is the relative algebraic residual
    of the reduced system and ``stability_ratio`` is the measured
    ||grad theta|| / ||data|| quotient.
    """

    theta: Field
    residual: float
    stability_ratio: float

    def grad_norm(self) -> float:
        return fem.field_h1_semi(self.theta)


class _TransmissionWorkspace:
    """Factorized continuous-P1 transmission operator for one (mesh, eta)."""

    def __init__(self, mesh: RefMesh, params: MaterialParams):
        self.mesh = mesh
        self.params = params
        inv_eta = 1.0 / params.eta_cells(mesh)
        self.stiffness = fem.scalar_stiffness(mesh, mesh.cells, mesh.n_nodes, inv_eta)
        self.free = mesh.free_potential_nodes
        self.lu = Factorized(self.stiffness[np.ix_(self.free, self.free)])

    def solve(self, rhs: np.ndarray, dirichlet: np.ndarray | None = None):
        """Solve for the continuous part with optional Gamma_plus trace."""
        mesh = self.mesh
        theta = np.zeros(mesh.n_nodes)
        if dirichlet is not None:
            theta[mesh.gamma_plus_nodes] = dirichlet
            rhs = rhs - self.stiffness @ theta
        red = rhs[self.free]
        sol = self.lu.solve(red)
        residual = self.lu.residual(sol, red)
        theta[self.free] = sol
        return theta, residual


def _jump_lift(mesh: RefMesh, beta: np.ndarray) -> Field:
    """Doubled field whose plus trace equals beta on Gamma and vanishes
    elsewhere; realizes [[theta]] = beta strongly."""
    lift = Field.zeros(mesh, 1)
    lift.values[mesh.trace_sdofs[:len(mesh.gamma_nodes)], 0] = beta
    return lift


def _compose(mesh: RefMesh, theta_cont: np.ndarray, lift: Field | None) -> Field:
    out = Field.from_nodal(mesh, theta_cont)
    if lift is not None:
        out.values += lift.values
    return out


def solve_weak_transmission(f: Field, params: MaterialParams) -> TransmissionSolution:
    """Weak problem (eta^-1 grad theta, grad phi) = (f, grad phi) with
    theta = 0 on Gamma_plus; theta is continuous across Gamma."""
    mesh = f.mesh
    if f.ncomp != 2:
        raise ShapeError("transmission data must be a vector field")
    if not np.all(np.isfinite(f.values)):
        raise ParameterError("transmission data contain non-finite values")
    ws = _TransmissionWorkspace(mesh, params)
    theta, residual = ws.solve(fem.gradient_load(mesh, fem.cell_values(f)))
    sol = _compose(mesh, theta, None)
    fnorm = fem.field_l2(f)
    ratio = fem.field_h1_semi(sol) / fnorm if fnorm > 0 else 0.0
    return TransmissionSolution(sol, residual, ratio)


def solve_transmission_with_jumps(alpha: Field, beta: np.ndarray, gamma: np.ndarray,
                                  params: MaterialParams) -> TransmissionSolution:
    """Transmission solve with prescribed interface jump ``beta`` (one value
    per Gamma node) and outer trace ``gamma`` (one value per Gamma_plus
    node); the jump is imposed strongly."""
    mesh = alpha.mesh
    beta = np.asarray(beta, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    if beta.shape != mesh.gamma_nodes.shape:
        raise ShapeError("beta must give one value per Gamma node")
    if gamma.shape != mesh.gamma_plus_nodes.shape:
        raise ShapeError("gamma must give one value per Gamma_plus node")
    rhs = fem.gradient_load(mesh, fem.cell_values(alpha))
    return _solve_with_jumps(_TransmissionWorkspace(mesh, params), rhs, beta, gamma,
                             data_norm=fem.field_l2(alpha))


def _solve_with_jumps(ws: _TransmissionWorkspace, rhs: np.ndarray,
                      beta: np.ndarray, gamma: np.ndarray,
                      data_norm: float) -> TransmissionSolution:
    mesh = ws.mesh
    lift = _jump_lift(mesh, beta)
    inv_eta = 1.0 / ws.params.eta_cells(mesh)
    grad_lift = fem.cell_gradients(lift)[:, 0, :]          # (nc, 2)
    rhs = rhs - fem.gradient_load(mesh, inv_eta[:, None] * grad_lift)
    theta, residual = ws.solve(rhs, dirichlet=gamma)
    sol = _compose(mesh, theta, lift)
    bnorm = fem.boundary_l2(mesh, beta[:, None], True)
    gnorm = fem.boundary_l2(mesh, gamma[:, None], False)
    denom = data_norm + bnorm + gnorm
    ratio = fem.field_h1_semi(sol) / denom if denom > 0 else 0.0
    return TransmissionSolution(sol, residual, ratio)


def pressure_reconstruct_K(u: Field, params: MaterialParams,
                           grad_u: np.ndarray | None = None) -> TransmissionSolution:
    """Pressure K(u) from the transmission data of the Stokes operator:

        alpha_u = eta^-1 Div(mu D(u)) - grad div u     (weak, via the
                  recovered stress; u is differentiated only once),
        beta_u  = [[mu D(u) n . n]] - [[div u]]        on Gamma,
        gamma_u = (mu D(u) n . n) - div u              on Gamma_plus.

    Rigid fields carry D(u) = 0 and div u = 0 exactly at the nodal level,
    so their reconstructed pressure vanishes.
    """
    mesh = u.mesh
    G = fem.recover_gradient(u) if grad_u is None else np.asarray(grad_u, dtype=float)
    D = G + np.swapaxes(G, 1, 2)                          # (nsdof, 2, 2)
    mu_s = params.mu_sdofs(mesh)
    S = mu_s[:, None, None] * D
    d = G[:, 0, 0] + G[:, 1, 1]                           # div u, nodal

    # alpha_u paired weakly: cellwise divergence of the recovered stress
    s_field = Field(mesh, 4, S.reshape(mesh.nsdof, 4))
    dS = fem.cell_gradients(s_field).reshape(mesh.n_cells, 2, 2, 2)
    div_s = dS[:, :, 0, 0] + dS[:, :, 1, 1]               # sum_k d_k S_{jk}
    grad_d = fem.cell_gradients(Field(mesh, 1, d[:, None]))[:, 0, :]
    inv_eta = 1.0 / params.eta_cells(mesh)
    w_cells = inv_eta[:, None] * div_s - grad_d

    rhs = fem.gradient_load(mesh, w_cells)

    # (mu D(u) n . n) - div u at the traces: both sides of Gamma, then Gamma_plus
    ng = len(mesh.gamma_nodes)
    sdofs = mesh.trace_sdofs
    trace = kernel.normal_part(kernel.to_planes(S[sdofs]),
                               kernel.vector_planes(mesh.trace_node_normals)) - d[sdofs]
    beta = trace[:ng] - trace[ng:2 * ng]
    gamma = trace[2 * ng:]

    alpha_norm = float(np.sqrt(np.dot(mesh.areas, np.einsum("ck,ck->c", w_cells, w_cells))))
    return _solve_with_jumps(_TransmissionWorkspace(mesh, params), rhs, beta, gamma,
                             data_norm=alpha_norm)


# -- weighted Helmholtz projection ------------------------------------------

# The projection's conjugate-gradient solve stops once its estimated error
# in w is below _PROJECTION_TOL relative, both in the eta-weighted L2 norm,
# and raises after _PROJECTION_MAX_ITER iterations.
_PROJECTION_TOL = 1e-15
_PROJECTION_MAX_ITER = 100


class _ProjectionWorkspace:
    """Schur-complement solver of the nodal eta-weighted projection, built
    from the eta-weighted MINI velocity mass, whose nodal block it uses.

    The projection w of a nodal vector f solves the mixed system
    [[M, G], [G^T, 0]] [w, phi] = [M f, 0], with M the nodal mass and G the
    pairing of nodal velocities with the gradients of the free potentials.
    Eliminating w leaves the Schur complement G^T M^-1 G phi = G^T f, solved
    by conjugate gradients preconditioned with a factor of G^T M_L^-1 G,
    M_L the lumped mass, which is spectrally equivalent (Benzi, Golub &
    Liesen, Acta Numer. 14, 2005); then w = f - M^-1 G phi.  In the
    interleaved layout 2*i + comp the nodal mass is M_s (x) I_2, so only the
    scalar mass M_s is factored, as a positive definite matrix without
    pivoting, and applied to both components at once.

    Qf = f - w = M^-1 G phi comes from the direct M solve, so
    (eta Qf, p) = p^T G phi vanishes at roundoff for every rigid p whatever
    the iteration's accuracy.  The iteration stops on the preconditioned
    residual r^T P^-1 r, which estimates the squared eta-weighted L2 error
    of w, measured against f^T M f: that scale does not vanish when f is
    already projected, so such a call stops at once.
    """

    def __init__(self, mesh: RefMesh, velocity_mass: sp.spmatrix):
        n_nodal = 2 * mesh.n_nodes
        self.mass = velocity_mass[:n_nodal:2, :n_nodal:2].tocsr()      # M_s
        g = fem.grad_coupling(mesh, mesh.cells, mesh.n_nodes)[:n_nodal, mesh.free_potential_nodes]
        self.g, self.gt = g.tocsr(), g.T.tocsr()
        lumped = np.repeat(np.asarray(self.mass.sum(axis=1)).ravel(), 2)
        self._mass_lu = Factorized(self.mass, quasi_definite=True)
        self._precond_lu = Factorized(self.gt @ sp.diags(1.0 / lumped) @ self.g,
                                      quasi_definite=True)
        self.iterations = 0          # of the last projection

    def project(self, fvec: np.ndarray) -> np.ndarray:
        """Projected nodal velocity vector w of fvec."""
        # bare SuperLU solves in the loop; w is checked for finiteness once
        mass_solve, precond_solve = self._mass_lu._lu.solve, self._precond_lu._lu.solve
        g, gt = self.g, self.gt
        n_nodes = self.mass.shape[0]

        def schur_term(phi):                  # M^-1 G phi, as a nodal vector
            return mass_solve((g @ phi).reshape(n_nodes, 2)).ravel()

        bound = _PROJECTION_TOL ** 2 * float(fvec @ (self.mass @ fvec.reshape(n_nodes, 2)).ravel())
        r = gt @ fvec
        phi = np.zeros_like(r)
        z = precond_solve(r)
        rz = float(r @ z)
        p = z
        n_iter = 0
        while rz > bound:
            if n_iter == _PROJECTION_MAX_ITER:
                raise NumericError(
                    f"projection CG did not converge in {n_iter} iterations "
                    f"(preconditioned residual {np.sqrt(rz / bound):.1e} x tolerance)")
            n_iter += 1
            sp_ = gt @ schur_term(p)
            alpha = rz / float(p @ sp_)
            phi += alpha * p
            r -= alpha * sp_
            z = precond_solve(r)
            rz, rz_old = float(r @ z), rz
            p = z + (rz / rz_old) * p
        w = fvec - schur_term(phi)
        self.iterations = n_iter
        if not np.all(np.isfinite(w)):
            raise SolverError("projection produced non-finite values")
        return w


def helmholtz_project(f: Field, params: MaterialParams,
                      workspace: StokesWorkspace | None = None) -> tuple[Field, Field]:
    """Split f = Pf + Qf with Pf in the discrete weighted-divergence-free
    space {v : (v, grad phi) = 0 for all potentials phi vanishing on
    Gamma_plus} and Qf the eta-weighted gradient complement.

    The split is the algebraic eta-orthogonal projection on nodal fields:
    applying it twice reproduces Pf, the decomposition is exact by
    construction, and (eta Qf, p) = 0 to roundoff for every rigid p.

    ``workspace``, a StokesWorkspace on f's mesh and params, supplies its
    cached projection solver; without one the solver is built for this
    call only.
    """
    mesh = f.mesh
    if f.ncomp != 2:
        raise ShapeError("can only project vector fields")
    if workspace is None:
        proj = _ProjectionWorkspace(mesh, fem.velocity_mass(mesh, params.eta_cells(mesh)))
    elif workspace.mesh is not mesh:
        raise ShapeError("the workspace belongs to another mesh")
    elif workspace.params != params:
        raise ParameterError("the workspace was built with other material parameters")
    else:
        proj = workspace.projection
    wvec = proj.project(f.plus().ravel())
    pf = Field.from_nodal(mesh, wvec.reshape(mesh.n_nodes, 2))
    return pf, f - pf


# -- rigid motions -----------------------------------------------------------

@dataclass
class RigidBasis:
    """Orthonormal basis of the rigid motions a + c(-y, x) in the
    eta-weighted inner product; affine coefficients kept alongside the
    nodal fields so the zero-deformation identities are exact."""

    fields: list
    coeffs: list          # (antisymmetric 2x2, offset 2-vector) per member
    gram: np.ndarray

    def __len__(self) -> int:
        return len(self.fields)


def build_rigid_basis(mesh: RefMesh, params: MaterialParams) -> RigidBasis:
    """Gram-Schmidt orthonormalization of {e1, e2, (-y, x)} in (eta ., .)."""
    if mesh.total_area() <= 0:
        raise GeometryError("mesh has zero measure")
    eta_c = params.eta_cells(mesh)
    raw = [
        (np.zeros((2, 2)), np.array([1.0, 0.0])),
        (np.zeros((2, 2)), np.array([0.0, 1.0])),
        (np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.0, 0.0])),
    ]
    fields, coeffs = [], []
    for A, b in raw:
        vals = mesh.nodes @ A.T + b
        fld = Field.from_nodal(mesh, vals)
        # two modified Gram-Schmidt sweeps for a Gram matrix at roundoff
        for _ in range(2):
            for prev_f, (pA, pb) in zip(fields, coeffs):
                c = fem.field_inner(fld, prev_f, eta_c)
                fld = fld - c * prev_f
                A = A - c * pA
                b = b - c * pb
        nrm = np.sqrt(fem.field_inner(fld, fld, eta_c))
        if nrm <= 0:
            raise GeometryError("degenerate rigid-motion Gram matrix")
        fields.append(fld * (1.0 / nrm))
        coeffs.append((A / nrm, b / nrm))
    # one stacked inner product over the pairs i <= j; the Gram matrix is
    # exactly symmetric
    vals = np.stack([fld.values for fld in fields])
    iu, ju = np.triu_indices(len(fields))
    gram = np.empty((len(fields), len(fields)))
    gram[iu, ju] = gram[ju, iu] = fem.field_inner(Field(mesh, 2, vals[iu]),
                                                  Field(mesh, 2, vals[ju]), eta_c)
    return RigidBasis(fields, coeffs, gram)


def project_out_rigid(u: Field, basis: RigidBasis, params: MaterialParams) -> Field:
    """Remove the eta-weighted rigid components: u - sum (eta u, p) p."""
    eta_c = params.eta_cells(u.mesh)
    out = u.copy()
    for p in basis.fields:
        out = out - fem.field_inner(out, p, eta_c) * p
    return out


def rigid_momenta(u: Field, basis: RigidBasis, params: MaterialParams) -> np.ndarray:
    eta_c = params.eta_cells(u.mesh)
    return np.array([fem.field_inner(u, p, eta_c) for p in basis.fields])
