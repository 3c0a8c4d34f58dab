"""Implicit time integration of the linear two-phase Stokes system with
interface transmission and free-boundary traction conditions.

One backward-Euler step solves the saddle-point system

    (eta (u' - u)/dt, v) + 1/2 (mu D(u'), D(v)) - (q', div v)
        = (eta f, v) + (h, v)_Gamma + (k, v)_Gamma+ + stress terms,
    (div u', phi) = (g, phi),

with MINI velocities and doubled P1 pressure.  Traction data enter as
natural boundary terms of the integration-by-parts identity, so rigid
motions (zero deformation, zero divergence) are exact discrete equilibria
and the rigid momenta are conserved to solver roundoff.

The step system is solved with the cell bubbles condensed out
(:class:`lagstokes.fem.CondensedSaddle`): for dt > 0 the velocity block
M/dt + A is symmetric positive definite, so the condensed system on the
nodal velocities and pressures is symmetric quasi-definite and is factored
without pivoting, and one step of iterative refinement against the full
saddle keeps each solve backward stable.  Every backward-Euler recurrence
(``step_linear``, ``run_linear`` and the Picard corrections) runs through
one routine, :meth:`StokesWorkspace.march`, which pipelines that
refinement: the refinement solve of one step and the first solve of the
next share one two-column triangular solve.  The stationary resolvent
solves keep a pivoted LU of the full saddle, since their velocity block
lam*M + A is not definite for lam <= 0.  The workspace also owns the
solver of the eta-weighted Helmholtz projection, built on first use.  The
Korn constant is a shift-invert Lanczos iteration on the rigid-constrained
pencil.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import (DataError, NumericError, ParameterError, ResolventError,
                     ShapeError)
from .fem import Factorized
from .mesh import Field, RefMesh
from .transmission import MaterialParams, RigidBasis, _ProjectionWorkspace, build_rigid_basis

_DATA_CONSISTENCY_TOL = 1e-8
_KORN_SHIFT = -0.1


@dataclass
class StokesState:
    """Velocity-pressure pair at one time level.

    ``u`` is the nodal velocity field (the bubble enrichment vanishes at
    nodes; its coefficients are kept in ``bubble`` so that restarts and
    conserved quantities see the full discrete vector).
    """

    u: Field
    q: Field
    t: float
    bubble: np.ndarray | None = None

    def uvec(self) -> np.ndarray:
        vec = fem.field_to_uvec(self.u)
        if self.bubble is not None:
            vec[2 * self.u.mesh.n_nodes:] = self.bubble
        return vec

    @classmethod
    def from_uvec(cls, mesh: RefMesh, vec: np.ndarray, q: Field, t: float) -> "StokesState":
        return cls(fem.uvec_to_field(mesh, vec), q, t,
                   bubble=vec[2 * mesh.n_nodes:].copy())


@dataclass
class StokesData:
    """Right-hand-side data of one linear step.

    ``h`` is the prescribed traction jump on Gamma (per Gamma node) and
    ``k`` the traction on Gamma_plus (per outer node).  ``stress_ibp`` is
    an optional cellwise matrix S entering the momentum equation weakly as
    (S, grad v) - ([[S n]], v)_Gamma - (S n+, v)_Gamma+, the form in which
    the Lagrangian stress-difference source is assembled.  When ``g`` is
    nonzero a flux potential ``R`` with div R = g must accompany it.
    """

    f: Field | None = None
    g: Field | None = None
    R: Field | None = None
    h: np.ndarray | None = None
    k: np.ndarray | None = None
    stress_ibp: np.ndarray | None = None

    @classmethod
    def zero(cls) -> "StokesData":
        return cls()


class StokesWorkspace:
    """Assembled two-phase Stokes operators for one (mesh, params), with a
    factorization cache keyed by time step.

    ``mu_cells`` overrides the piecewise-constant viscosity with cellwise
    values (used by the local path for smooth mu(rho0))."""

    def __init__(self, mesh: RefMesh, params: MaterialParams,
                 mu_cells: np.ndarray | None = None):
        self.mesh = mesh
        self.params = params
        eta_c = params.eta_cells(mesh)
        mu_c = params.mu_cells(mesh) if mu_cells is None \
            else np.asarray(mu_cells, dtype=float)
        if np.any(mu_c <= 0):
            raise ParameterError("viscosity must be strictly positive")
        self.mass = fem.velocity_mass(mesh, eta_c)
        basis_grads = fem._basis_grads(mesh)          # shared by both assemblies
        self.stiffness = fem.deformation_stiffness(mesh, mu_c, basis_grads)
        self.div = fem.div_coupling(mesh, mesh.cell_sdofs, mesh.nsdof, basis_grads)
        self.pressure_mass = mesh.mass_operator
        self.nu = fem.n_udofs(mesh)
        self.np_ = mesh.nsdof
        self._step_lu: dict[float, Factorized] = {}
        self._basis: RigidBasis | None = None

    # -- operators ---------------------------------------------------------

    def saddle(self, coef: float) -> sp.csr_matrix:
        """[[coef*M + A, -B^T], [B, 0]], stacked from CSR blocks."""
        top = (coef * self.mass + self.stiffness).tocsr()
        return sp.vstack([sp.hstack([top, -self.div.T.tocsr()], format="csr"),
                          sp.hstack([self.div, sp.csr_matrix((self.np_, self.np_))],
                                    format="csr")], format="csr")

    def step_factorization(self, dt: float) -> fem.CondensedSaddle:
        """Solver for saddle(1/dt), the backward-Euler step system, with the
        bubbles condensed out of its factor; cached per time step."""
        lu = self._step_lu.get(dt)
        if lu is None:
            lu = fem.CondensedSaddle(self.saddle(1.0 / dt), 2 * self.mesh.n_nodes, self.nu)
            self._step_lu[dt] = lu
        return lu

    def march(self, dt: float, x0: np.ndarray, n_steps: int, load=None) -> np.ndarray:
        """Backward-Euler solution stack, (n_steps + 1, nu + np): row 0 is
        x0 and row m solves saddle(1/dt) x_m = [M u_{m-1} / dt, 0] + load(m - 1),
        where u_{m-1} is the velocity part of row m - 1.  ``load`` is None
        (zero data) or a function of the step index returning a full-length
        load vector; ``n_steps`` must not be negative.

        Every step is refined once against the full saddle S, as
        ``CondensedSaddle.solve`` does, but the refinement is pipelined.
        With S~^-1 the unrefined condensed solve, step m+1's first solve
        x~_{m+1} = S~^-1 b~_{m+1} takes its right-hand side from the
        unrefined x~_m, so it can share one two-column triangular solve with
        step m's refinement solve of r_m = b_m - S x~_m, where b_m is built
        from the refined x_{m-1}.  The delivered x_m = x~_m + S~^-1 r_m is
        once refined against its true right-hand side, as accurate as the
        per-step refined solve: only its starting guess x~_m differs, by
        refinement size, and the residual absorbs that.  With n_steps = 1
        this is exactly ``CondensedSaddle.solve``.  Apart from the
        triangular solve's result, the step loop allocates nothing: its
        right-hand sides and products write into buffers made once per
        march.
        """
        if dt <= 0:
            raise ParameterError(f"dt must be positive, got {dt}")
        if n_steps < 0:
            raise ParameterError(f"n_steps must be non-negative, got {n_steps}")
        lu = self.step_factorization(dt)
        nu, mass, matrix = self.nu, self.mass, lu.matrix
        xs = np.empty((n_steps + 1, nu + self.np_))
        xs[0] = x0
        if n_steps == 0:
            return xs

        # every step reuses these buffers; b holds b_m, then the residual r_m
        b, bt, sx, corr, xt_next = np.empty((5, xs.shape[1]))
        mx = np.empty(nu)
        solve_pair = lu.pair_solver()

        def rhs(x, ld, out):
            """out = [M x_u / dt, 0] + ld."""
            if ld is None:
                out.fill(0.0)
            else:
                out[:] = ld
            out[:nu] += np.divide(fem.csr_matvec(mass, x[:nu], mx), dt, out=mx)
            return out

        ld = None if load is None else load(0)
        rhs(xs[0], ld, b)                          # b_1, from the exact x_0
        xt = lu.solve_unrefined(b)                 # x~_1
        for m in range(1, n_steps):
            ld = None if load is None else load(m)
            np.subtract(b, fem.csr_matvec(matrix, xt, sx), out=b)     # r_m
            solve_pair(b, rhs(xt, ld, bt), corr, xt_next)
            np.add(xt, corr, out=xs[m])            # refined x_m
            rhs(xs[m], ld, b)                      # b_{m+1}
            xt, xt_next = xt_next, xt              # x~_{m+1}
        xs[n_steps] = xt + lu.solve_unrefined(b - matrix @ xt)
        return xs

    @cached_property
    def projection(self) -> _ProjectionWorkspace:
        """Solver of the eta-weighted Helmholtz projection on the nodal block
        of the velocity mass; see :func:`lagstokes.helmholtz_project`."""
        return _ProjectionWorkspace(self.mesh, self.mass)

    def rigid_basis(self) -> RigidBasis:
        if self._basis is None:
            self._basis = build_rigid_basis(self.mesh, self.params)
        return self._basis

    # -- scalar diagnostics on full dof vectors or (n_states, nu) stacks ------

    def kinetic_energy(self, uvec: np.ndarray):
        return 0.5 * fem.quadratic_form(self.mass, uvec)

    def dissipation(self, uvec: np.ndarray):
        """1/2 (mu D(u), D(u)); the stiffness quadratic form."""
        return fem.quadratic_form(self.stiffness, uvec)

    def momentum(self, uvec: np.ndarray, basis: RigidBasis | None = None) -> np.ndarray:
        """(eta u, p_alpha) per rigid motion, with a leading axis for a stack."""
        basis = basis or self.rigid_basis()
        p_mat = np.column_stack([fem.field_to_uvec(p) for p in basis.fields])
        return uvec @ (self.mass @ p_mat)

    # -- loads --------------------------------------------------------------

    def step_load(self, data: StokesData) -> np.ndarray:
        """Full-length (momentum, divergence) load of one step's data."""
        return np.concatenate([self.momentum_load(data), self.divergence_load(data)])

    def momentum_load(self, data: StokesData) -> np.ndarray:
        mesh = self.mesh
        load = np.zeros(self.nu)
        if data.f is not None:
            load += self.mass @ fem.field_to_uvec(data.f)
        if data.h is not None:
            h = np.asarray(data.h, dtype=float)
            if h.shape != (len(mesh.gamma_nodes), 2):
                raise ShapeError("h must be (n_gamma_nodes, 2)")
            nodal = np.zeros((mesh.n_nodes, 2))
            nodal[mesh.gamma_nodes] = h
            load += self._edge_mass_operators[True] @ nodal.ravel()
        if data.k is not None:
            k = np.asarray(data.k, dtype=float)
            if k.shape != (len(mesh.gamma_plus_nodes), 2):
                raise ShapeError("k must be (n_outer_nodes, 2)")
            nodal = np.zeros((mesh.n_nodes, 2))
            nodal[mesh.gamma_plus_nodes] = k
            load += self._edge_mass_operators[False] @ nodal.ravel()
        if data.stress_ibp is not None:
            load += self.stress_ibp_load(data.stress_ibp)
        return load

    @cached_property
    def _stress_volume_operator(self) -> sp.csr_matrix:
        """(nu, 4 n_cells): flattened cellwise S[c, j, k] -> (S, grad v)."""
        mesh = self.mesh
        nc = mesh.n_cells
        # entry (2 * cells[c, a] + j, 4 c + 2 j + k) = area_c * grad_a[c, k]
        vals = np.broadcast_to((mesh.areas[:, None, None] * mesh.grads)[:, :, None, :],
                               (nc, 3, 2, 2))
        rows = np.broadcast_to((2 * mesh.cells[:, :, None] + np.arange(2))[:, :, :, None],
                               (nc, 3, 2, 2))
        cols = np.broadcast_to((4 * np.arange(nc)[:, None, None]
                                + 2 * np.arange(2)[None, :, None]
                                + np.arange(2)[None, None, :])[:, None, :, :],
                               (nc, 3, 2, 2))
        return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(self.nu, 4 * nc))

    @cached_property
    def _edge_mass_operators(self) -> dict:
        """interface flag -> (nu, 2 n_nodes) surface load of P1 nodal vectors
        on Gamma (True) or Gamma_plus (False)."""
        mesh = self.mesh
        ni = mesh.n_interface_facets
        return {True: fem.edge_mass_operator(mesh, mesh.interface_facets[:, :2],
                                             mesh.facet_lengths[:ni]),
                False: fem.edge_mass_operator(mesh, mesh.outer_facets[:, :2],
                                              mesh.facet_lengths[ni:])}

    @cached_property
    def _facet_value_operators(self) -> dict:
        """interface flag -> (nu, 2 n_facets) operator taking per-facet
        constant vectors on Gamma (True) or Gamma_plus (False) to the
        surface load."""
        mesh = self.mesh
        ni = mesh.n_interface_facets
        ops = {}
        for interface, pairs, lengths in (
                (True, mesh.interface_facets[:, :2], mesh.facet_lengths[:ni]),
                (False, mesh.outer_facets[:, :2], mesh.facet_lengths[ni:])):
            nf = len(pairs)
            # entry (2 * node + comp, 2 f + comp) = length_f / 2 for both nodes
            rows = 2 * pairs[:, :, None] + np.arange(2)                  # (nf, 2, 2)
            cols = np.broadcast_to((2 * np.arange(nf)[:, None] + np.arange(2))[:, None, :],
                                   (nf, 2, 2))
            vals = np.broadcast_to(0.5 * lengths[:, None, None], (nf, 2, 2))
            ops[interface] = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                                           shape=(self.nu, 2 * nf))
        return ops

    def stress_volume_load(self, s_cells: np.ndarray) -> np.ndarray:
        """(S, grad v) for a cellwise-constant stress (n_cells, 2, 2), or one
        load per step of a stack; bubble rows vanish because the cell
        integral of the bubble gradient is zero."""
        s_cells = np.asarray(s_cells, dtype=float)
        if s_cells.ndim > 4 or s_cells.shape[-3:] != (self.mesh.n_cells, 2, 2):
            raise ShapeError("stress field must be ([n_steps,] n_cells, 2, 2)")
        flat = s_cells.reshape(s_cells.shape[:-3] + (-1,))
        return fem.apply_sparse(self._stress_volume_operator, flat, -1)

    def facet_value_load(self, values: np.ndarray, interface: bool) -> np.ndarray:
        """Surface load for per-facet constant vector values (n_facets, 2),
        or one load per step of a stack."""
        values = np.asarray(values, dtype=float)
        flat = values.reshape(values.shape[:-2] + (-1,))
        return fem.apply_sparse(self._facet_value_operators[interface], flat, -1)

    def stress_ibp_load(self, s_cells: np.ndarray) -> np.ndarray:
        """Weak divergence of a cellwise stress: (S, grad v) minus its
        interface and outer boundary traces."""
        mesh = self.mesh
        s_cells = np.asarray(s_cells, dtype=float)
        load = self.stress_volume_load(s_cells)
        ni = mesh.n_interface_facets
        jumps = np.einsum("fjk,fk->fj",
                          s_cells[mesh.interface_facets[:, 2]]
                          - s_cells[mesh.interface_facets[:, 3]],
                          mesh.facet_normals[:ni])
        load -= self.facet_value_load(jumps, interface=True)
        traces = np.einsum("fjk,fk->fj", s_cells[mesh.outer_facets[:, 2]],
                           mesh.facet_normals[ni:])
        load -= self.facet_value_load(traces, interface=False)
        return load

    def divergence_load(self, data: StokesData) -> np.ndarray:
        if data.g is None:
            return np.zeros(self.np_)
        if data.g.ncomp != 1:
            raise ShapeError("divergence datum must be scalar")
        self._check_g_consistency(data)
        return self.pressure_mass @ data.g.values[:, 0]

    def _check_g_consistency(self, data: StokesData):
        mesh = self.mesh
        gnorm = fem.field_l2(data.g)
        if gnorm == 0.0:
            return
        if data.R is None:
            raise DataError("nonzero divergence datum g requires a flux potential R")
        # (g, phi) = -(R, grad phi) for continuous phi vanishing on Gamma_plus
        gl = np.zeros(mesh.n_nodes)
        gcells = fem.cell_values(data.g)[:, 0]
        contrib = (mesh.areas * gcells)[:, None] / 3.0 * np.ones(3)
        np.add.at(gl, mesh.cells.ravel(), contrib.ravel())
        rl = fem.gradient_load(mesh, fem.cell_values(data.R))
        free = mesh.free_potential_nodes
        mismatch = np.linalg.norm(gl[free] + rl[free])
        scale = max(gnorm, fem.field_l2(data.R), 1e-300)
        if mismatch > _DATA_CONSISTENCY_TOL * scale * np.sqrt(len(free)):
            raise DataError(
                f"divergence datum inconsistent with flux potential: residual {mismatch:.3e}")


def step_linear(state: StokesState, data: StokesData, dt: float,
                params: MaterialParams,
                workspace: StokesWorkspace | None = None) -> StokesState:
    """One backward-Euler step of the linear two-phase Stokes system."""
    mesh = state.u.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    x0 = np.concatenate([state.uvec(), np.zeros(ws.np_)])
    load = ws.step_load(data)
    sol = ws.march(dt, x0, 1, lambda m: load)[1]
    qnew = Field(mesh, 1, sol[ws.nu:][:, None])
    return StokesState.from_uvec(mesh, sol[:ws.nu], qnew, state.t + dt)


@dataclass
class Trajectory:
    """Uniform-dt sequence of states, held as time stacks, with scalar
    diagnostics and the Lagrangian companions filled by the nonlinear path.

    ``uvecs`` is the (n_states, nu) velocity dof stack and ``q`` the
    pressure field stack; ``cofactors`` (n_states, nsdof, 2, 2) holds the
    nodal cofactor A and ``lagrangian_maps`` (n_states, n_nodes, 2) the
    nodal positions X(xi, t) of each state, or None on the linear path.
    ``workspace`` is the one whose operators computed ``diagnostics``; the
    budgets in :mod:`lagstokes.diagnostics` reuse its series when they are
    given the same workspace.  ``u`` builds the velocity field stack on
    each access, and ``states`` builds a :class:`StokesState` only for the
    index or slice asked for.
    """

    times: np.ndarray
    uvecs: np.ndarray
    q: Field
    diagnostics: dict = dc_field(default_factory=dict)
    cofactors: np.ndarray | None = None
    lagrangian_maps: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)
    workspace: StokesWorkspace | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def mesh(self) -> RefMesh:
        return self.q.mesh

    @property
    def u(self) -> Field:
        """Velocity field stack, built from ``uvecs``."""
        return fem.uvec_to_field(self.mesh, self.uvecs)

    @property
    def states(self) -> "_StateView":
        return _StateView(self)

    def series(self, name: str, workspace: StokesWorkspace, compute) -> np.ndarray:
        """The stored diagnostic series ``name`` if it was computed with the
        operators of ``workspace``, else compute(velocity dof stack)."""
        if workspace is self.workspace and name in self.diagnostics:
            return self.diagnostics[name]
        return compute(self.uvecs)


class _StateView(Sequence):
    """Read-only sequence of a trajectory's states; indexing builds the
    states asked for from the stacks, and ``len`` builds none."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.times)

    def __getitem__(self, m):
        if isinstance(m, slice):
            return [self[i] for i in range(*m.indices(len(self)))]
        traj = self._traj
        m = range(len(self))[m]                # a negative index counts from the end
        return StokesState.from_uvec(traj.mesh, traj.uvecs[m], traj.q[m], float(traj.times[m]))


def run_linear(u0: Field, n_steps: int, dt: float, params: MaterialParams,
               data=None, workspace: StokesWorkspace | None = None,
               bubble0: np.ndarray | None = None) -> Trajectory:
    """Integrate the zero- or given-data linear system from u0.

    ``data`` may be None, a single StokesData reused each step, or a
    callable step_index -> StokesData.  ``bubble0`` carries the initial
    bubble coefficients when restarting from a previous discrete state.
    The trajectory's velocity dof and pressure stacks view the solution
    stack of the march; state 0 holds u0's dof vector and zero pressure.
    """
    mesh = u0.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    nu = ws.nu
    if data is None:
        load = None
    elif callable(data):
        load = lambda m: ws.step_load(data(m))     # noqa: E731
    else:
        fixed = ws.step_load(data)
        load = lambda m: fixed                     # noqa: E731
    x0 = np.concatenate([StokesState(u0, Field.zeros(mesh, 1), 0.0, bubble=bubble0).uvec(),
                         np.zeros(ws.np_)])
    xs = ws.march(dt, x0, n_steps, load)
    vecs = xs[:, :nu]
    return Trajectory(dt * np.arange(n_steps + 1), vecs, Field(mesh, 1, xs[:, nu:, None]),
                      diagnostics={"energy": ws.kinetic_energy(vecs),
                                   "dissipation": ws.dissipation(vecs),
                                   "momenta": ws.momentum(vecs)},
                      workspace=ws)


def solve_resolvent(lam: complex, f: Field, params: MaterialParams,
                    workspace: StokesWorkspace | None = None,
                    singular_threshold: float = 1e12) -> tuple[StokesState, StokesState]:
    """Stationary resolvent solve lam*u - eta^-1 Div T(u, q) = f with the
    transmission and traction conditions of the droplet.

    Returns (real part, imaginary part) as two states; the imaginary part
    is zero for real lam.  At lam = 0 the operator is restricted to the
    rigid-orthogonal complement via a bordered system (0 belongs to the
    resolvent set of the restricted operator only).
    """
    mesh = f.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    lam = complex(lam)
    fvec = ws.mass @ fem.field_to_uvec(f)
    nu, np_ = ws.nu, ws.np_

    if lam == 0:
        basis = ws.rigid_basis()
        cols = np.column_stack([ws.mass @ fem.field_to_uvec(p) for p in basis.fields])
        system = sp.bmat([
            [ws.stiffness, -ws.div.T, sp.csr_matrix(cols)],
            [ws.div, None, None],
            [sp.csr_matrix(cols.T), None, None],
        ], format="csc")
        rhs = np.concatenate([fvec, np.zeros(np_ + len(basis))])
        sol = Factorized(system).solve(rhs)
        ur, qr = sol[:nu], sol[nu:nu + np_]
        real = StokesState.from_uvec(mesh, ur, Field(mesh, 1, qr[:, None]), 0.0)
        imag = StokesState.from_uvec(mesh, np.zeros(nu), Field.zeros(mesh, 1), 0.0)
        return real, imag

    if lam.imag == 0:
        system = ws.saddle(lam.real)
        rhs = np.concatenate([fvec, np.zeros(np_)])
        sol = Factorized(system).solve(rhs)
        ur, qr = sol[:nu], sol[nu:]
        ui = np.zeros(nu)
        qi = np.zeros(np_)
    else:
        top = (lam.real * ws.mass + ws.stiffness).tocsr()
        lm = (lam.imag * ws.mass).tocsr()
        system = sp.bmat([
            [top, -lm, -ws.div.T, None],
            [lm, top, None, -ws.div.T],
            [ws.div, None, None, None],
            [None, ws.div, None, None],
        ], format="csc")
        rhs = np.concatenate([fvec, np.zeros(nu + 2 * np_)])
        sol = Factorized(system).solve(rhs)
        ur, ui = sol[:nu], sol[nu:2 * nu]
        qr, qi = sol[2 * nu:2 * nu + np_], sol[2 * nu + np_:]

    unorm = np.sqrt(ur @ (ws.mass @ ur) + ui @ (ws.mass @ ui))
    fnorm = np.sqrt(max(fem.field_to_uvec(f) @ fvec, 0.0))
    if fnorm > 0 and unorm / fnorm > singular_threshold:
        raise ResolventError(
            "resolvent solve is near-singular; lambda is close to the spectrum",
            distance_estimate=fnorm / unorm)
    real = StokesState.from_uvec(mesh, ur, Field(mesh, 1, qr[:, None]), 0.0)
    imag = StokesState.from_uvec(mesh, ui, Field(mesh, 1, qi[:, None]), 0.0)
    return real, imag


def korn_constant(mesh: RefMesh, params: MaterialParams, seed: int = 0) -> float:
    """Discrete second-Korn constant: the smallest Rayleigh quotient
    ||D(w)||^2 / ||w||_H1^2 over nodal P1 fields orthogonal (in the
    eta-weighted mass) to the rigid motions."""
    nn = mesh.n_nodes
    # P1-only blocks: assemble scalar mass/stiffness and expand per component
    ms = fem.scalar_mass(mesh, mesh.cells, nn)
    ks = fem.scalar_stiffness(mesh, mesh.cells, nn)
    eye2 = sp.identity(2, format="csr")
    b_h1 = sp.kron(ms + ks, eye2, format="csr")
    m_eta = sp.kron(fem.scalar_mass(mesh, mesh.cells, nn, params.eta_cells(mesh)),
                    eye2, format="csr")

    # deformation form on P1 only (drop bubble rows/cols of the MINI matrix)
    a_full = fem.deformation_stiffness(mesh, np.full(mesh.n_cells, 2.0))
    nodal = np.arange(2 * nn)
    a_p1 = a_full[np.ix_(nodal, nodal)].tocsr()

    basis = build_rigid_basis(mesh, params)
    constraints = np.column_stack(
        [m_eta @ p.plus().ravel() for p in basis.fields])

    # shift-invert Lanczos on the pencil restricted to C^T w = 0 (C the
    # constraint columns): K = A - shift B is positive definite for shift < 0,
    # and the constrained solve of K x = r is K^-1 r corrected within the
    # span of K^-1 C.  Its image lies in the constraint space and it is
    # B-self-adjoint, so its largest eigenvalue is 1 / (Korn constant - shift).
    import scipy.sparse.linalg as spla
    k_lu = Factorized((a_p1 - _KORN_SHIFT * b_h1).tocsc(), quasi_definite=True)
    k_c = k_lu.solve(constraints)
    gram = constraints.T @ k_c

    def constrained_solve(r):
        z = k_lu.solve(r)
        return z - k_c @ np.linalg.solve(gram, constraints.T @ z)

    v0 = np.random.default_rng(seed).standard_normal(2 * nn)
    try:
        vals = spla.eigsh(a_p1, k=1, M=b_h1, sigma=_KORN_SHIFT, which="LM", v0=v0,
                          OPinv=spla.LinearOperator(a_p1.shape, matvec=constrained_solve,
                                                    dtype=float),
                          return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise NumericError(f"Korn eigen-solver failed: {exc}") from exc
    if not np.all(np.isfinite(vals)) or np.min(vals) <= 0:
        raise NumericError("Korn eigen-solver returned an invalid spectrum")
    return float(np.min(vals))
