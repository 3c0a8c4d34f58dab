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
nodal velocities and pressures is symmetric quasi-definite.  A small one
is solved by its pivoted dense inverse and a large one is factored without
pivoting, and one step of iterative refinement against the full saddle
keeps each solve backward stable.  Every backward-Euler recurrence
(``step_linear``, ``run_linear`` and the Picard corrections) runs through
one step loop, :meth:`StokesWorkspace.march_blocks`, which pipelines that
refinement into two chains: the unrefined solves, each from the previous
unrefined state, and the refinements, each of an unrefined state against
the right-hand side of the previous refined state.  On one thread the
refinement solve of one step and the unrefined solve of the next share one
two-column triangular solve; with a large step factor and two usable CPUs
(:func:`step_loop`) a worker thread runs the unrefined chain ahead while
the calling thread refines, until the process is seen to get less than
the CPU time that needs and the march falls back to the pair solve.  Both
loops give the same bits.  The march hands
the states over in blocks, so ``run_linear`` reduces them to its series as
they come and keeps copies of only the states it is asked for.  The
stationary resolvent solves keep a pivoted LU of the full saddle, since
their velocity block lam*M + A is not definite for lam <= 0.  The
workspace also owns the solver of the eta-weighted Helmholtz projection,
built on first use.  The Korn constant is a shift-invert Lanczos iteration
on the rigid-constrained pencil.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import (DataError, NumericError, ParameterError, ResolventError,
                     ShapeError, StateLookupError)
from .fem import Factorized
from .mesh import Field, RefMesh
from .transmission import MaterialParams, RigidBasis, _ProjectionWorkspace, build_rigid_basis

_DATA_CONSISTENCY_TOL = 1e-8
_KORN_SHIFT = -0.1

# A step factor with at least this many stored entries (Factorized.fill)
# runs the march's two chains on two threads, when two CPUs are usable.
# Threaded over one-thread time of a 200-step march, one BLAS thread on two
# vCPUs, medians of 6 and of 10 alternating pairs: 6x24 (fill 0.077M)
# 1.21-1.33, 12x48 (0.43M) 0.97-0.98, 14x56 (0.64M) 0.79-0.85, 16x64 (0.89M)
# 0.79-0.86.  14x56 stays on the pair loop: on other days its ratio read up
# to 0.92, a thin margin on a loaded host.
TWO_THREAD_MIN_FILL = 750_000
# Hand-overs the worker of the two-thread step loop may run ahead by.
_HANDOFF_DEPTH = 4
# A march on two threads checks, after every _CHECK_EVERY steps, that the
# process ran on at least _MIN_PARALLELISM CPUs on average (its CPU time over
# the wall time), and runs the rest of its steps on the pair loop if not.
# At 24x96 the two-thread loop spends about 1.5 times the pair loop's CPU
# time, so with less parallelism than that it is the slower loop: with a
# competing busy process, one BLAS thread on two vCPUs, it ran at 1.2 CPUs
# and took 1.1 times the pair loop's time, against 1.9 CPUs and 0.8 times
# with the second core free.
_CHECK_EVERY = 20
_MIN_PARALLELISM = 1.5


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def step_loop(lu: fem.CondensedSaddle) -> str:
    """The step loop a march with the step factor ``lu`` starts on:
    "two-thread" for a large factor when two CPUs are usable, else "pair"
    (see :meth:`StokesWorkspace.march_blocks`)."""
    if lu.fill >= TWO_THREAD_MIN_FILL and usable_cpus() >= 2:
        return "two-thread"
    return "pair"


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
    ``k`` the traction on Gamma_plus (per outer node).  When ``g`` is
    nonzero a flux potential ``R`` with div R = g must accompany it.
    """

    f: Field | None = None
    g: Field | None = None
    R: Field | None = None
    h: np.ndarray | None = None
    k: np.ndarray | None = None

    @classmethod
    def zero(cls) -> "StokesData":
        return cls()


class StokesWorkspace:
    """Assembled two-phase Stokes operators for one (mesh, params), with a
    factorization cache keyed by time step.

    ``mu_cells`` overrides the piecewise-constant viscosity with cellwise
    values (used by the local path for smooth mu(rho0)); the cellwise
    density and viscosity the operators were built with are kept as
    ``eta_cells`` and ``mu_cells``."""

    def __init__(self, mesh: RefMesh, params: MaterialParams,
                 mu_cells: np.ndarray | None = None):
        self.mesh = mesh
        self.params = params
        self.eta_cells = eta_c = params.eta_cells(mesh)
        self.mu_cells = mu_c = params.mu_cells(mesh) if mu_cells is None \
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

    def march_blocks(self, dt: float, x0: np.ndarray, n_steps: int, load=None):
        """The backward-Euler states as a stream of blocks: an iterator of
        (start, rows), where rows[i] is state start + i.  Row 0 of the
        first block is x0 and state m solves
        saddle(1/dt) x_m = [M u_{m-1} / dt, 0] + load(m - 1), where u_{m-1}
        is the velocity part of state m - 1.  ``load`` is None (zero data)
        or a function of the step index returning a full-length load
        vector; ``n_steps`` must not be negative.  The arguments are
        checked, and the step factor built, when this is called; the steps
        run as the blocks are taken.

        The blocks are those of :func:`lagstokes.fem.stream_blocks`: they
        break at the boundaries of :func:`lagstokes.fem.blockwise`, and
        only a march of zero steps yields a one-row block.  ``rows`` views
        one buffer of at most ``fem.STACK_BLOCK + 1`` rows that the next
        block overwrites: a consumer copies what it keeps.

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

        The pipeline is two chains.  The unrefined chain
        x~_{m+1} = S~^-1 ([M x~_m,u / dt, 0] + load(m)) reads only x~_m; the
        refinement chain needs x~_m and the refined x_{m-1}.  :func:`step_loop`
        picks how they run.  For a step factor of fewer than
        ``TWO_THREAD_MIN_FILL`` stored entries, or with one usable CPU, one
        thread runs both and pairs their solves in one two-column solve,
        which on a small factor costs less than two one-column solves and
        needs no hand-over between threads.  Otherwise a worker thread runs
        the unrefined chain up to ``_HANDOFF_DEPTH`` steps ahead, into a
        fixed ring of state buffers, calls ``load`` once per step and hands
        its result over with x~_{m+1}; the calling thread refines and
        streams the blocks.  SuperLU's triangular solves and the sparse
        products release the GIL, so the two one-column solves of a step
        run at once.  Every ``_CHECK_EVERY`` steps the calling thread checks
        that the process had ``_MIN_PARALLELISM`` CPUs on average since the
        last check; if not (a second core busy elsewhere), the pair loop
        runs the rest of the march.  A one-column solve gives the same bits
        as its column of the two-column solve, so the loops deliver the
        same states wherever the march changes loop.  An exception on the
        worker (from ``load`` or a non-finite solve) is raised in the
        caller, and the worker is stopped and joined when the march ends,
        falls back, fails or its stream is closed.  ``load`` is then called
        on the worker, up to ``_HANDOFF_DEPTH`` + 1 steps ahead of the
        delivered state, possibly for steps that a stream closed early
        never delivers, and once more on this thread for the steps the
        worker ran ahead of a fall back.
        """
        if dt <= 0:
            raise ParameterError(f"dt must be positive, got {dt}")
        if n_steps < 0:
            raise ParameterError(f"n_steps must be non-negative, got {n_steps}")
        lu = self.step_factorization(dt)
        return self._blocks(lu, dt, x0, n_steps, load)

    def _blocks(self, lu: fem.CondensedSaddle, dt: float, x0: np.ndarray,
                n_steps: int, load):
        """The block stream of :meth:`march_blocks`, filled by the step loops
        that :func:`step_loop` allows for the factor."""
        rows = np.empty((min(n_steps + 1, fem.STACK_BLOCK + 1), self.nu + self.np_))
        rows[0] = x0
        if n_steps == 0:
            yield 0, rows
            return
        blocks = iter(fem.stream_blocks(n_steps + 1))
        start, end = next(blocks)
        # the loops write state m into rows[m - start] of the current block
        steps = self._steps(lu, dt, n_steps, load, lambda m: rows[m - start])
        try:
            for m in steps:
                if m + 1 == end:
                    yield start, rows[:end - start]
                    start, end = next(blocks, (None, None))
        finally:
            steps.close()

    def _steps(self, lu: fem.CondensedSaddle, dt: float, n_steps: int, load, row):
        """States 1..n_steps written into row(m), m yielded after each: the
        first and last steps here, the others through the two-thread loop
        when :func:`step_loop` allows it and while the process gets the CPU
        time it needs, and through the pair loop."""
        chains = _Chains(self, lu, dt, load, row)
        chains.first()
        m = 1
        if n_steps > 1 and step_loop(lu) == "two-thread":
            m = yield from chains.two_thread(1, n_steps)
        yield from chains.pair(m, n_steps)
        chains.last(n_steps)
        yield n_steps

    def _rhs(self, dt: float):
        """rhs(x, ld, out): out = [M x_u / dt, 0] + ld, with ld None for zero
        data; the product goes through a buffer of its own, so each thread
        of a march takes its own rhs."""
        nu, mass = self.nu, fem.csr_matvec_of(self.mass)
        mx = np.empty(nu)

        def rhs(x, ld, out):
            if ld is None:
                out.fill(0.0)
            else:
                out[:] = ld
            out[:nu] += np.divide(mass(x[:nu], mx), dt, out=mx)
            return out

        return rhs

    def state_vector(self, u: Field, bubble: np.ndarray | None = None) -> np.ndarray:
        """The full dof vector of velocity ``u`` (with bubble coefficients
        ``bubble``, else zero) and zero pressure, a march's start."""
        return np.concatenate([StokesState(u, Field.zeros(self.mesh, 1), 0.0,
                                           bubble=bubble).uvec(), np.zeros(self.np_)])

    def march(self, dt: float, x0: np.ndarray, n_steps: int, load=None) -> np.ndarray:
        """The whole backward-Euler solution stack of
        :meth:`march_blocks`, (n_steps + 1, nu + np): row m is state m."""
        blocks = self.march_blocks(dt, x0, n_steps, load)
        xs = np.empty((n_steps + 1, self.nu + self.np_))
        for start, rows in blocks:
            xs[start:start + len(rows)] = rows
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

    @cached_property
    def _momentum_columns(self) -> np.ndarray:
        """(nu, n_rigid): M p_alpha for each rigid motion p_alpha."""
        p_mat = np.column_stack([fem.field_to_uvec(p) for p in self.rigid_basis().fields])
        return self.mass @ p_mat

    def momentum(self, uvec: np.ndarray) -> np.ndarray:
        """(eta u, p_alpha) per rigid motion, with a leading axis for a
        stack.  A stack is taken in the blocks of
        :func:`lagstokes.fem.stream_blocks`, the blocks ``run_linear``
        reduces, so that both give the same bits."""
        cols = self._momentum_columns
        if uvec.ndim == 1:
            return uvec @ cols
        return np.concatenate([uvec[a:b] @ cols for a, b in fem.stream_blocks(len(uvec))])

    def flux(self, uvec: np.ndarray) -> np.ndarray:
        """int eta u of the nodal velocity, (2,) or one row per state of a
        stack; its time integral moves the barycenter."""
        return fem.weighted_integral(self.mesh, self.eta_cells,
                                     fem.uvec_to_field(self.mesh, uvec).values)

    # -- loads --------------------------------------------------------------

    def step_load(self, data: StokesData) -> np.ndarray:
        """Full-length (momentum, divergence) load of one step's data."""
        return np.concatenate([self.momentum_load(data), self.divergence_load(data)])

    def momentum_load(self, data: StokesData) -> np.ndarray:
        mesh = self.mesh
        load = np.zeros(self.nu)
        if data.f is not None:
            load += self.mass @ fem.field_to_uvec(data.f)
        for interface, name, values in ((True, "h", data.h), (False, "k", data.k)):
            if values is None:
                continue
            values = np.asarray(values, dtype=float)
            n_boundary = len(mesh.boundary(interface)[0])
            if values.shape != (n_boundary, 2):
                raise ShapeError(f"{name} must be ({n_boundary}, 2), got {values.shape}")
            nodal = mesh.boundary_nodal(values, interface)
            load += self._edge_mass_operators[interface] @ nodal.ravel()
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
        return {interface: fem.edge_mass_operator(mesh, *mesh.boundary(interface)[1:])
                for interface in (True, False)}

    @cached_property
    def _facet_value_operators(self) -> dict:
        """interface flag -> (nu, 2 n_facets) operator taking per-facet
        constant vectors on Gamma (True) or Gamma_plus (False) to the
        surface load."""
        ops = {}
        for interface in (True, False):
            _, pairs, lengths = self.mesh.boundary(interface)
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
        gl = fem.scalar_load(mesh, fem.cell_values(data.g)[:, 0])
        rl = fem.gradient_load(mesh, fem.cell_values(data.R))
        free = mesh.free_potential_nodes
        mismatch = np.linalg.norm(gl[free] + rl[free])
        scale = max(gnorm, fem.field_l2(data.R), 1e-300)
        if mismatch > _DATA_CONSISTENCY_TOL * scale * np.sqrt(len(free)):
            raise DataError(
                f"divergence datum inconsistent with flux potential: residual {mismatch:.3e}")


class _Chains:
    """The two chains of one march (:meth:`StokesWorkspace.march_blocks`).
    Before step m, ``b`` holds b_m and ``slot(m)`` holds x~_m.
    :meth:`pair` and :meth:`two_thread` each run steps m0..m1-1, write the
    refined x_m into row(m) and yield m after each, and leave the same bits
    in ``b`` and the slots, so a march may switch between them at any step.
    """

    def __init__(self, ws: StokesWorkspace, lu: fem.CondensedSaddle, dt: float, load, row):
        self.ws, self.lu, self.dt, self.load, self.row = ws, lu, dt, load, row
        width = ws.nu + ws.np_
        # slot m % len(slots) holds x~_m; the worker of the two-thread loop,
        # at most _HANDOFF_DEPTH hand-overs ahead, never writes a slot still read
        self.slots = list(np.empty((_HANDOFF_DEPTH + 2, width)))
        # every step reuses these buffers; b holds b_m, then the residual r_m
        self.b, self.bt, self.sx, self.corr = np.empty((4, width))
        self.rhs = ws._rhs(dt)

    def slot(self, m: int) -> np.ndarray:
        return self.slots[m % len(self.slots)]

    def load_of(self, m: int):
        """load(m), None for zero data."""
        return None if self.load is None else self.load(m)

    def first(self):
        """b_1 from the exact x_0, and x~_1."""
        self.rhs(self.row(0), self.load_of(0), self.b)
        self.slot(1)[:] = self.lu.solve_unrefined(self.b)

    def last(self, n: int):
        """The refinement of the last state, whose successor is not solved."""
        xt = self.slot(n)
        self.row(n)[:] = xt + self.lu.solve_unrefined(self.b - self.lu.matrix @ xt)

    def pair(self, m0: int, m1: int):
        """Both chains on this thread: the refinement solve of x_m and the
        unrefined solve of x~_{m+1} share one two-column triangular solve."""
        matrix, rhs = fem.csr_matvec_of(self.lu.matrix), self.rhs
        solve_pair = self.lu.pair_solver()
        b, bt, sx, corr = self.b, self.bt, self.sx, self.corr
        load, row, slots = self.load, self.row, self.slots
        for m in range(m0, m1):
            xt, xt_next = slots[m % len(slots)], slots[(m + 1) % len(slots)]
            ld = None if load is None else load(m)
            np.subtract(b, matrix(xt, sx), out=b)                     # r_m
            solve_pair(b, rhs(xt, ld, bt), corr, xt_next)            # x~_{m+1}
            x = row(m)
            np.add(xt, corr, out=x)                # refined x_m
            rhs(x, ld, b)                          # b_{m+1}
            yield m

    def two_thread(self, m0: int, m1: int):
        """The unrefined chain on a worker thread, which runs
        x~_{m+1} = S~^-1 (rhs(x~_m) + load(m)) ahead and hands load(m) over
        once x~_{m+1} is in its slot; this thread refines.  After every
        _CHECK_EVERY steps it stops if the process had fewer than
        _MIN_PARALLELISM CPUs on average, the caller's work between steps
        included, and returns the first step it did not run.  The worker
        stops, and is joined, when the loop ends, stops, fails or is closed,
        and its exceptions are raised here."""
        lu, slot, width = self.lu, self.slot, self.b.size
        handoff = queue.Queue(_HANDOFF_DEPTH)
        stop = threading.Event()

        def unrefined_chain():
            rhs, solve = self.ws._rhs(self.dt), lu.column_solver()
            bt = np.empty(width)
            try:
                for m in range(m0, m1):
                    if stop.is_set():
                        return
                    ld = self.load_of(m)
                    solve(rhs(slot(m), ld, bt), slot(m + 1))
                    handoff.put((ld, None))
            except BaseException as exc:       # raised again by take()
                handoff.put((None, exc))

        def take():
            """load(m), once x~_{m+1} is in its slot."""
            ld, exc = handoff.get()
            if exc is not None:
                raise exc
            return ld

        matrix, rhs = fem.csr_matvec_of(lu.matrix), self.rhs
        b, sx, corr = self.b, self.sx, self.corr
        solve = lu.column_solver()
        worker = threading.Thread(target=unrefined_chain, name="unrefined-chain", daemon=True)
        worker.start()
        try:
            wall, cpu = _clocks()
            for m in range(m0, m1):
                xt = slot(m)
                np.subtract(b, matrix(xt, sx), out=b)                     # r_m
                x = self.row(m)
                np.add(xt, solve(b, corr), out=x)  # refined x_m
                rhs(x, take(), b)                  # b_{m+1}
                yield m
                if (m + 1 - m0) % _CHECK_EVERY == 0:
                    now, cpu_now = _clocks()
                    if cpu_now - cpu < _MIN_PARALLELISM * (now - wall):
                        return m + 1
                    wall, cpu = now, cpu_now
            return m1
        finally:
            # a worker blocked on a full queue finds room, then sees the stop;
            # after this thread's step m it writes at most x~_{m+2+depth},
            # into x~_m's slot, so x~_{m+1} stays for the pair loop
            stop.set()
            while not handoff.empty():
                handoff.get_nowait()
            worker.join()


def _clocks() -> tuple[float, float]:
    """Wall time and this process's CPU time, in seconds."""
    return time.perf_counter(), time.process_time()


def step_linear(state: StokesState, data: StokesData, dt: float,
                params: MaterialParams,
                workspace: StokesWorkspace | None = None) -> StokesState:
    """One backward-Euler step of the linear two-phase Stokes system."""
    mesh = state.u.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    load = ws.step_load(data)
    sol = ws.march(dt, ws.state_vector(state.u, state.bubble), 1, lambda m: load)[1]
    qnew = Field(mesh, 1, sol[ws.nu:][:, None])
    return StokesState.from_uvec(mesh, sol[:ws.nu], qnew, state.t + dt)


@dataclass
class Trajectory:
    """Uniform-dt sequence of states, held as time stacks, with scalar
    diagnostics and the Lagrangian companions filled by the nonlinear path.

    ``times`` is the whole time grid.  ``steps`` holds the indices of the
    states whose rows the stacks hold, ascending, or None when every state
    is held; the diagnostic series cover every state either way.
    ``uvecs`` is the (n_held, nu) velocity dof stack and ``q`` the pressure
    field stack; ``cofactors`` (n_states, nsdof, 2, 2) holds the nodal
    cofactor A and ``lagrangian_maps`` (n_states, n_nodes, 2) the nodal
    positions X(xi, t) of each state, or None on the linear path.
    ``workspace`` is the one whose operators computed ``diagnostics``; the
    budgets in :mod:`lagstokes.diagnostics` reuse its series when they are
    given the same workspace.  ``u`` builds the velocity field stack of the
    held states on each access, and ``states`` builds a
    :class:`StokesState` only for the state index or slice asked for.
    """

    times: np.ndarray
    uvecs: np.ndarray
    q: Field
    diagnostics: dict = dc_field(default_factory=dict)
    cofactors: np.ndarray | None = None
    lagrangian_maps: np.ndarray | None = None
    workspace: StokesWorkspace | None = None
    steps: np.ndarray | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def mesh(self) -> RefMesh:
        return self.q.mesh

    @property
    def u(self) -> Field:
        """Velocity field stack of the held states, built from ``uvecs``."""
        return fem.uvec_to_field(self.mesh, self.uvecs)

    @property
    def states(self) -> "_StateView":
        return _StateView(self)

    def series(self, name: str, workspace: StokesWorkspace, compute) -> np.ndarray:
        """The stored diagnostic series ``name`` if it was computed with the
        operators of ``workspace``, else compute(velocity dof stack), which
        needs every state."""
        if workspace is self.workspace and name in self.diagnostics:
            return self.diagnostics[name]
        if self.steps is not None:
            raise StateLookupError(
                f"series {name!r} was not stored with this workspace and cannot be "
                f"recomputed: the trajectory holds {len(self.steps)} of its "
                f"{len(self.times)} states (run with keep_every=1 to hold them all)")
        return compute(self.uvecs)


class _StateView(Sequence):
    """Read-only sequence of a trajectory's states, indexed by state over
    the whole time grid; indexing builds the states asked for from the
    stacks and raises ``StateLookupError`` for a state that is not held,
    and ``len`` builds none."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.times)

    def __getitem__(self, m):
        if isinstance(m, slice):
            return [self[i] for i in range(*m.indices(len(self)))]
        traj = self._traj
        m = range(len(self))[m]                # a negative index counts from the end
        row = m
        if traj.steps is not None:
            row = int(np.searchsorted(traj.steps, m))
            if row == len(traj.steps) or traj.steps[row] != m:
                raise StateLookupError(f"state {m} is not held; the trajectory holds "
                                       f"states {traj.steps.tolist()}")
        return StokesState.from_uvec(traj.mesh, traj.uvecs[row], traj.q[row],
                                     float(traj.times[m]))


def run_linear(u0: Field, n_steps: int, dt: float, params: MaterialParams,
               data=None, workspace: StokesWorkspace | None = None,
               bubble0: np.ndarray | None = None,
               keep_every: int | None = None) -> Trajectory:
    """Integrate the zero- or given-data linear system from u0.

    ``data`` may be None, a single StokesData reused each step, or a
    callable step_index -> StokesData.  ``bubble0`` carries the initial
    bubble coefficients when restarting from a previous discrete state.
    State 0 holds u0's dof vector and zero pressure.

    The march's blocks are reduced as they come to the energy,
    dissipation, rigid momenta and eta-weighted flux of every state, stored
    in ``diagnostics``.  The trajectory holds copies of state 0, every
    ``keep_every``-th state and the last state; None holds only the first
    and the last, and 1 holds every state.  No stack of every state is made
    unless every state is held.

    A callable ``data`` is called in step order.  On a step factor that
    the march runs on two threads (:meth:`StokesWorkspace.march_blocks`) it
    may be called from the worker thread, a few steps ahead of the state
    being delivered, and a march that falls back to one thread calls it
    again for those steps, so it should depend on the step index alone.
    """
    mesh = u0.mesh
    ws = workspace or StokesWorkspace(mesh, params)
    nu = ws.nu
    if keep_every is not None and keep_every < 1:
        raise ParameterError(f"keep_every must be positive or None, got {keep_every}")
    if data is None:
        load = None
    elif callable(data):
        load = lambda m: ws.step_load(data(m))     # noqa: E731
    else:
        fixed = ws.step_load(data)
        load = lambda m: fixed                     # noqa: E731
    blocks = ws.march_blocks(dt, ws.state_vector(u0, bubble0), n_steps, load)
    n = n_steps + 1
    steps = np.union1d(np.arange(0, n, keep_every or n), [n - 1])
    held = np.empty((len(steps), nu + ws.np_))
    series = {"energy": np.empty(n), "dissipation": np.empty(n),
              "momenta": np.empty((n, len(ws.rigid_basis()))), "flux": np.empty((n, 2))}
    reductions = {"energy": ws.kinetic_energy, "dissipation": ws.dissipation,
                  "momenta": ws.momentum, "flux": ws.flux}
    for start, rows in blocks:
        stop = start + len(rows)
        for name, reduce in reductions.items():
            series[name][start:stop] = reduce(rows[:, :nu])
        lo, hi = np.searchsorted(steps, (start, stop))
        held[lo:hi] = rows[steps[lo:hi] - start]
    return Trajectory(dt * np.arange(n), held[:, :nu], Field(mesh, 1, held[:, nu:, None]),
                      diagnostics=series, workspace=ws,
                      steps=None if len(steps) == n else steps)


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
        cols = ws._momentum_columns
        system = sp.bmat([
            [ws.stiffness, -ws.div.T, sp.csr_matrix(cols)],
            [ws.div, None, None],
            [sp.csr_matrix(cols.T), None, None],
        ], format="csc")
        rhs = np.concatenate([fvec, np.zeros(np_ + cols.shape[1])])
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
