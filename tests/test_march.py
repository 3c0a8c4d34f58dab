"""The backward-Euler march with pipelined refinement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagstokes import fem
from lagstokes.fixedpoint import NonlinearRHS, _momentum_rhs, _solve_correction
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import StokesData, StokesState, StokesWorkspace, run_linear, step_linear
from lagstokes.transmission import MaterialParams

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)
N_STEPS = 12
DTS = (1e-3, 0.05, 1.0)


@pytest.fixture(scope="module", params=[(3, 12), (6, 24), (12, 48)],
                ids=["3x12", "6x24", "12x48"])
def ws(request):
    return StokesWorkspace(build_two_phase_disk(*request.param, 0.5, 1.0), PARAMS)


def step_rhs(ws, dt, x, load):
    """The right-hand side of one step from the state x, built the way the
    march builds it."""
    b = load.copy()
    b[:ws.nu] += ws.mass @ x[:ws.nu] / dt
    return b


def random_problem(ws, seed):
    # every row loaded: nodal and bubble momentum rows and the divergence rows
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((N_STEPS, ws.nu + ws.np_))
    return x0, loads


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("dt", DTS)
def test_march_matches_refined_step_loop(ws, dt):
    x0, loads = random_problem(ws, 5)
    xs = ws.march(dt, x0, N_STEPS, lambda m: loads[m])
    lu = ws.step_factorization(dt)
    assert xs.shape == (N_STEPS + 1, ws.nu + ws.np_)
    assert np.array_equal(xs[0], x0)
    x = x0
    for m in range(1, N_STEPS + 1):
        x = lu.solve(step_rhs(ws, dt, x, loads[m - 1]))
        assert rel_err(xs[m], x) <= 1e-13


@pytest.mark.parametrize("dt", DTS)
def test_every_delivered_step_is_refined(ws, dt):
    # each step against the right-hand side built from the delivered previous
    # step: the componentwise backward error of a refined solve is a few units
    # of roundoff, which neither an unrefined step nor a refinement against the
    # unrefined previous state reaches on every mesh and dt
    x0, loads = random_problem(ws, 6)
    xs = ws.march(dt, x0, N_STEPS, lambda m: loads[m])
    lu = ws.step_factorization(dt)
    for m in range(1, N_STEPS + 1):
        b = step_rhs(ws, dt, xs[m - 1], loads[m - 1])
        assert lu.residual(xs[m], b) <= 1e-13
        omega = np.abs(lu.matrix @ xs[m] - b) / (abs(lu.matrix) @ np.abs(xs[m]) + np.abs(b))
        assert omega.max() <= 1e-15


def test_one_step_is_the_refined_solve(ws):
    x0, loads = random_problem(ws, 7)
    xs = ws.march(0.05, x0, 1, lambda m: loads[m])
    ref = ws.step_factorization(0.05).solve(step_rhs(ws, 0.05, x0, loads[0]))
    assert np.array_equal(xs[1], ref)


def test_zero_steps_returns_the_start(ws):
    x0, _ = random_problem(ws, 8)
    xs = ws.march(0.05, x0, 0)
    assert xs.shape == (1, ws.nu + ws.np_) and np.array_equal(xs[0], x0)


@pytest.mark.parametrize("dt", DTS)
def test_rigid_motion_stays_rigid(ws, dt):
    for p in ws.rigid_basis().fields:
        pvec = fem.field_to_uvec(p)
        xs = ws.march(dt, np.concatenate([pvec, np.zeros(ws.np_)]), N_STEPS)
        drift = np.linalg.norm(xs[:, :ws.nu] - pvec, axis=1).max()
        assert drift <= 1e-13 * np.linalg.norm(pvec)
        assert np.abs(xs[:, ws.nu:]).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n_radial=st.integers(3, 5), n_angular=st.integers(8, 20),
       params=st.tuples(*[st.floats(0.05, 20.0)] * 4), dt=st.floats(1e-3, 1.0))
def test_rigid_equilibria_property(n_radial, n_angular, params, dt):
    mesh = build_two_phase_disk(n_radial, n_angular, 0.5, 1.0)
    ws = StokesWorkspace(mesh, MaterialParams(*params))
    # Rigid motions solve every step exactly, so the computed ones drift only
    # by roundoff, amplified in the rigid directions by the ratio of the
    # stiffness (mu / h^2) to the step's mass term (eta / dt).  A dense
    # solve of the same saddle drifts as much.
    amplification = 1.0 + dt * max(params[2:]) / (min(params[:2]) * mesh.areas.min())
    n_steps = 5
    for p in ws.rigid_basis().fields:
        pvec = fem.field_to_uvec(p)
        xs = ws.march(dt, np.concatenate([pvec, np.zeros(ws.np_)]), n_steps)
        drift = np.linalg.norm(xs[:, :ws.nu] - pvec, axis=1).max()
        assert drift <= 1e-14 * n_steps * amplification * np.linalg.norm(pvec)


def test_correction_matches_per_step_loop(ws):
    mesh = ws.mesh
    rng = np.random.default_rng(9)
    n, dt = N_STEPS, 0.05
    ni = mesh.n_interface_facets
    rhs = NonlinearRHS(
        t=dt * np.arange(1, n + 1),
        stress=rng.standard_normal((n, mesh.n_cells, 2, 2)),
        g=Field(mesh, 1, rng.standard_normal((n, mesh.nsdof, 1))),
        R=Field(mesh, 2, np.zeros((n, mesh.nsdof, 2))),
        h_jump=np.zeros((n, len(mesh.gamma_nodes), 2)),
        k=np.zeros((n, len(mesh.gamma_plus_nodes), 2)),
        j_gamma=rng.standard_normal((n, ni, 2)),
        j_outer=rng.standard_normal((n, len(mesh.outer_facets), 2)),
        f_ext=Field.from_nodal(mesh, rng.standard_normal((n, mesh.n_nodes, 2))))
    vecs, u, q = _solve_correction(ws, dt, rhs)

    # the per-step loop: one refined solve per step from the previous state
    loads = _momentum_rhs(ws, rhs)
    div = fem.apply_sparse(ws.pressure_mass, rhs.g.values[..., 0], -1)
    lu = ws.step_factorization(dt)
    ref_u = np.zeros((n + 1, ws.nu))
    ref_q = np.zeros((n + 1, ws.np_))
    for m in range(n):
        sol = lu.solve(np.concatenate([ws.mass @ ref_u[m] / dt + loads[m], div[m]]))
        ref_u[m + 1], ref_q[m + 1] = sol[:ws.nu], sol[ws.nu:]
    assert rel_err(vecs, ref_u) <= 1e-13
    assert rel_err(q.values[..., 0], ref_q) <= 1e-13
    assert np.array_equal(u.values, fem.uvec_to_field(mesh, vecs).values)


@pytest.mark.parametrize("kind", ["constant", "per_step"])
def test_run_linear_with_data_matches_step_chain(ws, kind):
    mesh = ws.mesh
    rng = np.random.default_rng(10)
    f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    h = rng.standard_normal((len(mesh.gamma_nodes), 2))
    k = rng.standard_normal((len(mesh.gamma_plus_nodes), 2))
    if kind == "constant":
        data = StokesData(f=f, h=h, k=k)
        step_data = lambda m: data                              # noqa: E731
    else:
        data = step_data = lambda m: StokesData(f=f, h=(m + 1) * h, k=k)   # noqa: E731
    u0 = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    bubble0 = rng.standard_normal(ws.nu - 2 * mesh.n_nodes)
    traj = run_linear(u0, N_STEPS, 0.05, PARAMS, data=data, workspace=ws, bubble0=bubble0)

    state = StokesState(u0, Field.zeros(mesh, 1), 0.0, bubble=bubble0)
    for m in range(N_STEPS):
        state = step_linear(state, step_data(m), 0.05, PARAMS, ws)
        assert rel_err(traj.states[m + 1].uvec(), state.uvec()) <= 1e-13
        assert rel_err(traj.states[m + 1].q.values, state.q.values) <= 1e-13
    # the trajectory's velocity stack is its states' and its diagnostics are
    # those of the stack
    vecs = np.stack([s.uvec() for s in traj.states])
    assert np.array_equal(traj.uvecs, vecs)
    assert np.array_equal(traj.diagnostics["energy"], ws.kinetic_energy(vecs))
    assert np.array_equal(traj.diagnostics["momenta"], ws.momentum(vecs))
