"""The backward-Euler step solver with the MINI bubbles condensed out."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lagstokes import fem
from lagstokes.errors import ShapeError, SolverError
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import StokesWorkspace, run_linear
from lagstokes.transmission import MaterialParams, project_out_rigid

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)
DTS = (1e-3, 0.05, 1.0)


@pytest.fixture(scope="module", params=[(3, 12), (6, 24), (12, 48)],
                ids=["3x12", "6x24", "12x48"])
def mesh(request):
    return build_two_phase_disk(*request.param, 0.5, 1.0)


@pytest.fixture(scope="module", params=["phase_mu", "cell_mu"])
def ws(request, mesh):
    if request.param == "phase_mu":
        return StokesWorkspace(mesh, PARAMS)
    # smooth cellwise viscosity, as the local path builds from mu(rho0)
    centroids = mesh.nodes[mesh.cells].mean(axis=1)
    return StokesWorkspace(mesh, PARAMS,
                           mu_cells=0.2 + 0.1 * np.hypot(*centroids.T))


@pytest.mark.parametrize("dt", DTS)
def test_condensed_solve_matches_full_saddle(ws, dt):
    lu = ws.step_factorization(dt)
    saddle = ws.saddle(1.0 / dt)
    rng = np.random.default_rng(7)
    # every row loaded: nodal and bubble momentum rows and the divergence rows
    rhs = rng.standard_normal(ws.nu + ws.np_)
    x = lu.solve(rhs)
    ref = spla.spsolve(saddle.tocsc(), rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert lu.residual(x, rhs) <= 1e-13
    assert abs(lu.matrix - saddle).max() == 0.0


@pytest.mark.parametrize("dt", DTS)
def test_refined_solve_is_componentwise_backward_stable(ws, dt):
    # one step of refinement against the full saddle brings the unpivoted
    # factor's componentwise backward error down to a few units of roundoff
    lu = ws.step_factorization(dt)
    rhs = np.random.default_rng(11).standard_normal(ws.nu + ws.np_)
    x = lu.solve(rhs)
    omega = np.abs(lu.matrix @ x - rhs) / (abs(lu.matrix) @ np.abs(x) + np.abs(rhs))
    assert omega.max() <= 1e-15


def test_pair_solver_is_bit_equal_to_the_two_column_solve(ws):
    # the march's pair solver condenses and expands one column at a time
    lu = ws.step_factorization(0.05)
    rhs = np.random.default_rng(13).standard_normal((ws.nu + ws.np_, 2))
    out = np.full((2, ws.nu + ws.np_), np.nan)
    lu.pair_solver()(rhs[:, 0].copy(), rhs[:, 1].copy(), out[0], out[1])
    assert np.array_equal(out.T, lu.solve_unrefined(rhs))


def test_column_solver_is_bit_equal_to_each_column_of_the_pair_solver(ws):
    # the two-thread march solves one column per thread
    lu = ws.step_factorization(0.05)
    rhs = np.random.default_rng(19).standard_normal((2, ws.nu + ws.np_))
    pair = np.full((2, ws.nu + ws.np_), np.nan)
    lu.pair_solver()(rhs[0], rhs[1], pair[0], pair[1])
    solve = lu.column_solver()
    for j in range(2):
        out = np.full(ws.nu + ws.np_, np.nan)
        assert solve(rhs[j], out) is out
        assert np.array_equal(out, pair[j])
        assert np.array_equal(out, lu.solve_unrefined(rhs[j]))


def test_csr_matvec_is_bit_equal_to_the_product(ws):
    lu = ws.step_factorization(0.05)
    x = np.random.default_rng(17).standard_normal(ws.nu + ws.np_)
    for op, vec in ((lu.matrix, x), (ws.mass, x[:ws.nu]), (lu._condense, x),
                    (lu._expand, np.resize(x, lu._expand.shape[1]))):
        out = np.full(op.shape[0], np.nan)
        assert np.array_equal(fem.csr_matvec(op, vec, out), op @ vec)
    with pytest.raises(ShapeError):
        fem.csr_matvec(lu.matrix.tocsc(), x, np.empty(len(x)))


def test_factor_excludes_the_bubbles(ws):
    lu = ws.step_factorization(0.05)
    assert lu._lu.shape == (2 * ws.mesh.n_nodes + ws.np_,) * 2


@pytest.mark.parametrize("dt", DTS)
def test_rigid_motion_stays_rigid(ws, dt):
    lu = ws.step_factorization(dt)
    for p in ws.rigid_basis().fields:
        pvec = fem.field_to_uvec(p)
        x = lu.solve(np.concatenate([ws.mass @ pvec / dt, np.zeros(ws.np_)]))
        assert np.linalg.norm(x[:ws.nu] - pvec) <= 1e-13 * np.linalg.norm(pvec)
        assert np.abs(x[ws.nu:]).max() <= 1e-12


def test_restart_with_bubbles_continues_exactly():
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    rng = np.random.default_rng(3)
    u0 = Field.from_nodal(mesh, 0.1 * rng.standard_normal((mesh.n_nodes, 2)))
    u0 = project_out_rigid(u0, ws.rigid_basis(), PARAMS)
    whole = run_linear(u0, 10, 0.05, PARAMS, workspace=ws)
    half = run_linear(u0, 5, 0.05, PARAMS, workspace=ws)
    rest = run_linear(half.states[-1].u, 5, 0.05, PARAMS, workspace=ws,
                      bubble0=half.states[-1].bubble)
    a, b = whole.states[-1].uvec(), rest.states[-1].uvec()
    assert np.any(whole.states[-1].bubble != 0.0)
    assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(a)


def test_zero_pivot_raises_solver_error():
    singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        fem.Factorized(singular, quasi_definite=True)


@pytest.mark.parametrize("shape, unstable", [((2, 8), True), ((2, 12), True), ((3, 12), False)],
                         ids=["2x8", "2x12", "3x12"])
def test_near_zero_pivot_raises_solver_error(shape, unstable):
    # with two radial layers per phase the unpivoted elimination meets a pivot
    # of about 1e-18 and its solves are wrong by orders of magnitude
    ws = StokesWorkspace(build_two_phase_disk(*shape, 0.5, 1.0), MaterialParams(1, 1, 1, 1))
    if unstable:
        with pytest.raises(SolverError, match="backward error"):
            ws.step_factorization(0.05)
    else:
        lu = ws.step_factorization(0.05)
        rhs = np.random.default_rng(5).standard_normal(ws.nu + ws.np_)
        ref = np.linalg.solve(lu.matrix.toarray(), rhs)
        assert np.linalg.norm(lu.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)
