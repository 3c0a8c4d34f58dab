"""The backward-Euler step solver with the MINI bubbles condensed out."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lagstokes import fem, stepper
from lagstokes.diagnostics import discrete_spectrum
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
        assert np.array_equal(fem.csr_matvec_of(op)(vec, out), op @ vec)
    with pytest.raises(ShapeError):
        fem.csr_matvec_of(lu.matrix.tocsc())


def test_factor_excludes_the_bubbles(ws):
    # _lu is the core in use, the dense inverse or SuperLU's factor
    lu = ws.step_factorization(0.05)
    assert lu._lu.shape == (lu.n_condensed,) * 2 == (2 * ws.mesh.n_nodes + ws.np_,) * 2


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


def test_singular_dense_core_raises_solver_error():
    core = fem._DenseCore(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])), check=None)
    with pytest.raises(SolverError, match="singular"):
        core.solve(np.ones(2))


@pytest.mark.parametrize("shape, unstable", [((2, 8), True), ((2, 12), True), ((3, 12), False)],
                         ids=["2x8", "2x12", "3x12"])
def test_near_zero_pivot_raises_solver_error(shape, unstable, monkeypatch):
    # with two radial layers per phase the unpivoted SuperLU elimination meets
    # a pivot of about 1e-18 and its solves are wrong by orders of magnitude;
    # the probe rejects it when the gate sends these meshes to SuperLU
    monkeypatch.setattr(fem, "DENSE_CORE_MAX_ROWS", 0)
    ws = StokesWorkspace(build_two_phase_disk(*shape, 0.5, 1.0), MaterialParams(1, 1, 1, 1))
    if unstable:
        with pytest.raises(SolverError, match="backward error"):
            ws.step_factorization(0.05)
    else:
        lu = ws.step_factorization(0.05)
        assert lu.core == "superlu"
        rhs = np.random.default_rng(5).standard_normal(ws.nu + ws.np_)
        ref = np.linalg.solve(lu.matrix.toarray(), rhs)
        assert np.linalg.norm(lu.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(2, 8), (2, 12), (2, 16)], ids=["2x8", "2x12", "2x16"])
def test_two_layer_meshes_march_on_the_pivoted_dense_core(shape):
    # the meshes whose unpivoted factor the probe rejects: under the gate they
    # take the pivoted dense core, march backward stable and keep the spectrum
    params = MaterialParams(1, 1, 1, 1)
    ws = StokesWorkspace(build_two_phase_disk(*shape, 0.5, 1.0), params)
    rng = np.random.default_rng(23)
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((6, ws.nu + ws.np_))
    for dt in DTS:
        lu = ws.step_factorization(dt)
        assert lu.core == "dense"
        xs = ws.march(dt, x0, len(loads), lambda m: loads[m])
        for m in range(1, len(xs)):
            b = loads[m - 1].copy()
            b[:ws.nu] += ws.mass @ xs[m - 1, :ws.nu] / dt
            omega = np.abs(lu.matrix @ xs[m] - b) / (abs(lu.matrix) @ np.abs(xs[m]) + np.abs(b))
            assert omega.max() <= 1e-15
    spectrum = discrete_spectrum(ws.mesh, params, 6, ws)
    assert spectrum.kernel_dim == 3


@pytest.mark.parametrize("shape, core", [((3, 12), "dense"), ((2, 24), "dense"),
                                         ((4, 16), "dense"), ((6, 24), "superlu"),
                                         ((12, 48), "superlu"), ((2, 40), "superlu"),
                                         ((2, 48), "superlu")],
                         ids=["3x12", "2x24", "4x16", "6x24", "12x48", "2x40", "2x48"])
def test_gate_picks_the_core_by_condensed_size(shape, core):
    # two radial layers per phase above the gate (523 and 627 rows) factor on
    # SuperLU and pass its probe
    lu = StokesWorkspace(build_two_phase_disk(*shape, 0.5, 1.0), PARAMS).step_factorization(0.05)
    assert lu.core == core
    assert (lu.n_condensed <= fem.DENSE_CORE_MAX_ROWS) == (core == "dense")
    # both cores give their LU factors, as SuperLU does
    L, U = lu._lu.L, lu._lu.U
    assert L.shape == U.shape == (lu.n_condensed,) * 2
    assert sp.tril(L, -1).nnz + sp.triu(U).nnz + lu.n_condensed == L.nnz + U.nnz
    if core == "dense":
        assert np.array_equal(L.diagonal(), np.ones(lu.n_condensed))
    else:
        # no relaxed supernodes, so SuperLU stores no padding zeros
        assert lu.fill == L.nnz + U.nnz


@pytest.mark.parametrize("dt", DTS)
def test_dense_and_superlu_cores_agree(dt, monkeypatch):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    dense = StokesWorkspace(mesh, PARAMS).step_factorization(dt)
    monkeypatch.setattr(fem, "DENSE_CORE_MAX_ROWS", 0)
    superlu = StokesWorkspace(mesh, PARAMS).step_factorization(dt)
    assert (dense.core, superlu.core) == ("dense", "superlu")
    rhs = np.random.default_rng(29).standard_normal((dense.matrix.shape[0], 2))
    for a, b in ((dense.solve(rhs), superlu.solve(rhs)),
                 (dense.solve_unrefined(rhs[:, 0]), superlu.solve_unrefined(rhs[:, 0]))):
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


def test_dense_inverse_is_built_once_on_the_first_solve(monkeypatch):
    # the first solve of a march runs on the calling thread, so the worker
    # thread only reads the inverse; the forced two-thread loop keeps the
    # pair loop's bits
    calls = []
    getrf = fem.sla.lapack.dgetrf
    monkeypatch.setattr(fem.sla.lapack, "dgetrf",
                        lambda a, **kw: calls.append(a.shape) or getrf(a, **kw))
    ws = StokesWorkspace(build_two_phase_disk(3, 12, 0.5, 1.0), PARAMS)
    lu = ws.step_factorization(0.05)
    assert calls == [] and lu._lu.inverse is None
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((40, ws.nu + ws.np_))
    monkeypatch.setattr(stepper, "_CHECK_EVERY", 10**9)          # no fall back
    runs = []
    for kind in ("two-thread", "pair"):
        monkeypatch.setattr(stepper, "step_loop", lambda lu, kind=kind: kind)
        runs.append(ws.march(0.05, x0, len(loads), lambda m: loads[m]))
        assert calls == [(lu.n_condensed,) * 2]
    assert np.array_equal(runs[0], runs[1])


def test_unstable_dense_core_raises_on_every_solve(monkeypatch):
    # a core that fails its probe when it is built is dropped, not kept
    monkeypatch.setattr(fem, "_PROBE_BACKWARD_ERROR_TOL", -1.0)
    ws = StokesWorkspace(build_two_phase_disk(3, 12, 0.5, 1.0), PARAMS)
    lu = ws.step_factorization(0.05)
    rhs = np.ones(ws.nu + ws.np_)
    for _ in range(2):
        with pytest.raises(SolverError, match="dense core is unstable"):
            lu.solve(rhs)
        assert lu._lu.inverse is None
