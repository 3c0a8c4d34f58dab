import numpy as np
import pytest

from lagstokes import fem
from lagstokes.errors import (DataError, ParameterError, ResolventError, ShapeError,
                              SolverError)
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import (StokesData, StokesState, StokesWorkspace, korn_constant,
                               run_linear, solve_resolvent, step_linear)
from lagstokes.transmission import MaterialParams, build_rigid_basis, project_out_rigid

PARAMS = MaterialParams(2.0, 1.0, 3.0, 1.0)


@pytest.fixture(scope="module")
def mesh():
    return build_two_phase_disk(3, 12, 0.5, 1.0)


@pytest.fixture(scope="module")
def ws(mesh):
    return StokesWorkspace(mesh, PARAMS)


def smooth_orthogonal(mesh, workspace, amp=0.1, seed=0):
    rng = np.random.default_rng(seed)
    u0 = Field.from_nodal(mesh, amp * rng.standard_normal((mesh.n_nodes, 2)))
    return project_out_rigid(u0, workspace.rigid_basis(), PARAMS)


def test_zero_data_zero_state(mesh, ws):
    state = StokesState(Field.zeros(mesh, 2), Field.zeros(mesh, 1), 0.0)
    out = step_linear(state, StokesData.zero(), 0.1, PARAMS, ws)
    assert fem.field_l2(out.u) <= 1e-15
    assert np.abs(out.q.values).max() <= 1e-15
    assert out.t == pytest.approx(0.1)


def test_bad_dt_rejected(mesh, ws):
    state = StokesState(Field.zeros(mesh, 2), Field.zeros(mesh, 1), 0.0)
    with pytest.raises(ParameterError):
        step_linear(state, StokesData.zero(), -0.1, PARAMS, ws)


@pytest.mark.parametrize("n_steps", [-1, -3])
def test_negative_step_count_rejected(mesh, ws, n_steps):
    with pytest.raises(ParameterError):
        run_linear(smooth_orthogonal(mesh, ws), n_steps, 0.05, PARAMS, workspace=ws)
    with pytest.raises(ParameterError):
        ws.march(0.05, np.zeros(ws.nu + ws.np_), n_steps)


@pytest.mark.parametrize("bad_step", [0, 3, 5])
def test_non_finite_load_stops_the_march(ws, bad_step):
    # the NaN reaches a triangular solve, whose finiteness check raises: in
    # the first solve (step 0), a pipelined pair (3) or the last pair (5)
    def load(m):
        ld = np.zeros(ws.nu + ws.np_)
        ld[0] = np.nan if m == bad_step else 1.0
        return ld

    with pytest.raises(SolverError):
        ws.march(0.05, np.zeros(ws.nu + ws.np_), 6, load)


def test_rigid_motions_are_equilibria(mesh, ws):
    basis = ws.rigid_basis()
    for p in basis.fields:
        for dt in (0.005, 0.05, 1.0):
            traj = run_linear(p, 20, dt, PARAMS, workspace=ws)
            drift = fem.field_l2(traj.states[-1].u - p) / fem.field_l2(p)
            assert drift <= 1e-11
            assert np.abs(traj.states[-1].q.values).max() <= 1e-10


def test_energy_monotone_and_momentum_conserved(mesh, ws):
    u0 = smooth_orthogonal(mesh, ws)
    traj = run_linear(u0, 60, 0.05, PARAMS, workspace=ws)
    energy = traj.diagnostics["energy"]
    assert np.all(np.diff(energy) < 0)
    momenta = traj.diagnostics["momenta"]
    assert np.abs(momenta).max() <= 1e-12 * np.sqrt(2 * energy[0])


def test_energy_identity_residual_second_order(mesh, ws):
    # the defect E' - E + dt D' equals -0.5||sqrt(eta) du||^2 = O(dt^2)
    u0 = smooth_orthogonal(mesh, ws, amp=0.05, seed=1)
    # smooth the datum with a few implicit steps before measuring
    warm = run_linear(u0, 5, 0.02, PARAMS, workspace=ws).states[-1].u
    ratios = []
    for dt in (0.04, 0.02, 0.01):
        traj = run_linear(warm, max(int(round(0.4 / dt)), 2), dt, PARAMS, workspace=ws)
        e = traj.diagnostics["energy"]
        d = traj.diagnostics["dissipation"]
        defect = np.abs(e[1:] - e[:-1] + dt * d[1:])
        ratios.append(defect.max() / dt ** 2)
    assert max(ratios) <= 3.0 * min(ratios)


def test_divergence_datum_needs_flux_potential(mesh, ws):
    state = StokesState(Field.zeros(mesh, 2), Field.zeros(mesh, 1), 0.0)
    g = fem.interpolate(mesh, lambda x, y: 2.0, 1)
    with pytest.raises(DataError):
        step_linear(state, StokesData(g=g), 0.1, PARAMS, ws)
    # R = (x, y) has div R = 2 exactly
    R = fem.interpolate(mesh, lambda x, y: np.array([x, y]), 2)
    out = step_linear(state, StokesData(g=g, R=R), 0.1, PARAMS, ws)
    # the discrete divergence constraint now carries the datum
    resid = ws.div @ out.uvec() - ws.pressure_mass @ g.values[:, 0]
    assert np.abs(resid).max() <= 1e-10


def test_inconsistent_flux_potential_rejected(mesh, ws):
    state = StokesState(Field.zeros(mesh, 2), Field.zeros(mesh, 1), 0.0)
    g = fem.interpolate(mesh, lambda x, y: 2.0, 1)
    bad_R = fem.interpolate(mesh, lambda x, y: np.array([-y, x]), 2)   # div = 0
    with pytest.raises(DataError):
        step_linear(state, StokesData(g=g, R=bad_R), 0.1, PARAMS, ws)


def manufactured_steady():
    """u* = (a y^2, b x^2) (div-free), q* constant per phase.

    f = -eta^-1 Div(mu D(u*)) = -eta^-1 mu (2a, 2b);
    h = [[T n]] = ([[mu]] D(u*) - [[q*]] I) n;  k = (mu_- D(u*) - q_-) n+.
    """
    a, b = 0.3, -0.2
    qp, qm = 0.8, 0.1

    def u_star(x, y):
        return np.array([a * y * y, b * x * x])

    def d_star(x, y):
        s = 2 * a * y + 2 * b * x
        return np.array([[0.0, s], [s, 0.0]])

    return a, b, qp, qm, u_star, d_star


def test_manufactured_traction_rows_consistent():
    # boundary-row residual of the steady system decays under refinement
    a, b, qp, qm, u_star, d_star = manufactured_steady()
    resids = []
    for n in (3, 6, 12):
        m = build_two_phase_disk(n, 4 * n, 0.5, 1.0)
        w = StokesWorkspace(m, PARAMS)
        uvec = fem.field_to_uvec(fem.interpolate(m, u_star, 2))
        qf = Field.from_phase_traces(m, np.full((m.n_nodes, 1), qp),
                                     np.full((m.n_nodes, 1), qm))

        def f_fn_plus(x, y):
            return -PARAMS.mu_plus / PARAMS.eta_plus * np.array([2 * a, 2 * b])

        def f_fn_minus(x, y):
            return -PARAMS.mu_minus / PARAMS.eta_minus * np.array([2 * a, 2 * b])

        f = fem.interpolate_two_phase(m, f_fn_plus, f_fn_minus, 2)
        h = np.array([((PARAMS.mu_plus - PARAMS.mu_minus) * d_star(x, y)
                       - (qp - qm) * np.eye(2)) @ m.node_normals_gamma[i]
                      for i, (x, y) in enumerate(m.nodes[m.gamma_nodes])])
        k = np.array([(PARAMS.mu_minus * d_star(x, y) - qm * np.eye(2))
                      @ m.node_normals_outer[i]
                      for i, (x, y) in enumerate(m.nodes[m.gamma_plus_nodes])])
        data = StokesData(f=f, h=h, k=k)
        # steady residual: A u* - B^T q* - loads, restricted to boundary rows
        r = (w.stiffness @ uvec - w.div.T @ qf.values[:, 0]
             - w.momentum_load(data))
        bnodes = np.union1d(m.gamma_nodes, m.gamma_plus_nodes)
        rows = np.concatenate([2 * bnodes, 2 * bnodes + 1])
        # row sums scale with facet length ~ h; normalize to a trace norm
        resids.append(np.linalg.norm(r[rows]) / np.sqrt(len(rows)))
    rates = [np.log2(resids[i] / resids[i + 1]) for i in range(2)]
    assert rates[-1] >= 0.85


def _edge_load_oracle(mesh, pairs, lengths, nodal):
    """(w, v) over the facets by two-point Gauss quadrature, facet by facet."""
    load = np.zeros(fem.n_udofs(mesh))
    for (a, b), length in zip(pairs, lengths):
        for s in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            w = (1.0 - s) * nodal[a] + s * nodal[b]
            load[2 * a:2 * a + 2] += 0.5 * length * (1.0 - s) * w
            load[2 * b:2 * b + 2] += 0.5 * length * s * w
    return load


def test_traction_loads_match_edge_mass_oracle():
    m = build_two_phase_disk(6, 24, 0.5, 1.0)
    w = StokesWorkspace(m, PARAMS)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((len(m.gamma_nodes), 2))
    k = rng.standard_normal((len(m.gamma_plus_nodes), 2))
    ni = m.n_interface_facets
    for data, nodes, pairs, lengths in (
            (StokesData(h=h), m.gamma_nodes, m.interface_facets[:, :2],
             m.facet_lengths[:ni]),
            (StokesData(k=k), m.gamma_plus_nodes, m.outer_facets[:, :2],
             m.facet_lengths[ni:])):
        nodal = np.zeros((m.n_nodes, 2))
        nodal[nodes] = h if data.h is not None else k
        oracle = _edge_load_oracle(m, pairs, lengths, nodal)
        assert np.abs(w.momentum_load(data) - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_traction_loads_reject_misshaped_data(mesh, ws):
    h = np.zeros((len(mesh.gamma_nodes), 2))
    k = np.zeros((len(mesh.gamma_plus_nodes), 2))
    for data in (StokesData(h=h[1:]), StokesData(h=h[:, :1]), StokesData(h=h.ravel()),
                 StokesData(h=h, k=k[1:]), StokesData(k=np.zeros((3,) + k.shape))):
        with pytest.raises(ShapeError):
            ws.momentum_load(data)
    assert not ws.momentum_load(StokesData(h=h, k=k)).any()


def test_resolvent_rigid_identity(mesh, ws):
    basis = ws.rigid_basis()
    f = basis.fields[1]
    real, imag = solve_resolvent(1.0, f, PARAMS, ws)
    lam_up = ws.momentum(real.uvec())[1]
    fp = ws.momentum(fem.field_to_uvec(f))[1]
    assert lam_up == pytest.approx(fp, rel=1e-10)
    assert fem.field_l2(imag.u) == 0.0


def test_resolvent_zero_restricted(mesh, ws):
    u0 = smooth_orthogonal(mesh, ws, seed=2)
    real, _ = solve_resolvent(0.0, u0, PARAMS, ws)
    moms = ws.momentum(real.uvec())
    scale = np.sqrt(2 * ws.kinetic_energy(real.uvec()))
    assert np.abs(moms).max() <= 1e-10 * max(scale, 1e-30)


def test_resolvent_large_lambda_bound(mesh, ws):
    rng = np.random.default_rng(3)
    f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    lam = 1e4
    real, imag = solve_resolvent(lam, f, PARAMS, ws)
    un = np.sqrt(2 * ws.kinetic_energy(real.uvec()) + 2 * ws.kinetic_energy(imag.uvec()))
    fn = np.sqrt(2 * ws.kinetic_energy(fem.field_to_uvec(f)))
    assert un <= 1.05 * fn / lam


def test_resolvent_near_spectrum_raises(mesh, ws):
    from lagstokes.diagnostics import discrete_spectrum
    gap = discrete_spectrum(mesh, PARAMS, 6, ws).gap
    f = smooth_orthogonal(mesh, ws, seed=4)
    with pytest.raises(ResolventError):
        solve_resolvent(-gap, f, PARAMS, ws, singular_threshold=1e6)


def test_complex_resolvent(mesh, ws):
    f = smooth_orthogonal(mesh, ws, seed=5)
    real, imag = solve_resolvent(1.0 + 2.0j, f, PARAMS, ws)
    # residual of the complex equation in weak form:
    # (lam M + A) u - B^T q = M f  componentwise
    lam = 1.0 + 2.0j
    uc = real.uvec() + 1j * imag.uvec()
    qc = real.q.values[:, 0] + 1j * imag.q.values[:, 0]
    r = (lam * (ws.mass @ uc) + ws.stiffness @ uc - ws.div.T @ qc
         - ws.mass @ fem.field_to_uvec(f))
    assert np.abs(r).max() <= 1e-10


def test_korn_constant_stable_and_frame_invariant(mesh):
    from lagstokes.mesh import RefMesh
    k1 = korn_constant(mesh, PARAMS)
    assert k1 > 0
    m2 = build_two_phase_disk(6, 24, 0.5, 1.0)
    k2 = korn_constant(m2, PARAMS)
    assert abs(k2 - k1) <= 0.2 * k1
    # isometry: translate and rotate the mesh
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    moved = RefMesh(nodes=mesh.nodes @ R.T + np.array([1.5, -0.3]),
                    cells=mesh.cells, phase=mesh.phase,
                    interface_facets=mesh.interface_facets,
                    outer_facets=mesh.outer_facets, outer_phase=mesh.outer_phase)
    k3 = korn_constant(moved, PARAMS)
    assert abs(k3 - k1) <= 1e-10


def dense_korn_constant(mesh, params):
    """Dense oracle: the smallest generalized eigenvalue of the deformation
    form against the H1 form on an orthonormal basis of the nodal P1 fields
    eta-orthogonal to the rigid motions."""
    from scipy.linalg import eigh
    nn = mesh.n_nodes
    nodal = np.arange(2 * nn)
    a = fem.deformation_stiffness(mesh, np.full(mesh.n_cells, 2.0))[np.ix_(nodal, nodal)]
    ms, ks = fem.scalar_mass(mesh, mesh.cells, nn), fem.scalar_stiffness(mesh, mesh.cells, nn)
    b = np.kron((ms + ks).toarray(), np.eye(2))
    m_eta = np.kron(fem.scalar_mass(mesh, mesh.cells, nn, params.eta_cells(mesh)).toarray(),
                    np.eye(2))
    rigid = np.column_stack([p.plus().ravel() for p in build_rigid_basis(mesh, params).fields])
    q, _ = np.linalg.qr(m_eta @ rigid, mode="complete")
    z = q[:, rigid.shape[1]:]
    return float(eigh(z.T @ (a @ z), z.T @ b @ z, eigvals_only=True,
                      subset_by_index=[0, 0])[0])


def test_korn_constant_matches_dense_oracle():
    for n in (3, 6):
        m = build_two_phase_disk(n, 4 * n, 0.5, 1.0)
        dense = dense_korn_constant(m, PARAMS)
        assert abs(korn_constant(m, PARAMS) - dense) <= 1e-10 * dense


def test_korn_constant_non_convergence_raises(monkeypatch):
    import scipy.sparse.linalg as spla
    from lagstokes.errors import NumericError

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NumericError):
        korn_constant(build_two_phase_disk(3, 12, 0.5, 1.0), PARAMS)
