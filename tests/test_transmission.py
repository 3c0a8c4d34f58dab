import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagstokes import fem, transmission
from lagstokes.errors import NumericError, ParameterError, ShapeError
from lagstokes.mesh import Field, build_two_phase_disk, jump
from lagstokes.stepper import StokesWorkspace
from lagstokes.transmission import (MaterialParams, build_rigid_basis, helmholtz_project,
                                    pressure_reconstruct_K, project_out_rigid,
                                    rigid_momenta, solve_transmission_with_jumps,
                                    solve_weak_transmission)

PARAMS = MaterialParams(2.0, 1.0, 3.0, 1.0)


@pytest.fixture(scope="module")
def mesh():
    return build_two_phase_disk(3, 12, 0.5, 1.0)


def manufactured_data(mesh, params):
    """f = eta^-1 grad psi for psi = r_out^2 - r^2 (vanishing on Gamma_plus)."""
    def fp(x, y):
        return np.array([-2 * x, -2 * y]) / params.eta_plus

    def fm(x, y):
        return np.array([-2 * x, -2 * y]) / params.eta_minus

    f = fem.interpolate_two_phase(mesh, fp, fm, 2)
    exact = fem.interpolate(mesh, lambda x, y: 1.0 - x * x - y * y, 1)
    return f, exact


def test_material_params_positivity():
    with pytest.raises(ParameterError):
        MaterialParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        MaterialParams(1.0, 1.0, 1.0, -2.0)


def test_zero_data_gives_zero_solution(mesh):
    sol = solve_weak_transmission(Field.zeros(mesh, 2), PARAMS)
    assert fem.field_h1(sol.theta) == 0.0


def test_manufactured_solution_converges():
    errs, ratios = [], []
    for n in (3, 6, 12):
        m = build_two_phase_disk(n, 4 * n, 0.5, 1.0)
        f, exact = manufactured_data(m, PARAMS)
        sol = solve_weak_transmission(f, PARAMS)
        errs.append(fem.field_h1_semi(sol.theta - exact))
        ratios.append(sol.stability_ratio)
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(r >= 0.9 for r in rates)
    # measured stability must not blow up between levels
    for i in range(2):
        assert ratios[i + 1] <= 2.0 * ratios[i]


def test_solenoidal_data_gives_vanishing_gradient():
    norms = []
    for n in (3, 6):
        m = build_two_phase_disk(n, 4 * n, 0.5, 1.0)
        # curl of (r_out^2 - r^2)^2 has zero normal trace on Gamma_plus
        def f(x, y):
            w = 1.0 - x * x - y * y
            return np.array([-4.0 * w * y, 4.0 * w * x])
        sol = solve_weak_transmission(fem.interpolate(m, f, 2), PARAMS)
        norms.append(sol.grad_norm())
    assert norms[1] < 0.5 * norms[0]


def test_jump_solve_zero_data(mesh):
    beta = np.zeros(len(mesh.gamma_nodes))
    gamma = np.zeros(len(mesh.gamma_plus_nodes))
    sol = solve_transmission_with_jumps(Field.zeros(mesh, 2), beta, gamma, PARAMS)
    assert fem.field_h1(sol.theta) <= 1e-14


def test_constant_jump_imposed_exactly(mesh):
    b = 0.7
    beta = np.full(len(mesh.gamma_nodes), b)
    gamma = np.zeros(len(mesh.gamma_plus_nodes))
    sol = solve_transmission_with_jumps(Field.zeros(mesh, 2), beta, gamma, PARAMS)
    for k in range(mesh.n_interface_facets):
        assert jump(sol.theta, k) == pytest.approx(b, abs=1e-13)


def test_jump_solve_stability_ratio_matches_the_per_facet_oracle(mesh):
    # ||theta||_H1semi / (||alpha|| + ||beta||_Gamma + ||gamma||_Gamma_plus),
    # the surface norms summed facet by facet: len_f (a^2 + a b + b^2) / 3
    def surface_l2(rows, per_node):
        at = dict(zip(np.unique(rows[:, :2]), per_node))
        return np.sqrt(sum(np.hypot(*(mesh.nodes[b] - mesh.nodes[a]))
                           * (at[a] ** 2 + at[a] * at[b] + at[b] ** 2) / 3.0
                           for a, b in rows[:, :2]))

    rng = np.random.default_rng(8)
    alpha = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    beta = rng.standard_normal(len(mesh.gamma_nodes))
    gamma = rng.standard_normal(len(mesh.gamma_plus_nodes))
    sol = solve_transmission_with_jumps(alpha, beta, gamma, PARAMS)
    denom = (fem.field_l2(alpha) + surface_l2(mesh.interface_facets, beta)
             + surface_l2(mesh.outer_facets, gamma))
    oracle = fem.field_h1_semi(sol.theta) / denom
    assert abs(sol.stability_ratio - oracle) <= 1e-13 * oracle


def test_manufactured_piecewise_jump_recovery():
    c = 0.4
    errs = []
    for n in (3, 6, 12):
        m = build_two_phase_disk(n, 4 * n, 0.5, 1.0)
        f, smooth = manufactured_data(m, PARAMS)
        beta = np.full(len(m.gamma_nodes), c)
        gamma = np.zeros(len(m.gamma_plus_nodes))
        sol = solve_transmission_with_jumps(f, beta, gamma, PARAMS)
        exact = smooth.copy()
        exact.values[m.sdof_plus[m.gamma_nodes]] += c
        inner_plus = m.sdof_phase[:m.n_nodes] > 0
        exact.values[:m.n_nodes][inner_plus & ~np.isin(np.arange(m.n_nodes), m.gamma_nodes)] += c
        errs.append(fem.field_h1_semi(sol.theta - exact))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(r >= 0.9 for r in rates)


# -- pressure reconstruction -----------------------------------------------------

def test_rigid_kernel_of_pressure_reconstruction(mesh):
    basis = build_rigid_basis(mesh, PARAMS)
    rng = np.random.default_rng(0)
    for _ in range(3):
        coef = rng.standard_normal(3)
        p = coef[0] * basis.fields[0] + coef[1] * basis.fields[1] + coef[2] * basis.fields[2]
        sol = pressure_reconstruct_K(p, PARAMS)
        assert sol.grad_norm() <= 1e-12 * max(np.abs(coef).max(), 1.0)


def test_pressure_jump_matches_beta_by_construction(mesh):
    rng = np.random.default_rng(1)
    u = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    sol = pressure_reconstruct_K(u, PARAMS)
    # recompute beta_u independently from the recovered stress
    G = fem.recover_gradient(u)
    D = G + np.swapaxes(G, 1, 2)
    mu_s = PARAMS.mu_sdofs(mesh)
    S = mu_s[:, None, None] * D
    d = G[:, 0, 0] + G[:, 1, 1]
    gn = mesh.gamma_nodes
    nrm = mesh.node_normals_gamma
    snn_p = np.einsum("ni,nij,nj->n", nrm, S[mesh.sdof_plus[gn]], nrm)
    snn_m = np.einsum("ni,nij,nj->n", nrm, S[mesh.sdof_minus[gn]], nrm)
    beta = (snn_p - snn_m) - (d[mesh.sdof_plus[gn]] - d[mesh.sdof_minus[gn]])
    got = (sol.theta.values[mesh.sdof_plus[gn], 0]
           - sol.theta.values[mesh.sdof_minus[gn], 0])
    assert np.abs(got - beta).max() <= 1e-13 * max(np.abs(beta).max(), 1.0)


def test_pressure_reconstruction_matches_dense_oracle(mesh):
    # independent dense solve of the same discrete system (divergence-free
    # quadratic velocity u = (y^2, x^2))
    u = fem.interpolate(mesh, lambda x, y: np.array([y * y, x * x]), 2)
    sol = pressure_reconstruct_K(u, PARAMS)

    from lagstokes.transmission import _TransmissionWorkspace, _jump_lift
    # rebuild the transmission data exactly as the operation defines them
    G = fem.recover_gradient(u)
    D = G + np.swapaxes(G, 1, 2)
    mu_s = PARAMS.mu_sdofs(mesh)
    S = mu_s[:, None, None] * D
    d = G[:, 0, 0] + G[:, 1, 1]
    s_field = Field(mesh, 4, S.reshape(mesh.nsdof, 4))
    dS = fem.cell_gradients(s_field).reshape(mesh.n_cells, 2, 2, 2)
    div_s = dS[:, :, 0, 0] + dS[:, :, 1, 1]
    grad_d = fem.cell_gradients(Field(mesh, 1, d[:, None]))[:, 0, :]
    inv_eta = 1.0 / PARAMS.eta_cells(mesh)
    w_cells = inv_eta[:, None] * div_s - grad_d
    gn = mesh.gamma_nodes
    nrm = mesh.node_normals_gamma
    beta = (np.einsum("ni,nij,nj->n", nrm, S[mesh.sdof_plus[gn]], nrm)
            - np.einsum("ni,nij,nj->n", nrm, S[mesh.sdof_minus[gn]], nrm)
            - (d[mesh.sdof_plus[gn]] - d[mesh.sdof_minus[gn]]))
    on = mesh.gamma_plus_nodes
    osd = mesh.sdof_minus[on]
    onrm = mesh.node_normals_outer
    gamma = np.einsum("ni,nij,nj->n", onrm, S[osd], onrm) - d[osd]

    ws = _TransmissionWorkspace(mesh, PARAMS)
    rhs = fem.gradient_load(mesh, w_cells)
    lift = _jump_lift(mesh, beta)
    grad_lift = fem.cell_gradients(lift)[:, 0, :]
    rhs = rhs - fem.gradient_load(mesh, inv_eta[:, None] * grad_lift)
    stiff = ws.stiffness.toarray()
    theta = np.zeros(mesh.n_nodes)
    theta[on] = gamma
    rhs = rhs - stiff @ theta
    free = ws.free
    theta[free] = np.linalg.solve(stiff[np.ix_(free, free)], rhs[free])
    dense = Field.from_nodal(mesh, theta)
    dense.values += lift.values
    assert fem.field_h1(dense - sol.theta) <= 1e-10 * max(fem.field_h1(sol.theta), 1.0)


# -- Helmholtz projection ------------------------------------------------------------

def test_projection_decomposition_exact(mesh):
    rng = np.random.default_rng(2)
    f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    pf, qf = helmholtz_project(f, PARAMS)
    # Qf := f - Pf, so the defect f - Pf - Qf re-evaluates to exactly zero
    assert np.abs((f.values - pf.values) - qf.values).max() == 0.0


def test_projection_weighted_divergence_free(mesh):
    rng = np.random.default_rng(3)
    f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    pf, _ = helmholtz_project(f, PARAMS)
    # (Pf, grad phi) = 0 for every continuous potential vanishing on Gamma_plus
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.gamma_plus_nodes)
    fc = fem.cell_values(pf)
    resid = np.zeros(mesh.n_nodes)
    contrib = np.einsum("cak,ck->ca", mesh.grads, fc) * mesh.areas[:, None]
    np.add.at(resid, mesh.cells.ravel(), contrib.ravel())
    assert np.abs(resid[free]).max() <= 1e-11 * fem.field_l2(f)


def test_projection_rigid_orthogonality(mesh):
    basis = build_rigid_basis(mesh, PARAMS)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        _, qf = helmholtz_project(f, PARAMS)
        moms = rigid_momenta(qf, basis, PARAMS)
        assert np.abs(moms).max() <= 1e-12 * fem.field_l2(f)


def test_projection_idempotent(mesh):
    rng = np.random.default_rng(5)
    f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    pf, _ = helmholtz_project(f, PARAMS)
    pf2, qf2 = helmholtz_project(pf, PARAMS)
    assert fem.field_l2(pf2 - pf) <= 1e-12 * fem.field_l2(f)
    assert fem.field_l2(qf2) <= 1e-12 * fem.field_l2(f)


def test_projection_with_workspace_is_bit_identical(mesh):
    ws = StokesWorkspace(mesh, PARAMS)
    rng = np.random.default_rng(6)
    for _ in range(3):
        f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        pf, qf = helmholtz_project(f, PARAMS)
        pw, qw = helmholtz_project(f, PARAMS, ws)
        assert np.array_equal(pf.values, pw.values)
        assert np.array_equal(qf.values, qw.values)
    other = build_two_phase_disk(3, 12, 0.5, 1.0)
    with pytest.raises(ShapeError):
        helmholtz_project(Field.zeros(other, 2), PARAMS, ws)


def test_projection_rejects_a_workspace_with_other_params(mesh):
    ws = StokesWorkspace(mesh, MaterialParams(1.0, 2.0, 3.0, 1.0))
    with pytest.raises(ParameterError):
        helmholtz_project(Field.zeros(mesh, 2), PARAMS, ws)


def dense_projection(mesh, params, f):
    """Nodal w of the mixed system [[M, G], [G^T, 0]] [w, phi] = [M f, 0],
    solved densely."""
    nodal = np.arange(2 * mesh.n_nodes)
    m = fem.velocity_mass(mesh, params.eta_cells(mesh))[np.ix_(nodal, nodal)].toarray()
    g = fem.grad_coupling(mesh, mesh.cells, mesh.n_nodes)[
        np.ix_(nodal, mesh.free_potential_nodes)].toarray()
    n_free = g.shape[1]
    mixed = np.block([[m, g], [g.T, np.zeros((n_free, n_free))]])
    fvec = f.plus().ravel()
    return np.linalg.solve(mixed, np.concatenate([m @ fvec, np.zeros(n_free)]))[:len(fvec)]


@pytest.mark.parametrize("n", [3, 6])
def test_projection_matches_dense_mixed_solve(n):
    m = build_two_phase_disk(n, 4 * n, 0.5, 1.0)
    f = Field.from_nodal(m, np.random.default_rng(8).standard_normal((m.n_nodes, 2)))
    pf, _ = helmholtz_project(f, PARAMS)
    ref = dense_projection(m, PARAMS, f)
    assert np.linalg.norm(pf.plus().ravel() - ref) <= 1e-13 * np.linalg.norm(ref)


def test_projection_factors_hold_no_padding():
    # no relaxed supernodes, so SuperLU stores only the nonzeros of L and U
    projection = StokesWorkspace(build_two_phase_disk(6, 24, 0.5, 1.0), PARAMS).projection
    for lu in (projection._mass_lu, projection._precond_lu):
        assert lu.fill == lu._lu.L.nnz + lu._lu.U.nnz


def test_projection_cg_non_convergence_raises(mesh, monkeypatch):
    monkeypatch.setattr(transmission, "_PROJECTION_MAX_ITER", 2)
    f = Field.from_nodal(mesh, np.random.default_rng(9).standard_normal((mesh.n_nodes, 2)))
    with pytest.raises(NumericError):
        helmholtz_project(f, PARAMS)


def test_projecting_a_projected_field_stops_at_once(mesh):
    # the stopping scale is f's weighted norm, which does not vanish with G^T f
    ws = StokesWorkspace(mesh, PARAMS)
    f = Field.from_nodal(mesh, np.random.default_rng(10).standard_normal((mesh.n_nodes, 2)))
    pf, _ = helmholtz_project(f, PARAMS, ws)
    assert ws.projection.iterations >= 10
    helmholtz_project(pf, PARAMS, ws)
    assert ws.projection.iterations <= 2


@settings(max_examples=30, deadline=None)
@given(n_radial=st.integers(2, 5), n_angular=st.integers(8, 20),
       params=st.tuples(*[st.floats(0.05, 20.0)] * 4), seed=st.integers(0, 2 ** 32 - 1))
def test_projection_properties(n_radial, n_angular, params, seed):
    mesh = build_two_phase_disk(n_radial, n_angular, 0.5, 1.0)
    params = MaterialParams(*params)
    f = Field.from_nodal(mesh, np.random.default_rng(seed).standard_normal((mesh.n_nodes, 2)))
    fn = fem.field_l2(f)
    pf, qf = helmholtz_project(f, params)
    pf2, _ = helmholtz_project(pf, params)
    assert fem.field_l2(pf2 - pf) <= 1e-12 * fn
    basis = build_rigid_basis(mesh, params)
    assert np.abs(rigid_momenta(qf, basis, params)).max() <= 1e-12 * fn
    # (Pf, grad phi) for every continuous potential phi vanishing on Gamma_plus
    weak_div = fem.gradient_load(mesh, fem.cell_values(pf))[mesh.free_potential_nodes]
    assert np.abs(weak_div).max() <= 1e-11 * fn


def test_solves_release_the_mesh():
    m = build_two_phase_disk(3, 12, 0.5, 1.0)
    f = Field.from_nodal(m, np.random.default_rng(7).standard_normal((m.n_nodes, 2)))
    helmholtz_project(f, PARAMS)
    solve_weak_transmission(f, PARAMS)
    pressure_reconstruct_K(f, PARAMS)
    ref = weakref.ref(m)
    del m, f
    gc.collect()
    assert ref() is None


def test_manufactured_gradient_has_vanishing_p_part():
    norms = []
    for n in (3, 6):
        m = build_two_phase_disk(n, 4 * n, 0.5, 1.0)
        f, _ = manufactured_data(m, PARAMS)
        pf, _ = helmholtz_project(f, PARAMS)
        norms.append(fem.field_l2(pf) / fem.field_l2(f))
    assert norms[1] < 0.6 * norms[0]


# -- rigid basis ---------------------------------------------------------------------

def test_rigid_basis_dimension_and_gram(mesh):
    basis = build_rigid_basis(mesh, PARAMS)
    assert len(basis) == 3
    assert np.abs(basis.gram - np.eye(3)).max() <= 1e-12


def test_rigid_basis_gram_is_the_pairwise_inner_product(mesh):
    # the Gram matrix comes from one stacked inner product over the pairs
    basis = build_rigid_basis(mesh, PARAMS)
    eta_c = PARAMS.eta_cells(mesh)
    pairwise = np.array([[fem.field_inner(fa, fb, eta_c) for fb in basis.fields]
                         for fa in basis.fields])
    assert np.array_equal(basis.gram, basis.gram.T)
    assert np.abs(basis.gram - pairwise).max() <= 1e-14


def test_rigid_basis_members_are_rigid(mesh):
    basis = build_rigid_basis(mesh, PARAMS)
    for (A, b), fld in zip(basis.coeffs, basis.fields):
        assert np.abs(A + A.T).max() == 0.0          # antisymmetric: D(p) = 0
        assert abs(A[0, 0]) + abs(A[1, 1]) == 0.0    # trace free: div p = 0
        assert np.allclose(fld.plus(), mesh.nodes @ A.T + b, atol=1e-13)


def test_project_out_rigid(mesh):
    basis = build_rigid_basis(mesh, PARAMS)
    out = project_out_rigid(basis.fields[0], basis, PARAMS)
    assert fem.field_l2(out) <= 1e-12
    rng = np.random.default_rng(6)
    u = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    ur = project_out_rigid(u, basis, PARAMS)
    assert np.abs(rigid_momenta(ur, basis, PARAMS)).max() <= 1e-12 * fem.field_l2(u)
    # already-orthogonal fields pass through unchanged
    ur2 = project_out_rigid(ur, basis, PARAMS)
    assert fem.field_l2(ur2 - ur) <= 1e-12 * fem.field_l2(u)
