import numpy as np
import pytest

from lagstokes import fem, kernel
from lagstokes.errors import DomainError, ParameterError, ValidationError
from lagstokes.fixedpoint import (IterationConfig, compute_nonlinear_terms,
                                  cutoff_extension, extension_reflect,
                                  fit_x_recursion, global_continue,
                                  picard_solve_local, select_local_T,
                                  sigma_exponents, stability_probe,
                                  weighted_lp_norm)
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import StokesWorkspace
from lagstokes.transmission import MaterialParams, project_out_rigid, rigid_momenta

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)


@pytest.fixture(scope="module")
def mesh():
    return build_two_phase_disk(3, 12, 0.5, 1.0)


@pytest.fixture(scope="module")
def ws(mesh):
    return StokesWorkspace(mesh, PARAMS)


def smooth_datum(mesh, ws, amp):
    def profile(x, y):
        w = 1.1 - x * x - y * y
        return np.array([w * y, -w * x])

    u0 = fem.interpolate(mesh, lambda x, y: amp * profile(x, y), 2)
    return project_out_rigid(u0, ws.rigid_basis(), PARAMS)


# -- exponent arithmetic -----------------------------------------------------------

# hand-computed (p, q, N) -> (sigma, s, sigma_tilde); class I uses
# s = (1 - N/(pq) + sigma)/2, class II uses s = (1/p' + sigma)/2.
# sigma vanishes on 2/p + N/q <= 1, and class II (p < 2) additionally
# requires 1/p + N/q > 3/2, which for N = 2 confines q to (2, 4).
HAND_CASES = [
    (2.0, 4.0, 2, 0.25, (1 - 2 / 8 + 0.25) / 2, 0.25),
    (2.0, 3.0, 2, 1.0 / 6.0, (1 - 1 / 3 + 1 / 6) / 2, 1.0 / 6.0),
    (3.0, 4.0, 2, 0.25, (1 - 1 / 6 + 0.25) / 2, 0.25),
    (3.0, 3.0, 2, 1.0 / 6.0, (1 - 2 / 9 + 1 / 6) / 2, 1.0 / 6.0),
    (4.0, 8.0, 2, 0.0, (1 - 1 / 16) / 2, 0.25),
    (4.0, 4.0, 2, 0.0, (1 - 1 / 8) / 2, 0.25),          # 2/p + N/q = 1 exactly
    (5.0, 6.0, 2, 0.0, (1 - 1 / 15) / 2, 0.2),
    (5.0, 2.5, 2, (1 - 0.8) / 2, (1 - 2 / 12.5 + 0.1) / 2, 0.1),
    (8.0, 16.0, 2, 0.0, (1 - 1 / 64) / 2, 0.125),
    (2.0, 100.0, 2, 0.49, (1 - 0.01 + 0.49) / 2, 0.49),
    (10.0, 2.1, 2, (1 - 2 / 2.1) / 2, (1 - 2 / 21 + (1 - 2 / 2.1) / 2) / 2,
     (1 - 2 / 2.1) / 2),
    (2.5, 4.0, 2, 0.25, (1 - 0.2 + 0.25) / 2, 0.25),
    (1.2, 2.5, 2, 0.1, ((1 - 1 / 1.2) + 0.1) / 2, 0.1),
    (1.5, 2.2, 2, (1 - 2 / 2.2) / 2, ((1 / 3) + (1 - 2 / 2.2) / 2) / 2,
     (1 - 2 / 2.2) / 2),
    (1.9, 2.05, 2, (1 - 2 / 2.05) / 2, ((0.9 / 1.9) + (1 - 2 / 2.05) / 2) / 2,
     (1 - 2 / 2.05) / 2),
    (1.1, 3.0, 2, 1.0 / 6.0, ((0.1 / 1.1) + 1 / 6) / 2, 1.0 / 6.0),
    (3.0, 4.0, 3, 0.125, (1 - 0.25 + 0.125) / 2, 0.125),
    (4.0, 12.0, 3, 0.0, (1 - 1 / 16) / 2, 0.25),
    (2.0, 6.0, 3, 0.25, (1 - 0.25 + 0.25) / 2, 0.25),
    (1.5, 3.5, 3, (1 - 6 / 7) / 2, ((1 / 3) + (1 - 6 / 7) / 2) / 2, (1 - 6 / 7) / 2),
]


@pytest.mark.parametrize("p,q,n,sig,s,st", HAND_CASES)
def test_exponents_match_hand_computation(p, q, n, sig, s, st):
    e = sigma_exponents(p, q, n)
    assert e.sigma == pytest.approx(sig, abs=1e-14)
    assert e.s == pytest.approx(s, abs=1e-14)
    assert e.sigma_tilde == pytest.approx(st, abs=1e-14)


def test_exponents_domain_errors():
    with pytest.raises(DomainError):
        sigma_exponents(3.0, 2.0, 2)      # q <= N
    with pytest.raises(DomainError):
        sigma_exponents(1.0, 4.0, 2)      # p <= 1
    with pytest.raises(DomainError):
        sigma_exponents(1.5, 16.0, 3)     # p < 2 with 1/p + N/q = 0.854 <= 1.5


def test_select_local_T_example():
    e = sigma_exponents(2.0, 4.0, 2)
    T = select_local_T(1.0, e, 2.0, 1.0)
    # first condition T^(0.5+0.25) <= 0.5 binds: T = 2^(-4/3)
    assert T == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-12)


def test_select_local_T_monotone():
    e = sigma_exponents(2.0, 4.0, 2)
    prev = np.inf
    for L in (0.5, 1.0, 4.0, 64.0, 1e6):
        T = select_local_T(L, e, 2.0)
        assert T <= prev
        prev = T
    assert select_local_T(1.0, e, 2.0, C_cal=2.0) <= select_local_T(1.0, e, 2.0, C_cal=1.0)
    assert select_local_T(1e-9, e, 2.0) == 1.0     # capped at one


# -- extension operators -----------------------------------------------------------

def test_extension_reflect_mirrors_samples():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(16)
    z = extension_reflect(y, 0.125, 1.0)
    assert np.array_equal(z[:8], y[:8])
    for j in range(8, 16):
        assert z[j] == y[15 - j]
    assert np.all(extension_reflect(np.zeros(8), 0.1, 0.5) == 0.0)
    with pytest.raises(ParameterError):
        extension_reflect(y, 0.125, 3.0)
    with pytest.raises(ParameterError):
        extension_reflect(y, 0.125, 0.0)


def test_extension_factor_two_bound():
    rng = np.random.default_rng(1)
    dt = 0.05
    for _ in range(40):
        y = rng.standard_normal(20)
        t = dt * rng.integers(1, 21)
        z = extension_reflect(y, dt, t)
        for p in (1.5, 2.0, 3.0):
            for g in (0.0, 0.5, 1.0):
                lhs = weighted_lp_norm(z, dt, p, -g)
                rhs = weighted_lp_norm(y, dt, p, 0.0)
                assert lhs <= 2.0 * rhs + 1e-12


def test_cutoff_restriction_and_support():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(12)
    dt, T = 0.1, 1.2
    ce = cutoff_extension(y, dt, T, gamma=0.5, p=2.0)
    n = int(round(T / dt))
    assert np.array_equal(ce.values[:n], y[:n])      # unchanged on (0, T)
    s = (np.arange(len(ce.values)) + 0.5) * dt
    cut = min(2 * T, T + 1.0)
    assert np.all(ce.values[s >= cut] == 0.0)


def test_cutoff_bound():
    rng = np.random.default_rng(3)
    dt = 0.1
    for _ in range(40):
        y = rng.standard_normal(12)
        for p in (1.5, 2.0, 3.0):
            for g in (0.0, 0.5, 1.0):
                ce = cutoff_extension(y, dt, 1.2, gamma=g, p=p)
                assert ce.bound_factor <= ce.bound_limit + 1e-12


# -- nonlinear terms ----------------------------------------------------------------

def identity_cofactor(mesh):
    return kernel.CofactorField(mesh, np.broadcast_to(np.eye(2), (mesh.nsdof, 2, 2)).copy())


def compatibility_residual(rhs):
    """|(g, 1) - boundary flux of R| at a single time: the divergence-form
    identity, with the flux through the exact normals of the outer facets."""
    mesh = rhs.g.mesh
    total_g = np.dot(mesh.areas / 3.0, rhs.g.values[mesh.cell_sdofs, 0].sum(axis=1))
    r_outer = rhs.R.minus() if mesh.outer_phase < 0 else rhs.R.plus()
    ends = mesh.outer_facets[:, :2]
    outer = slice(mesh.n_interface_facets, None)
    mid = 0.5 * (r_outer[ends[:, 0]] + r_outer[ends[:, 1]])
    flux = np.dot(mesh.facet_lengths[outer],
                  np.einsum("fk,fk->f", mid, mesh.facet_normals[outer]))
    return abs(total_g - flux)


def test_nonlinear_terms_vanish_for_zero_velocity(mesh):
    u = Field.zeros(mesh, 2)
    q = Field.zeros(mesh, 1)
    rhs = compute_nonlinear_terms([u], [q], identity_cofactor(mesh), PARAMS, 0.1)
    assert np.abs(rhs.stress).max() == 0.0
    assert np.abs(rhs.g.values).max() == 0.0
    assert np.abs(rhs.R.values).max() == 0.0
    assert np.abs(rhs.h_jump).max() == 0.0
    assert np.abs(rhs.k).max() == 0.0


def test_nonlinear_terms_vanish_at_initial_geometry(mesh):
    rng = np.random.default_rng(4)
    u = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    q = Field.from_nodal(mesh, rng.standard_normal(mesh.n_nodes))
    rhs = compute_nonlinear_terms([u], [q], identity_cofactor(mesh), PARAMS, 0.1)
    assert np.abs(rhs.stress).max() <= 1e-13
    assert np.abs(rhs.g.values).max() <= 1e-13
    assert np.abs(rhs.R.values).max() <= 1e-13
    assert np.abs(rhs.h_jump).max() <= 1e-12
    assert np.abs(rhs.k).max() <= 1e-12


def test_nonlinear_terms_constant_gradient_oracle(mesh):
    # linear velocity, constant pressure, constant cofactor: closed forms
    G = np.array([[0.1, -0.2], [0.3, 0.05]])
    Amat = np.array([[0.95, 0.04], [-0.02, 1.03]])
    qval = 0.7
    u = Field.from_nodal(mesh, mesh.nodes @ G.T)
    q = Field.from_nodal(mesh, np.full(mesh.n_nodes, qval))
    A = kernel.CofactorField(mesh, np.broadcast_to(Amat, (mesh.nsdof, 2, 2)).copy())
    rhs = compute_nonlinear_terms([u], [q], A, PARAMS, 0.1)

    eye = np.eye(2)
    g_ref = np.trace(G @ (eye - Amat.T))
    assert np.allclose(rhs.g.values, g_ref, atol=1e-12)
    R_ref = mesh.nodes @ (G.T @ (eye - Amat))   # (I - A^T) G xi
    assert np.allclose(rhs.R.plus(), R_ref, atol=1e-12)
    for phase, mu in ((1, PARAMS.mu_plus), (-1, PARAMS.mu_minus)):
        sel = mesh.phase == phase
        T_ref = mu * (G + G.T) - qval * eye
        Tu_ref = mu * (G @ Amat.T + Amat @ G.T) - qval * eye
        stress_ref = T_ref - Tu_ref @ Amat
        assert np.allclose(rhs.stress[sel], stress_ref, atol=1e-12)
    # traction defect: T n - T_A nbar with nbar = A n / |A n|
    mu_p, mu_m = PARAMS.mu_plus, PARAMS.mu_minus
    n0 = mesh.node_normals_gamma[0]
    nbar = Amat @ n0 / np.linalg.norm(Amat @ n0)
    h_ref = ((mu_p * (G + G.T) - qval * eye) @ n0
             - (mu_p * (G @ Amat.T + Amat @ G.T) - qval * eye) @ nbar) \
        - ((mu_m * (G + G.T) - qval * eye) @ n0
           - (mu_m * (G @ Amat.T + Amat @ G.T) - qval * eye) @ nbar)
    assert np.allclose(rhs.h_jump[0], h_ref, atol=1e-12)


def test_compatibility_identity_exact_for_linear_data(mesh):
    G = np.array([[0.1, -0.2], [0.3, 0.05]])
    Amat = np.array([[0.95, 0.04], [-0.02, 1.03]])
    u = Field.from_nodal(mesh, mesh.nodes @ G.T)
    q = Field.zeros(mesh, 1)
    A = kernel.CofactorField(mesh, np.broadcast_to(Amat, (mesh.nsdof, 2, 2)).copy())
    rhs = compute_nonlinear_terms([u], [q], A, PARAMS, 0.1)
    # (g, 1) = int div R = boundary flux of R: exact up to the polygonal
    # quadrature of the boundary integral
    assert compatibility_residual(rhs) <= 1e-12


# -- Picard solves ------------------------------------------------------------------

def test_picard_zero_datum(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.5)
    traj, rep = picard_solve_local(Field.zeros(mesh, 2), cfg, PARAMS, workspace=ws)
    assert rep.converged and rep.iterations == 1
    assert max(fem.field_l2(s.u) for s in traj.states) == 0.0


def test_picard_contracts_and_scales_with_amplitude(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.5)
    factors = []
    for amp in (0.08, 0.04):
        _, rep = picard_solve_local(smooth_datum(mesh, ws, amp), cfg, PARAMS,
                                    workspace=ws)
        assert rep.converged
        assert max(rep.contraction_factors) < 0.9
        factors.append(np.median(rep.contraction_factors))
    assert factors[1] < factors[0]


def test_picard_deterministic(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.4)
    v0 = smooth_datum(mesh, ws, 0.05)
    t1, r1 = picard_solve_local(v0, cfg, PARAMS, workspace=ws)
    t2, r2 = picard_solve_local(v0, cfg, PARAMS, workspace=ws)
    for s1, s2 in zip(t1.states, t2.states):
        assert np.array_equal(s1.u.values, s2.u.values)
        assert np.array_equal(s1.q.values, s2.q.values)
    assert r1.distances == r2.distances


def test_picard_substituted_residual_small(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.5, fp_tol=1e-11)
    _, rep = picard_solve_local(smooth_datum(mesh, ws, 0.05), cfg, PARAMS,
                                workspace=ws)
    assert rep.residual <= 1e-10


def test_picard_ball_property(mesh, ws):
    # the converged correction stays inside the measured linear bound
    cfg = IterationConfig(dt=0.05, horizon=0.5)
    _, rep = picard_solve_local(smooth_datum(mesh, ws, 0.05), cfg, PARAMS,
                                workspace=ws)
    assert rep.ball_norm <= rep.L_bound


def test_stability_probe_identical_inputs(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.4)
    v0 = smooth_datum(mesh, ws, 0.05)
    rep = stability_probe(v0, v0, cfg, PARAMS, workspace=ws)
    assert rep.distance == 0.0


def test_stability_probe_linear_response(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.4)
    base = smooth_datum(mesh, ws, 0.05)
    direction = smooth_datum(mesh, ws, 1.0)
    ratios = []
    for eps in (1e-4, 1e-6, 1e-8):
        rep = stability_probe(base, base + eps * direction, cfg, PARAMS, workspace=ws)
        ratios.append(rep.ratio)
    assert max(ratios) <= 1.3 * min(ratios)


def test_stability_probe_horizon_shrink(mesh, ws):
    base = smooth_datum(mesh, ws, 0.05)
    direction = smooth_datum(mesh, ws, 1.0)
    r_full = stability_probe(base, base + 1e-6 * direction,
                             IterationConfig(dt=0.05, horizon=0.4), PARAMS, workspace=ws)
    r_half = stability_probe(base, base + 1e-6 * direction,
                             IterationConfig(dt=0.05, horizon=0.2), PARAMS, workspace=ws)
    assert r_half.ratio <= 1.3 * r_full.ratio


def test_picard_general_local_path(mesh, ws):
    # density defect, time-dependent force composed with the map, and a
    # nodewise-tabulated smooth viscosity together keep the contraction
    cfg = IterationConfig(dt=0.05, horizon=0.4)
    eta_s = PARAMS.eta_sdofs(mesh)
    rho0 = Field(mesh, 1, (eta_s * 1.02)[:, None])      # ||rho0 - eta|| small
    mu_bands = {1: (PARAMS.mu_plus, 1.1 * PARAMS.mu_plus),
                -1: (PARAMS.mu_minus, 1.1 * PARAMS.mu_minus)}
    mu_vals = np.array([mu_bands[ph][0] * (1.0 + 0.05 * (ph > 0))
                        for ph in mesh.sdof_phase], dtype=float)
    mu_nodal = Field(mesh, 1, mu_vals[:, None])

    def force(x, y, t):
        return 0.01 * np.exp(-t) * np.array([y, -x])

    v0 = smooth_datum(mesh, ws, 0.02)
    traj, rep = picard_solve_local(v0, cfg, PARAMS, rho0=rho0, f_ext=force,
                                   mu_nodal=mu_nodal)
    assert rep.converged
    assert max(rep.contraction_factors, default=0.0) < 0.9
    assert rep.residual <= 1e-9
    # with constant tabulated mu and rho0 = eta the general path reproduces
    # the piecewise-constant one (to assembly roundoff: cell averaging of
    # the constant differs by an ulp)
    mu_const = Field(mesh, 1, PARAMS.mu_sdofs(mesh)[:, None].astype(float))
    t1, _ = picard_solve_local(v0, cfg, PARAMS, workspace=ws)
    t2, _ = picard_solve_local(v0, cfg, PARAMS, mu_nodal=mu_const)
    for s1, s2 in zip(t1.states, t2.states):
        assert np.abs(s1.u.values - s2.u.values).max() <= 1e-12


def test_picard_xi_norms_use_the_tabulated_viscosity(mesh):
    # a tabulated viscosity that equals another MaterialParams' piecewise
    # constants gives that solve, and so its Xi residual norms
    cfg = IterationConfig(dt=0.05, horizon=0.2)
    doubled = MaterialParams(2.0, 1.0, 0.6, 0.2)
    v0 = smooth_datum(mesh, StokesWorkspace(mesh, doubled), 0.02)
    _, ref = picard_solve_local(v0, cfg, doubled)
    mu_nodal = Field(mesh, 1, doubled.mu_sdofs(mesh)[:, None].astype(float))
    _, rep = picard_solve_local(v0, cfg, PARAMS, mu_nodal=mu_nodal)
    assert rep.ball_norm == pytest.approx(ref.ball_norm, rel=1e-10)
    assert rep.xi_norm == pytest.approx(ref.xi_norm, rel=1e-10)
    assert rep.xi_outer_norm == pytest.approx(ref.xi_outer_norm, rel=1e-10)


# -- global continuation --------------------------------------------------------------

def test_global_zero_datum(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=1.0)
    traj, rep = global_continue(Field.zeros(mesh, 2), cfg, PARAMS, workspace=ws)
    assert max(fem.field_l2(s.u) for s in traj.states) == 0.0
    assert not rep.exceeded


def test_global_small_datum_decays(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=3.0, smallness=10.0)
    v0 = smooth_datum(mesh, ws, 0.05)
    traj, rep = global_continue(v0, cfg, PARAMS, workspace=ws)
    assert not rep.exceeded
    assert rep.decay_rate > 0
    assert np.all(rep.x_values <= rep.bound)
    assert rep.momenta_drift <= 1e-4
    # Lagrangian momenta stay near zero along the run
    assert abs(traj.times[-1] - 3.0) < 1e-9


@pytest.mark.parametrize("horizon", [1.1, 2.05])
def test_global_final_time_equals_horizon(mesh, ws, horizon):
    # the last segment is shorter than min_steps; it must not be padded
    cfg = IterationConfig(dt=0.05, horizon=horizon, smallness=10.0)
    traj, rep = global_continue(smooth_datum(mesh, ws, 0.02), cfg, PARAMS, workspace=ws)
    assert len(traj.states) == round(horizon / 0.05) + 1
    assert abs(traj.times[-1] - horizon) < 1e-9
    assert abs(rep.times[-1] - horizon) < 1e-9
    assert not rep.exceeded


def test_picard_local_horizon_below_min_steps(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.1)
    traj, rep = picard_solve_local(smooth_datum(mesh, ws, 0.02), cfg, PARAMS, workspace=ws)
    assert rep.converged and rep.n_steps == 2
    assert abs(traj.times[-1] - 0.1) < 1e-12


def test_global_continue_factors_the_projection_once_per_workspace(mesh, monkeypatch):
    from lagstokes import transmission
    builds = []
    init = transmission._ProjectionWorkspace.__init__

    def counting_init(self, *args):
        builds.append(args[0])
        init(self, *args)

    monkeypatch.setattr(transmission._ProjectionWorkspace, "__init__", counting_init)
    cfg = IterationConfig(dt=0.05, horizon=1.1, smallness=10.0)
    for n_built in (1, 2):
        own = StokesWorkspace(mesh, PARAMS)
        for _ in range(2):
            _, rep = global_continue(smooth_datum(mesh, own, 0.02), cfg, PARAMS,
                                     workspace=own)
            assert len(rep.segments) > 1
        assert len(builds) == n_built and builds[-1] is mesh


def test_global_continue_evaluates_the_lagrangian_momenta_once(mesh, ws, monkeypatch):
    from lagstokes import diagnostics
    calls = []
    evaluate = diagnostics._lagrangian_momenta

    def counting(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(diagnostics, "_lagrangian_momenta", counting)
    cfg = IterationConfig(dt=0.05, horizon=1.1, smallness=10.0)
    traj, rep = global_continue(smooth_datum(mesh, ws, 0.02), cfg, PARAMS, workspace=ws)
    n_evals = len(calls)
    assert n_evals > 0
    # the budgets of the same workspace reuse the stored series
    mb = diagnostics.momentum_and_barycenter(traj, PARAMS, ws)
    assert len(calls) == n_evals
    assert np.array_equal(mb.momenta, traj.diagnostics["lagrangian_momenta"])
    assert rep.momenta_drift == float(mb.residuals["momentum"].max())
    # another workspace evaluates them again, to the same bits
    fresh = diagnostics.momentum_and_barycenter(traj, PARAMS, StokesWorkspace(mesh, PARAMS))
    assert len(calls) == 2 * n_evals
    assert np.array_equal(fresh.momenta, mb.momenta)


def test_global_smallness_guard(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.5, smallness=1e-6)
    with pytest.raises(ValidationError):
        global_continue(smooth_datum(mesh, ws, 0.05), cfg, PARAMS, workspace=ws)


def test_global_projects_nonorthogonal_datum(mesh, ws):
    cfg = IterationConfig(dt=0.05, horizon=0.5, smallness=10.0)
    basis = ws.rigid_basis()
    v0 = smooth_datum(mesh, ws, 0.02) + 0.01 * basis.fields[2]
    traj, rep = global_continue(v0, cfg, PARAMS, workspace=ws)
    moms = rigid_momenta(traj.states[0].u, basis, PARAMS)
    assert np.abs(moms).max() <= 1e-10


def test_fit_x_recursion_covers_samples():
    x = np.array([0.01, 0.02, 0.025, 0.027])
    a, b = fit_x_recursion(x)
    assert np.all(x <= a + b * (x ** 2 + x ** 3) + 1e-12)


def test_iteration_config_validation():
    with pytest.raises(ValidationError):
        IterationConfig(dt=-1.0)
    with pytest.raises(ValidationError):
        IterationConfig(gamma0=0.5)
    with pytest.raises(DomainError):
        IterationConfig(p=3.0, q=1.5)     # q <= N
    with pytest.raises(ValidationError) as err:
        IterationConfig(min_steps=0)
    assert err.value.field == "min_steps"
