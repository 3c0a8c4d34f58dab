import numpy as np
import pytest
import scipy.linalg

from lagstokes.diagnostics import (bootstrap_check, bootstrap_rb, decay_fit,
                                   discrete_spectrum, energy_budget,
                                   momentum_and_barycenter)
from lagstokes.errors import DomainError, ParameterError
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import StokesWorkspace, run_linear
from lagstokes.transmission import MaterialParams, project_out_rigid

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)


@pytest.fixture(scope="module")
def mesh():
    return build_two_phase_disk(3, 12, 0.5, 1.0)


@pytest.fixture(scope="module")
def ws(mesh):
    return StokesWorkspace(mesh, PARAMS)


def orthogonal_datum(mesh, ws, amp=0.1, seed=0):
    rng = np.random.default_rng(seed)
    u0 = Field.from_nodal(mesh, amp * rng.standard_normal((mesh.n_nodes, 2)))
    return project_out_rigid(u0, ws.rigid_basis(), PARAMS)


# -- budgets --------------------------------------------------------------------

def test_rigid_trajectory_has_zero_dissipation(mesh, ws):
    p = ws.rigid_basis().fields[2]
    traj = run_linear(p, 10, 0.05, PARAMS, workspace=ws)
    rep = energy_budget(traj, PARAMS, ws)
    assert np.abs(rep.dissipation).max() <= 1e-12


def test_energy_nonincreasing_without_forcing(mesh, ws):
    traj = run_linear(orthogonal_datum(mesh, ws), 50, 0.05, PARAMS, workspace=ws)
    rep = energy_budget(traj, PARAMS, ws)
    assert np.all(np.diff(rep.energy) < 0)
    assert np.all(rep.residuals["energy"][1:] <= 0)    # backward Euler dissipates


def test_energy_residual_first_order_in_dt(mesh, ws):
    # compare at matched times past a burn-in: the defect is O(dt) pointwise
    # in time once the fast transient is resolved
    warm = run_linear(orthogonal_datum(mesh, ws, seed=1), 10, 0.02,
                      PARAMS, workspace=ws).states[-1].u
    maxima = []
    for dt in (0.04, 0.02):
        n = int(round(0.4 / dt))
        traj = run_linear(warm, n, dt, PARAMS, workspace=ws)
        rep = energy_budget(traj, PARAMS, ws)
        window = traj.times[1:] >= 0.2
        maxima.append(np.abs(rep.residuals["energy"][1:][window]).max())
    assert np.log2(maxima[0] / maxima[1]) >= 0.8


def test_momentum_drift_linear(mesh, ws):
    traj = run_linear(orthogonal_datum(mesh, ws, seed=2), 40, 0.05,
                      PARAMS, workspace=ws)
    rep = momentum_and_barycenter(traj, PARAMS, ws)
    scale = np.sqrt(2 * ws.kinetic_energy(traj.states[0].uvec()))
    assert rep.residuals["momentum"].max() <= 1e-10 * scale


def test_stationary_barycenter_constant(mesh, ws):
    traj = run_linear(Field.zeros(mesh, 2), 10, 0.05, PARAMS, workspace=ws)
    rep = momentum_and_barycenter(traj, PARAMS, ws)
    assert np.all(rep.barycenter == rep.barycenter[0])


def test_nonlinear_energy_residual_first_order(mesh, ws):
    from lagstokes.fixedpoint import IterationConfig, picard_solve_local
    from lagstokes.transmission import helmholtz_project

    def datum(amp):
        def profile(x, y):
            w = 1.1 - x * x - y * y
            return np.array([w * y, -w * x])
        from lagstokes import fem as _fem
        u0 = _fem.interpolate(mesh, lambda x, y: amp * profile(x, y), 2)
        u0 = project_out_rigid(u0, ws.rigid_basis(), PARAMS)
        return helmholtz_project(u0, PARAMS)[0]

    v0 = datum(0.15)
    maxima = []
    for dt in (0.1, 0.05):
        cfg = IterationConfig(dt=dt, horizon=1.0, smallness=10.0)
        traj, _ = picard_solve_local(v0, cfg, PARAMS, workspace=ws)
        rep = energy_budget(traj, PARAMS, ws)
        window = traj.times[1:] >= 0.4
        maxima.append(np.abs(rep.residuals["energy"][1:][window]).max())
    assert np.log2(maxima[0] / maxima[1]) >= 0.8


def test_equilibrium_energy_drift_bounded(mesh, ws):
    # at a rigid equilibrium the cumulative energy drift is pure roundoff,
    # far inside any O(dt^2) budget
    p = ws.rigid_basis().fields[0]
    for dt in (0.2, 0.05):
        traj = run_linear(p, int(round(2.0 / dt)), dt, PARAMS, workspace=ws)
        e = traj.diagnostics["energy"]
        assert abs(e[-1] - e[0]) <= 1e-12 * e[0]
        assert abs(e[-1] - e[0]) <= dt ** 2 * e[0]


# -- decay fit ------------------------------------------------------------------

def test_decay_fit_exact_exponential():
    t = np.arange(64) * 0.1
    rate, half = decay_fit(np.exp(-0.5 * t), 0.1)
    assert rate == pytest.approx(0.5, abs=1e-10)
    assert half <= 1e-10


def test_decay_fit_constant_series():
    rate, _ = decay_fit(np.ones(32), 0.1)
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_input_validation():
    with pytest.raises(ParameterError):
        decay_fit(np.ones(4), 0.1)
    with pytest.raises(DomainError):
        decay_fit(np.array([1.0, -1.0, 1.0, 1, 1, 1, 1, 1]), 0.1)


# -- spectrum --------------------------------------------------------------------

def test_spectrum_kernel_and_positivity(mesh, ws):
    rep = discrete_spectrum(mesh, PARAMS, 8, ws)
    assert rep.kernel_dim == 3
    nz = rep.eigenvalues[np.abs(rep.eigenvalues) > 1e-8]
    assert np.all(nz.real > 0)
    assert np.abs(rep.eigenvalues.imag).max() <= 1e-8
    assert rep.principal_angles.max() <= 1e-8
    assert rep.gap > 0


def test_spectrum_kernel_angles_on_finer_mesh():
    rep = discrete_spectrum(build_two_phase_disk(6, 24, 0.5, 1.0), PARAMS, 8)
    assert rep.kernel_dim == 3
    assert rep.principal_angles.max() <= 1e-8


def test_spectrum_count_validated(mesh, ws):
    with pytest.raises(ParameterError):
        discrete_spectrum(mesh, PARAMS, 4, ws)


def test_spectrum_shift_must_be_negative(mesh, ws):
    for sigma in (0.0, 0.1):
        with pytest.raises(ParameterError):
            discrete_spectrum(mesh, PARAMS, 8, ws, sigma=sigma)


def test_spectrum_matches_dense_pencil(mesh, ws):
    # oracle: every finite eigenvalue of the unsymmetrized saddle pencil
    # [[A, -B^T], [B, 0]] x = lam diag(M_u, 0) x by dense QZ
    rep = discrete_spectrum(mesh, PARAMS, 8, ws)
    M = np.zeros((ws.nu + ws.np_,) * 2)
    M[:ws.nu, :ws.nu] = ws.mass.toarray()
    dense = scipy.linalg.eigvals(ws.saddle(0.0).toarray(), M)
    # the pressure block of M is zero: its infinite eigenvalues may come
    # back as huge finite ones instead of inf
    dense = dense[np.isfinite(dense) & (np.abs(dense) < 1e8)]
    assert np.abs(dense.imag).max() <= 1e-10 * np.abs(dense).max()
    dense = np.sort(dense.real)[:len(rep.eigenvalues)]
    scale = np.abs(dense).max()
    assert np.abs(rep.eigenvalues - dense).max() <= 1e-10 * scale
    nonzero = np.abs(dense) > 1e-8 * scale
    assert np.all(np.abs(rep.eigenvalues[nonzero] / dense[nonzero] - 1.0) <= 1e-10)


def test_spectral_gap_converges_at_second_order():
    # the decay rate of the linearized problem under refinement; the gaps
    # are 1.046676, 0.958309, 0.937118 (observed order 2.06)
    gaps = [discrete_spectrum(build_two_phase_disk(n, 4 * n, 0.5, 1.0), PARAMS, 8).gap
            for n in (3, 6, 12)]
    order = np.log2((gaps[0] - gaps[1]) / (gaps[1] - gaps[2]))
    assert order >= 1.8
    assert 0.93 < gaps[2] < 0.94


def test_decay_rate_matches_spectral_gap(mesh, ws):
    rep = discrete_spectrum(mesh, PARAMS, 8, ws)
    dt = 0.05
    traj = run_linear(orthogonal_datum(mesh, ws, seed=3), int(round(10.0 / dt)),
                      dt, PARAMS, workspace=ws)
    vel = np.sqrt(2.0 * traj.diagnostics["energy"])
    rate, _ = decay_fit(vel, dt)
    assert abs(rate - rep.gap) <= 0.2 * rep.gap


# -- bootstrap lemma ---------------------------------------------------------------

def test_bootstrap_rb_values():
    assert bootstrap_rb(1.0).r_b == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert bootstrap_rb(3.0).r_b == pytest.approx((np.sqrt(2) - 1) / 3, abs=1e-15)
    for b in np.logspace(-3, 3, 13):
        assert abs(bootstrap_rb(b).fprime) <= 1e-12


def test_bootstrap_rb_domain():
    with pytest.raises(DomainError):
        bootstrap_rb(0.0)


def minimal_root(a, b):
    r_b = bootstrap_rb(b).r_b
    lo, hi = 0.0, r_b
    f = lambda x: a + b * x * x + b * x ** 3 - x
    assert f(lo) > 0 and f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bootstrap_check_minimal_branch_holds():
    a, b = 0.05, 1.0
    x0 = minimal_root(a, b)
    X = np.full(64, x0)
    X[0] = 0.0
    verdict = bootstrap_check(a, b, X)
    assert verdict.holds
    assert verdict.max_x <= verdict.bound


def test_bootstrap_check_rejects_bad_hypothesis():
    b = 1.0
    r_b = bootstrap_rb(b).r_b
    a_bad = r_b * (2 - b * r_b) / 3 * 1.5
    verdict = bootstrap_check(a_bad, b, np.full(8, 0.01))
    assert not verdict.hypothesis_ok
    verdict2 = bootstrap_check(0.05, b, np.full(8, 2 * r_b))   # X(0) > r_b
    assert not verdict2.hypothesis_ok


def test_bootstrap_check_reports_first_violation():
    a, b = 0.05, 1.0
    X = np.full(16, 0.01)
    X[7] = 0.2   # violates the recursion: 0.2 > a + b(0.04 + 0.008)
    verdict = bootstrap_check(a, b, X)
    assert not verdict.recursion_ok
    assert verdict.first_violation == 7


def test_lagrangian_energy_budget_uses_the_solved_viscosity(mesh, ws):
    # a tabulated viscosity equal to that of other material parameters: the
    # budget of each run takes the viscosity its trajectory was solved with
    from lagstokes import fem
    from lagstokes.fixedpoint import IterationConfig, picard_solve_local

    doubled = MaterialParams(2.0, 1.0, 0.6, 0.2)
    u0 = fem.interpolate(mesh, lambda x, y: 0.02 * (1.1 - x * x - y * y) * np.array([y, -x]), 2)
    u0 = project_out_rigid(u0, ws.rigid_basis(), PARAMS)
    cfg = IterationConfig(dt=0.05, horizon=0.2, smallness=10.0)
    tabulated, _ = picard_solve_local(u0, cfg, PARAMS,
                                      mu_nodal=Field(mesh, 1, doubled.mu_sdofs(mesh)[:, None]))
    plain, _ = picard_solve_local(u0, cfg, doubled)
    got = energy_budget(tabulated, PARAMS).csv_columns()
    ref = energy_budget(plain, doubled).csv_columns()
    assert list(got) == list(ref)
    for name in ("energy", "dissipation"):
        assert np.abs(got[name] - ref[name]).max() <= 1e-10 * np.abs(ref[name]).max(), name
    scale = np.abs(ref["dissipation"]).max()
    assert np.abs(got["residual_energy"] - ref["residual_energy"]).max() <= 1e-10 * scale
