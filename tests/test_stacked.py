"""The time-stacked nonlinear path and trajectory diagnostics against
step-by-step single-time calls, a property test of the stacked cofactor
series against its closed-form oracle, run-to-run determinism of the
global continuation, and the states of a stacked trajectory against their
per-state construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagstokes import fem, fixedpoint, kernel, snapshots
from lagstokes.diagnostics import energy_budget, momentum_and_barycenter
from lagstokes.fixedpoint import IterationConfig, compute_nonlinear_terms, global_continue
from lagstokes.kernel import DisplacementGradient, _spectral_norms
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import StokesState, StokesWorkspace, run_linear
from lagstokes.transmission import MaterialParams, _ProjectionWorkspace, project_out_rigid

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)
RTOL = 1e-12
N_STEPS = 6
DT = 0.05


def rel_err(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


def velocity_stack(mesh, amp=0.2):
    """Smooth, time-varying velocity and pressure stacks, steps 0..N_STEPS."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u, q = [], []
    for m in range(N_STEPS + 1):
        s = 1.0 + 0.3 * np.sin(m)
        w = 1.1 - x * x - y * y
        u.append(Field.from_nodal(mesh, amp * s * np.column_stack([w * y + 0.2 * x * x,
                                                                   -w * x + 0.1 * x * y])))
        plus = amp * (x * x - y + m * 0.1)
        q.append(Field.from_phase_traces(mesh, plus, 0.5 * plus + 0.01))
    return u, q


@pytest.fixture(scope="module", params=[(3, 12), (6, 24)], ids=["3x12", "6x24"])
def setup(request):
    mesh = build_two_phase_disk(*request.param, 0.5, 1.0)
    u, q = velocity_stack(mesh)
    # accumulated gradients C_0..C_n step by step, and their cofactors
    C = DisplacementGradient(mesh)
    C.seed_left_endpoint(fem.recover_gradient(u[0]))
    singles = [C]
    for m in range(1, N_STEPS + 1):
        singles.append(kernel.accumulate_gradient(singles[-1], fem.recover_gradient(u[m]), DT))
    return mesh, u, q, singles


def test_recover_gradient_stacked_matches_single(setup):
    mesh, u, _, _ = setup
    stacked = fem.recover_gradient(Field.stack(u))
    for m, field in enumerate(u):
        assert rel_err(stacked[m], fem.recover_gradient(field)) <= RTOL


def test_accumulate_gradient_stacked_equals_chain(setup):
    mesh, u, _, singles = setup
    grads = fem.recover_gradient(Field.stack(u))
    stacked = kernel.accumulate_gradient(singles[0], grads[1:], DT)
    for m in range(1, N_STEPS + 1):
        assert np.array_equal(stacked.mats[m - 1], singles[m].mats)
        assert stacked.norm_estimate[m - 1] == singles[m].norm_estimate
    last = stacked.last()
    assert np.array_equal(last.mats, singles[-1].mats)
    assert np.array_equal(last._last_grad, singles[-1]._last_grad)


def test_neumann_cofactor_stacked_matches_single(setup):
    mesh, _, _, singles = setup
    stack = DisplacementGradient(mesh, np.stack([C.mats for C in singles]))
    A = kernel.neumann_cofactor(stack)
    assert A.orders.shape == (N_STEPS + 1,)
    for m, C in enumerate(singles):
        ref = kernel.neumann_cofactor(C)
        assert rel_err(A.mats[m], ref.mats) <= RTOL
        assert A.orders[m] == ref.order
        assert A.kappas[m] == ref.kappa
    # the steps stop at different orders, and the totals add up
    assert len(set(A.orders.tolist())) > 1
    assert A.order == sum(kernel.neumann_cofactor(C).order for C in singles)


def test_compute_nonlinear_terms_stacked_matches_single(setup):
    mesh, u, q, singles = setup
    A = kernel.neumann_cofactor(DisplacementGradient(mesh, np.stack([C.mats for C in singles])))
    rho0 = Field(mesh, 1, (1.05 * PARAMS.eta_sdofs(mesh))[:, None])
    times = DT * np.arange(1, N_STEPS + 1)
    stacked = compute_nonlinear_terms(Field.stack(u), Field.stack(q), A[1:], PARAMS, DT,
                                      rho0=rho0, eval_time=times)
    for m in range(1, N_STEPS + 1):
        single = compute_nonlinear_terms(u[:m + 1], q[:m + 1], kernel.neumann_cofactor(singles[m]),
                                         PARAMS, DT, rho0=rho0, eval_time=times[m - 1])
        for name in ("stress", "h_jump", "k", "j_gamma", "j_outer"):
            assert rel_err(getattr(stacked, name)[m - 1], getattr(single, name)) <= RTOL, name
        for name in ("g", "R", "f_ext"):
            assert rel_err(getattr(stacked, name).values[m - 1],
                           getattr(single, name).values) <= RTOL, name


@settings(max_examples=30, deadline=None)
@given(n_radial=st.integers(2, 4), n_angular=st.integers(8, 20),
       n_steps=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.0, 0.45))
def test_stacked_cofactor_matches_oracle(n_radial, n_angular, n_steps, seed, scale):
    mesh = build_two_phase_disk(n_radial, n_angular, 0.5, 1.0)
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((n_steps, mesh.nsdof, 2, 2))
    norms = _spectral_norms(mats).max(axis=-1)
    mats *= (scale * rng.uniform(0.0, 1.0, n_steps) / norms)[:, None, None, None]
    A = kernel.neumann_cofactor(DisplacementGradient(mesh, mats))
    for m in range(n_steps):
        oracle = kernel.direct_inverse_oracle(DisplacementGradient(mesh, mats[m]))
        err = _spectral_norms(A.mats[m] - oracle.mats).max() / _spectral_norms(oracle.mats).max()
        assert err <= 1e-12


def test_closed_form_cofactor_matches_the_series(setup):
    # the continuation's cofactor against the paper's series on the stacked
    # accumulated gradients; it shares its inverse with the oracle, bit for bit
    mesh, _, _, singles = setup
    C = DisplacementGradient(mesh, np.stack([c.mats for c in singles]))
    A = kernel.closed_form_cofactor(C)
    series = kernel.neumann_cofactor(C)
    assert rel_err(A.mats, series.mats) <= 1e-13
    assert np.array_equal(A.kappas, series.kappas) and A.orders.tolist() == [-1] * len(singles)
    for m, c in enumerate(singles):
        assert np.array_equal(A.mats[m], kernel.direct_inverse_oracle(c).mats)


def test_global_continue_csvs_byte_identical(tmp_path):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    u0 = fem.interpolate(mesh, lambda x, y: 0.02 * (1.1 - x * x - y * y) * np.array([y, -x]), 2)
    u0 = project_out_rigid(u0, ws.rigid_basis(), PARAMS)
    cfg = IterationConfig(dt=DT, horizon=1.5, smallness=10.0)
    payloads = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        out.mkdir()
        traj, rep = global_continue(u0, cfg, PARAMS, workspace=ws)
        cols = energy_budget(traj, PARAMS, ws).csv_columns()
        cols.update((k, v) for k, v in momentum_and_barycenter(traj, PARAMS, ws).csv_columns().items()
                    if k != "time")
        snapshots.write_csv(out / "diagnostics.csv", cols)
        snapshots.write_csv(out / "x_report.csv", {"time": rep.times, "x": rep.x_values,
                                                   "bound": np.full(len(rep.times), rep.bound)})
        payloads.append([(out / name).read_bytes() for name in ("diagnostics.csv", "x_report.csv")])
    assert payloads[0] == payloads[1]


def _per_state_budgets(traj, ws):
    """Energy, dissipation, rigid momenta and barycenter state by state: the
    loop reference for the batched diagnostics."""
    mesh = ws.mesh
    eta_c, mu_c = PARAMS.eta_cells(mesh), PARAMS.mu_cells(mesh)
    w_eta = mesh.areas * eta_c / 3.0
    basis = ws.rigid_basis()
    energy, dissip, momenta, bary = [], [], [], []
    for i, s in enumerate(traj.states):
        v = s.uvec()
        energy.append(0.5 * v @ (ws.mass @ v))
        flux = np.einsum("c,cav->v", w_eta, s.u.values[mesh.cell_sdofs])
        if traj.cofactors is None:
            dissip.append(v @ (ws.stiffness @ v))
            momenta.append([fem.field_to_uvec(p) @ (ws.mass @ v) for p in basis.fields])
            bary.append(np.einsum("c,cav->v", w_eta, mesh.nodes[mesh.cells]) if i == 0
                        else bary[-1] + 0.5 * traj.dt * (prev_flux + flux))
        else:
            G = fem.cell_gradients(s.u)
            Ac = traj.cofactors[i][mesh.cell_sdofs].mean(axis=1)
            Du = np.einsum("cij,ckj->cik", G, Ac) + np.einsum("cij,ckj->cik", Ac, G)
            dissip.append(0.5 * (mesh.areas * mu_c) @ np.einsum("cij,cij->c", Du, Du))
            X = traj.lagrangian_maps[i]
            momenta.append([fem.field_inner(s.u, Field.from_nodal(mesh, X @ A.T + b), eta_c)
                            for A, b in basis.coeffs])
            bary.append(np.einsum("c,cav->v", w_eta, X[mesh.cells]))
        prev_flux = flux
    return np.array(energy), np.array(dissip), np.array(momenta), np.array(bary)


@pytest.mark.parametrize("path", ["linear", "lagrangian"])
def test_batched_budgets_match_per_state_loops(path):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    u0 = fem.interpolate(mesh, lambda x, y: 0.02 * (1.1 - x * x - y * y) * np.array([y, -x]), 2)
    u0 = project_out_rigid(u0, ws.rigid_basis(), PARAMS)
    if path == "linear":      # more states than one block of the batched evaluation
        traj = run_linear(u0, 3 * fem.STACK_BLOCK, DT, PARAMS, workspace=ws, keep_every=1)
    else:
        traj, _ = global_continue(u0, IterationConfig(dt=DT, horizon=1.5, smallness=10.0),
                                  PARAMS, workspace=ws)
    energy, dissip, momenta, bary = _per_state_budgets(traj, ws)
    eb = energy_budget(traj, PARAMS, ws)
    mb = momentum_and_barycenter(traj, PARAMS, ws)
    assert len(traj.states) > fem.STACK_BLOCK
    assert rel_err(eb.energy, energy) <= RTOL
    assert rel_err(eb.dissipation, dissip) <= RTOL
    # the momenta of a rigid-free datum sit at roundoff: compare on the velocity scale
    assert np.abs(mb.momenta - momenta).max() <= RTOL * np.sqrt(2.0 * energy.max())
    # the droplet is centred at the origin: compare on the scale of int eta |x|
    eta_mass = mesh.areas @ PARAMS.eta_cells(mesh)
    assert np.abs(mb.barycenter - bary).max() <= RTOL * eta_mass
    if path == "linear":
        assert rel_err(traj.diagnostics["energy"], energy) <= RTOL
        assert rel_err(traj.diagnostics["dissipation"], dissip) <= RTOL


@pytest.mark.parametrize("path", ["linear", "lagrangian"])
def test_budgets_from_stored_series_equal_recomputed(path):
    # with the solver's own workspace the budgets reuse the trajectory's stored
    # velocity stack and series; a fresh workspace recomputes them from the
    # stack, and both give the same bits
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    u0 = fem.interpolate(mesh, lambda x, y: 0.02 * (1.1 - x * x - y * y) * np.array([y, -x]), 2)
    u0 = project_out_rigid(u0, ws.rigid_basis(), PARAMS)
    if path == "linear":
        traj = run_linear(u0, 30, DT, PARAMS, workspace=ws, keep_every=1)
    else:
        traj, _ = global_continue(u0, IterationConfig(dt=DT, horizon=1.5, smallness=10.0),
                                  PARAMS, workspace=ws)
    assert traj.workspace is ws and traj.uvecs.shape == (len(traj.states), ws.nu)
    fresh = StokesWorkspace(mesh, PARAMS)
    assert traj.series("energy", fresh, lambda vecs: None) is None
    for budget in (energy_budget, momentum_and_barycenter):
        reused = budget(traj, PARAMS, ws).csv_columns()
        recomputed = budget(traj, PARAMS, fresh).csv_columns()
        assert list(reused) == list(recomputed)
        for name in reused:
            assert np.array_equal(reused[name], recomputed[name]), name


# -- the states of a stacked trajectory --------------------------------------------

def _swirl(mesh, ws):
    u0 = fem.interpolate(mesh, lambda x, y: 0.02 * (1.1 - x * x - y * y) * np.array([y, -x]), 2)
    return project_out_rigid(u0, ws.rigid_basis(), PARAMS)


def _assert_same_state(got, ref, t=None):
    assert np.array_equal(got.u.values, ref.u.values)
    assert np.array_equal(got.q.values, ref.q.values)
    assert np.array_equal(got.bubble, ref.bubble)
    assert got.t == (ref.t if t is None else t)


def _assert_states_match(traj, oracle, times):
    """Every state, the last one by a negative index, and a slice of
    ``traj.states`` equal the per-state ``oracle``; each state's time is
    ``times[m]``."""
    view = traj.states
    assert len(view) == len(oracle) == len(times)
    for m in range(len(oracle)):
        _assert_same_state(view[m], oracle[m], times[m])
    _assert_same_state(view[-1], oracle[-1], times[-1])
    picked = slice(2, 9, 3)
    assert len(view[picked]) == len(oracle[picked]) == 3
    for got, ref, t in zip(view[picked], oracle[picked], times[picked]):
        _assert_same_state(got, ref, t)


def test_linear_states_equal_per_state_construction():
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    u0 = _swirl(mesh, ws)
    n_steps, nu, nn = 3 * fem.STACK_BLOCK, ws.nu, mesh.n_nodes
    bubble0 = 1e-3 * np.random.default_rng(3).standard_normal(nu - 2 * nn)
    traj = run_linear(u0, n_steps, DT, PARAMS, workspace=ws, bubble0=bubble0, keep_every=1)
    # the former run_linear: state 0 from the datum, the others built from
    # the rows of the march's solution stack
    state0 = StokesState(u0, Field.zeros(mesh, 1), 0.0, bubble=bubble0)
    xs = ws.march(DT, np.concatenate([state0.uvec(), np.zeros(ws.np_)]), n_steps)
    times = DT * np.arange(n_steps + 1)
    oracle = [state0] + [
        StokesState(fem.uvec_to_field(mesh, xs[m, :nu]), Field(mesh, 1, xs[m, nu:, None]),
                    float(times[m]), bubble=xs[m, 2 * nn:nu])
        for m in range(1, n_steps + 1)]
    assert np.array_equal(traj.times, times)
    _assert_states_match(traj, oracle, times)


def test_global_states_equal_joined_segment_states(monkeypatch):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    nu = ws.nu
    segments, solve = [], fixedpoint._Segment.solve

    def recording_solve(segment, x0):
        result = solve(segment, x0)
        segments.append((segment.t0, *result[:3]))
        return result

    monkeypatch.setattr(fixedpoint._Segment, "solve", recording_solve)
    traj, _ = global_continue(_swirl(mesh, ws), IterationConfig(dt=DT, horizon=1.5, smallness=10.0),
                              PARAMS, workspace=ws)
    assert len(segments) > 1
    # a later segment starts from the previous segment's last velocity and
    # bubbles, with zero pressure
    for (_, prev, _, _), (_, xs, _, _) in zip(segments, segments[1:]):
        assert np.array_equal(xs[0, :nu], prev[-1, :nu]) and not xs[0, nu:].any()
    # the former global_continue: each segment's per-state list, built from
    # its solution stack, joined without each later segment's first state
    oracle = []
    for t0, xs, _, _ in segments:
        seg_states = [StokesState.from_uvec(mesh, xs[m, :nu], Field(mesh, 1, xs[m, nu:, None]),
                                            t0 + m * DT)
                      for m in range(len(xs))]
        oracle.extend(seg_states if not oracle else seg_states[1:])
    assert len(traj.times) == round(1.5 / DT) + 1
    cofactors = [seg[2] for seg in segments]
    maps = [seg[3] for seg in segments]
    assert np.array_equal(traj.cofactors,
                          np.concatenate([cofactors[0]] + [c[1:] for c in cofactors[1:]]))
    assert np.array_equal(traj.lagrangian_maps,
                          np.concatenate([maps[0]] + [x[1:] for x in maps[1:]]))
    # a joined state's time is the trajectory's own; the segment's
    # t0 + m dt may differ from it in the last bit
    assert np.allclose([s.t for s in oracle], traj.times, rtol=1e-15, atol=0.0)
    _assert_states_match(traj, oracle, traj.times)


def test_global_continuation_projects_its_datum_once(monkeypatch):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    u0 = _swirl(mesh, ws)
    calls, project = [], _ProjectionWorkspace.project
    monkeypatch.setattr(_ProjectionWorkspace, "project",
                        lambda self, fvec: calls.append(fvec) or project(self, fvec))
    global_continue(u0, IterationConfig(dt=DT, horizon=1.5, smallness=10.0), PARAMS, workspace=ws)
    assert len(calls) == 1


@pytest.mark.parametrize("path", ["linear", "lagrangian"])
def test_len_mesh_and_budgets_build_no_state(path, monkeypatch):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    u0 = _swirl(mesh, ws)
    if path == "linear":
        traj = run_linear(u0, 30, DT, PARAMS, workspace=ws, keep_every=1)
    else:
        traj, _ = global_continue(u0, IterationConfig(dt=DT, horizon=1.5, smallness=10.0),
                                  PARAMS, workspace=ws)
    built = []
    from_uvec = StokesState.from_uvec

    def counting(cls, *args, **kwargs):
        built.append(args[-1])
        return from_uvec(*args, **kwargs)

    monkeypatch.setattr(StokesState, "from_uvec", classmethod(counting))
    assert len(traj.states) == len(traj.times) and traj.mesh is mesh
    for workspace in (ws, StokesWorkspace(mesh, PARAMS)):
        energy_budget(traj, PARAMS, workspace)
        momentum_and_barycenter(traj, PARAMS, workspace)
    assert built == []
    traj.states[3]
    traj.states[1:4]
    assert built == [traj.times[m] for m in (3, 1, 2, 3)]
