"""The backward-Euler march with pipelined refinement, its two step loops,
and its stream of blocks."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagstokes import fem, stepper
from lagstokes.errors import ParameterError, SolverError, StateLookupError
from lagstokes.fixedpoint import NonlinearRHS, _momentum_rhs, _solve_correction
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import StokesData, StokesState, StokesWorkspace, run_linear, step_linear
from lagstokes.transmission import MaterialParams, project_out_rigid

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)
N_STEPS = 12
DTS = (1e-3, 0.05, 1.0)


MESHES, MESH_IDS = [(3, 12), (6, 24), (12, 48)], ["3x12", "6x24", "12x48"]


@pytest.fixture(scope="module", params=MESHES, ids=MESH_IDS)
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
@pytest.mark.parametrize("ws", MESHES + [(2, 40), (2, 48)], ids=MESH_IDS + ["2x40", "2x48"],
                         indirect=True)
def test_every_delivered_step_is_refined(ws, dt):
    # each step against the right-hand side built from the delivered previous
    # step: the componentwise backward error of a refined solve is a few units
    # of roundoff, which neither an unrefined step nor a refinement against the
    # unrefined previous state reaches on every mesh and dt; 2x40 and 2x48, two
    # radial layers per phase, march on the unpivoted SuperLU core
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
    xs = _solve_correction(ws, dt, rhs)

    # the per-step loop: one refined solve per step from the previous state
    loads = _momentum_rhs(ws, rhs)
    div = fem.apply_sparse(ws.pressure_mass, rhs.g.values[..., 0], -1)
    lu = ws.step_factorization(dt)
    ref_u = np.zeros((n + 1, ws.nu))
    ref_q = np.zeros((n + 1, ws.np_))
    for m in range(n):
        sol = lu.solve(np.concatenate([ws.mass @ ref_u[m] / dt + loads[m], div[m]]))
        ref_u[m + 1], ref_q[m + 1] = sol[:ws.nu], sol[ws.nu:]
    assert rel_err(xs[:, :ws.nu], ref_u) <= 1e-13
    assert rel_err(xs[:, ws.nu:], ref_q) <= 1e-13


def test_march_satisfies_the_discrete_energy_identity(ws):
    # testing the momentum row of step m + 1 with u_{m+1}, whose divergence
    # vanishes, gives E_{m+1} - E_m + 1/2 |u_{m+1} - u_m|_M^2 + dt a(u_{m+1}) = 0
    dt = 0.05
    x0 = np.random.default_rng(17).standard_normal(ws.nu + ws.np_)
    u = ws.march(dt, x0, 30)[:, :ws.nu]
    energy = ws.kinetic_energy(u)
    defect = (energy[1:] - energy[:-1] + ws.kinetic_energy(u[1:] - u[:-1])
              + dt * ws.dissipation(u[1:]))
    # the first step projects the divergent datum; its defect carries the
    # pressure work
    assert np.abs(defect[1:]).max() / energy[1] <= 2e-14


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
    traj = run_linear(u0, N_STEPS, 0.05, PARAMS, data=data, workspace=ws, bubble0=bubble0,
                      keep_every=1)

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


# -- the stream of blocks -----------------------------------------------------------

@pytest.mark.parametrize("loaded", [False, True], ids=["zero", "loaded"])
@pytest.mark.parametrize("n_steps", [0, 1, 24, 25, 26, 50, 76])
def test_blocks_concatenate_to_the_march(ws, n_steps, loaded):
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((n_steps, ws.nu + ws.np_))
    load = (lambda m: loads[m]) if loaded else None
    # each block is copied as it comes: the next block reuses its buffer
    blocks = [(start, rows.copy()) for start, rows in ws.march_blocks(0.05, x0, n_steps, load)]
    starts = [start for start, _ in blocks]
    ends = [start + len(rows) for start, rows in blocks]
    assert starts == [0] + ends[:-1] and ends[-1] == n_steps + 1
    assert all(start % fem.STACK_BLOCK == 0 for start in starts)
    assert all(len(rows) <= fem.STACK_BLOCK + 1 for _, rows in blocks)
    if n_steps > 0:
        assert all(len(rows) > 1 for _, rows in blocks)
    stack = np.concatenate([rows for _, rows in blocks])
    assert np.array_equal(stack, ws.march(0.05, x0, n_steps, load))


def test_march_blocks_checks_its_arguments_when_called(ws):
    x0 = np.zeros(ws.nu + ws.np_)
    with pytest.raises(ParameterError):
        ws.march_blocks(0.05, x0, -1)
    with pytest.raises(ParameterError):
        ws.march_blocks(0.0, x0, 3)


def _swirl(mesh, ws):
    u0 = fem.interpolate(mesh, lambda x, y: 0.02 * (1.1 - x * x - y * y) * np.array([y, -x]), 2)
    return project_out_rigid(u0, ws.rigid_basis(), PARAMS)


@pytest.mark.parametrize("n_steps", [0, 1, 25, 50])
def test_kept_states_and_series_do_not_depend_on_keep_every(ws, n_steps):
    u0 = _swirl(ws.mesh, ws)
    bubble0 = 1e-3 * np.random.default_rng(12).standard_normal(ws.nu - 2 * ws.mesh.n_nodes)
    runs = {keep: run_linear(u0, n_steps, 0.05, PARAMS, workspace=ws, bubble0=bubble0,
                             keep_every=keep)
            for keep in (None, 1, 7)}
    full = runs[1]
    assert full.steps is None and len(full.uvecs) == n_steps + 1
    # the series reduced block by block are those of the whole stack
    for name, reduce in (("energy", ws.kinetic_energy), ("dissipation", ws.dissipation),
                         ("momenta", ws.momentum), ("flux", ws.flux)):
        assert np.array_equal(full.diagnostics[name], reduce(full.uvecs)), name
    for keep, traj in runs.items():
        assert np.array_equal(traj.times, full.times) and traj.dt == full.dt
        assert list(traj.diagnostics) == ["energy", "dissipation", "momenta", "flux"]
        for name, series in full.diagnostics.items():
            assert np.array_equal(traj.diagnostics[name], series), (keep, name)
        held = range(n_steps + 1) if traj.steps is None else traj.steps
        expected = sorted({*range(0, n_steps + 1, keep or n_steps + 1), n_steps})
        assert list(held) == expected
        assert np.array_equal(traj.uvecs, full.uvecs[expected])
        assert np.array_equal(traj.q.values, full.q.values[expected])
        for m in held:
            state, ref = traj.states[m], full.states[m]
            assert np.array_equal(state.uvec(), ref.uvec())
            assert np.array_equal(state.q.values, ref.q.values) and state.t == ref.t
        assert np.array_equal(traj.states[-1].uvec(), full.uvecs[-1])


def test_partial_trajectory_refuses_what_it_does_not_hold(ws):
    traj = run_linear(_swirl(ws.mesh, ws), 20, 0.05, PARAMS, workspace=ws, keep_every=7)
    assert traj.steps.tolist() == [0, 7, 14, 20] and len(traj.states) == 21
    for m in (1, 6, 19, -2):
        with pytest.raises(StateLookupError):
            traj.states[m]
    with pytest.raises(StateLookupError):
        traj.states[0:3]
    assert traj.series("energy", ws, None) is traj.diagnostics["energy"]
    with pytest.raises(StateLookupError):
        traj.series("energy", StokesWorkspace(ws.mesh, PARAMS), ws.kinetic_energy)
    with pytest.raises(ParameterError):
        run_linear(_swirl(ws.mesh, ws), 20, 0.05, PARAMS, workspace=ws, keep_every=0)


def test_stream_holds_no_solution_stack():
    mesh = build_two_phase_disk(12, 48, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    n_steps, dt = 200, 0.05
    u0 = _swirl(mesh, ws)
    ws.step_factorization(dt)
    tracemalloc.start()
    try:
        traj = run_linear(u0, n_steps, dt, PARAMS, workspace=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack_bytes = (n_steps + 1) * (ws.nu + ws.np_) * 8
    assert traj.steps.tolist() == [0, n_steps]
    assert peak < stack_bytes / 3, peak / stack_bytes


# -- the two step loops -------------------------------------------------------------

def force_loop(monkeypatch, kind):
    """Run every march on one loop: the gate's choice, and for two threads
    no check of the CPU time."""
    monkeypatch.setattr(stepper, "step_loop", lambda lu: kind)
    if kind == "two-thread":
        monkeypatch.setattr(stepper, "_CHECK_EVERY", 10**9)


def fall_back_after(monkeypatch, steps, parallelism=0.0):
    """Let the gate allow two threads, check every ``steps`` steps and report
    ``parallelism`` CPUs' worth of time; return the list that records the
    step the pair loop starts at."""
    monkeypatch.setattr(stepper, "step_loop", lambda lu: "two-thread")
    monkeypatch.setattr(stepper, "_CHECK_EVERY", steps)
    ticks = itertools.count()

    def clocks():
        wall = float(next(ticks))
        return wall, parallelism * wall

    monkeypatch.setattr(stepper, "_clocks", clocks)
    starts, pair = [], stepper._Chains.pair

    def recorded(chains, m0, m1):
        starts.append(m0)
        return pair(chains, m0, m1)

    monkeypatch.setattr(stepper._Chains, "pair", recorded)
    return starts


@pytest.mark.parametrize("loaded", [False, True], ids=["zero", "loaded"])
@pytest.mark.parametrize("dt", DTS)
def test_two_thread_loop_is_bit_equal_to_the_pair_loop(ws, dt, loaded, monkeypatch):
    n_steps = 60                               # three blocks
    rng = np.random.default_rng(15)
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((n_steps, ws.nu + ws.np_))
    load = (lambda m: loads[m]) if loaded else None
    runs = []
    for kind in ("pair", "two-thread"):
        force_loop(monkeypatch, kind)
        blocks = [(start, rows.copy()) for start, rows in ws.march_blocks(dt, x0, n_steps, load)]
        runs.append((blocks, ws.march(dt, x0, n_steps, load)))
    (pair_blocks, pair), (thread_blocks, threaded) = runs
    assert [start for start, _ in thread_blocks] == [start for start, _ in pair_blocks]
    for (_, a), (_, b) in zip(thread_blocks, pair_blocks):
        assert np.array_equal(a, b)
    assert np.array_equal(threaded, pair)


@pytest.mark.parametrize("kind", ["pair", "two-thread"])
@pytest.mark.parametrize("bad_step", [0, 3, 5])
def test_non_finite_load_raises_on_either_loop(ws, kind, bad_step, monkeypatch):
    # past step 0 the NaN reaches the worker's solve first on the two-thread
    # loop, and its SolverError is raised in the caller
    force_loop(monkeypatch, kind)
    before = threading.active_count()

    def load(m):
        ld = np.zeros(ws.nu + ws.np_)
        ld[0] = np.nan if m == bad_step else 1.0
        return ld

    with pytest.raises(SolverError):
        ws.march(0.05, np.zeros(ws.nu + ws.np_), 6, load)
    assert threading.active_count() == before


def test_closing_the_stream_joins_the_worker(ws, monkeypatch):
    force_loop(monkeypatch, "two-thread")
    before = threading.active_count()
    blocks = ws.march_blocks(0.05, np.ones(ws.nu + ws.np_), 60)
    assert threading.active_count() == before     # no thread before the first block
    start, rows = next(blocks)
    assert start == 0 and len(rows) == fem.STACK_BLOCK
    assert threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before


def test_load_error_on_the_worker_is_raised_in_the_caller(ws, monkeypatch):
    force_loop(monkeypatch, "two-thread")
    before = threading.active_count()

    def load(m):
        if m == 30:
            raise KeyError(m)
        return np.zeros(ws.nu + ws.np_)

    blocks = ws.march_blocks(0.05, np.ones(ws.nu + ws.np_), 60, load)
    next(blocks)
    with pytest.raises(KeyError):
        next(blocks)
    assert threading.active_count() == before


def test_two_thread_loop_under_thread_switching_stress(monkeypatch):
    # more threads than cores on one shared factor, a thread switch every
    # microsecond and the smallest ring: a worker that overwrote a slot still
    # being read, or a hand-over out of order, would change the bits
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    rng = np.random.default_rng(16)
    n_steps = 60
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((n_steps, ws.nu + ws.np_))
    expected = ws.march(0.05, x0, n_steps, lambda m: loads[m])
    force_loop(monkeypatch, "two-thread")
    monkeypatch.setattr(stepper, "_HANDOFF_DEPTH", 1)
    results = [None] * 3

    def run(i):
        results[i] = ws.march(0.05, x0, n_steps, lambda m: loads[m])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for xs in results:
        assert np.array_equal(xs, expected)


@pytest.mark.parametrize("steps", [1, 2, 7, 24])
def test_falling_back_at_any_step_keeps_the_bits(ws, steps, monkeypatch):
    n_steps = 60
    rng = np.random.default_rng(18)
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((n_steps, ws.nu + ws.np_))
    force_loop(monkeypatch, "pair")
    expected = ws.march(0.05, x0, n_steps, lambda m: loads[m])
    before = threading.active_count()
    starts = fall_back_after(monkeypatch, steps)
    assert np.array_equal(ws.march(0.05, x0, n_steps, lambda m: loads[m]), expected)
    assert starts == [1 + steps]
    assert threading.active_count() == before


@pytest.mark.parametrize("parallelism, start", [(1.6, 60), (2.0, 60), (1.4, 8)])
def test_two_thread_loop_runs_while_the_process_has_the_cpus(ws, parallelism, start,
                                                             monkeypatch):
    # the pair loop takes over only below _MIN_PARALLELISM CPUs
    assert stepper._MIN_PARALLELISM == 1.5
    starts = fall_back_after(monkeypatch, 7, parallelism)
    ws.march(0.05, np.ones(ws.nu + ws.np_), 60)
    assert starts == [start]


@pytest.fixture(scope="module")
def large_ws():
    """24x96, whose step factor the gate gives two threads."""
    return StokesWorkspace(build_two_phase_disk(24, 96, 0.5, 1.0), PARAMS)


def test_loops_keep_the_bits_above_the_gate(large_ws, monkeypatch):
    # the sizes where the two-thread loop runs: a one-column solve there must
    # give its column of the two-column solve
    ws, n_steps = large_ws, 30
    rng = np.random.default_rng(20)
    x0 = rng.standard_normal(ws.nu + ws.np_)
    loads = rng.standard_normal((n_steps, ws.nu + ws.np_))
    assert ws.step_factorization(0.05).fill >= stepper.TWO_THREAD_MIN_FILL
    force_loop(monkeypatch, "pair")
    expected = ws.march(0.05, x0, n_steps, lambda m: loads[m])
    force_loop(monkeypatch, "two-thread")
    assert np.array_equal(ws.march(0.05, x0, n_steps, lambda m: loads[m]), expected)
    starts = fall_back_after(monkeypatch, 7)
    assert np.array_equal(ws.march(0.05, x0, n_steps, lambda m: loads[m]), expected)
    assert starts == [8]


def test_step_loop_gate(large_ws, monkeypatch):
    large = large_ws
    small = StokesWorkspace(build_two_phase_disk(3, 12, 0.5, 1.0), PARAMS)
    large_lu, small_lu = large.step_factorization(0.05), small.step_factorization(0.05)
    assert small_lu.fill < stepper.TWO_THREAD_MIN_FILL <= large_lu.fill
    for cpus, expected in ((2, "two-thread"), (1, "pair")):
        monkeypatch.setattr(stepper, "usable_cpus", lambda cpus=cpus: cpus)
        assert stepper.step_loop(large_lu) == expected
        assert stepper.step_loop(small_lu) == "pair"


def test_usable_cpus_is_the_affinity_set():
    import os
    cpus = stepper.usable_cpus()
    assert cpus >= 1
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))
