"""The small-array layers of one Picard iterate: the written-out 2x2
kernels, the cofactor series' masked accumulation, the sparse-form L2 norm,
the written-out short sums, and the gradients and norms that one iterate
computes once and shares."""

import numpy as np
import pytest

from lagstokes import fem, fixedpoint, kernel
from lagstokes.fixedpoint import (IterationConfig, _lp, compute_nonlinear_terms,
                                  picard_solve_local, trajectory_norm)
from lagstokes.kernel import DisplacementGradient, _spectral_norms
from lagstokes.mesh import Field, build_two_phase_disk
from lagstokes.stepper import StokesWorkspace
from lagstokes.transmission import MaterialParams, project_out_rigid

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)
DT = 0.05


@pytest.fixture(scope="module", params=[(3, 12), (6, 24)], ids=["3x12", "6x24"])
def mesh(request):
    return build_two_phase_disk(*request.param, 0.5, 1.0)


def two_phase_stack(mesh, rng, n_steps, ncomp):
    """A random field stack whose plus and minus traces differ on Gamma."""
    plus = rng.standard_normal((n_steps, mesh.n_nodes, ncomp))
    minus = rng.standard_normal((n_steps, mesh.n_nodes, ncomp))
    return Field.stack([Field.from_phase_traces(mesh, p, m) for p, m in zip(plus, minus)])


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 2), (2, 2)),                        # single matrices
    ((7, 2, 2), (7, 2, 2)),                  # one stack
    ((3, 7, 2, 2), (3, 7, 2, 2)),            # a stack of stacks
    ((3, 7, 2, 2), (7, 2, 2)),               # broadcast (k, n) x (n)
    ((7, 2, 2), (3, 7, 2, 2)),
    ((3, 1, 2, 2), (7, 2, 2)),
])
def test_mul2x2_is_bit_equal_to_einsum(shape_a, shape_b):
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
    # the (..., 2, 2) product through the plane kernels and back
    got = kernel.from_planes(kernel.mul_planes(kernel.to_planes(a), kernel.to_planes(b)))
    assert np.array_equal(got, np.einsum("...ij,...jk->...ik", a, b))
    assert got.shape == np.broadcast_shapes(shape_a, shape_b)


@pytest.mark.parametrize("shape_m, shape_v", [
    ((2, 2), (2,)),
    ((7, 2, 2), (7, 2)),
    ((3, 7, 2, 2), (7, 2)),                  # broadcast (k, n) x (n)
    ((7, 2, 2), (3, 7, 2)),
    ((3, 7, 2, 2), (3, 7, 2)),
])
def test_apply2x2_is_bit_equal_to_einsum(shape_m, shape_v):
    rng = np.random.default_rng(2)
    m, v = rng.standard_normal(shape_m), rng.standard_normal(shape_v)
    # the (..., 2, 2) x (..., 2) product through the plane kernels and back
    got = kernel.from_vector_planes(kernel.apply_planes(kernel.to_planes(m),
                                                        kernel.vector_planes(v)))
    assert np.array_equal(got, np.einsum("...ij,...j->...i", m, v))


def with_signed_zeros(rng, shape):
    """Random entries, one row of negative zeros and one of mixed zeros."""
    out = rng.standard_normal(shape)
    out.flat[::5] = -0.0
    out[..., 0, :] = -0.0
    out[..., 1, ::2] = 0.0
    out[..., 1, 1::2] = -0.0
    return out


def bit_equal(got, ref):
    return (got.shape == ref.shape and np.array_equal(got, ref)
            and np.array_equal(np.signbit(got), np.signbit(ref)))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 1, 5, 9])
def test_short_sum_is_bit_equal_to_np_sum(n):
    # lengths 2, 3, 4 and 8 are written out; the others fall back to np.sum
    a = with_signed_zeros(np.random.default_rng(3), (3, 40, n))
    assert bit_equal(fem.short_sum(a), np.sum(a, axis=-1))
    assert bit_equal(fem.short_sum(a[1]), np.sum(a[1], axis=-1))


@pytest.mark.parametrize("shape, axis", [((85, 2), -2), ((4, 85, 1), -2), ((2, 2, 4, 85), -1)])
def test_cell_means_are_bit_equal_to_np_mean(mesh, shape, axis):
    shape = tuple(mesh.nsdof if k == 85 else k for k in shape)
    values = with_signed_zeros(np.random.default_rng(4), shape)
    values.reshape(-1)[:mesh.nsdof] = -0.0            # cells of negative zeros only
    ref = np.take(values, mesh.cell_sdofs, axis).mean(axis=axis)
    assert bit_equal(fem.cell_means(values, mesh.cell_sdofs, axis), ref)


@pytest.mark.parametrize("ncomp", [1, 2, 4])
@pytest.mark.parametrize("n_steps", [None, 1, 7])
def test_h1_seminorm_is_bit_equal_to_the_reduction(mesh, ncomp, n_steps):
    # a field's cell block is one run of 2 ncomp squares, a stack's two runs
    rng = np.random.default_rng(5)
    field = two_phase_stack(mesh, rng, n_steps or 1, ncomp)
    if n_steps is None:
        field = field[0]
    g = fem.cell_gradients(field)
    ref = np.sqrt(np.maximum(np.sum(g * g, axis=(-2, -1)) @ mesh.areas, 0.0))
    assert bit_equal(np.asarray(fem.field_h1_semi(field)), ref)
    assert bit_equal(np.asarray(fem.field_h1_semi(field, g)), ref)


def series_by_time(mats, tol=kernel.DEFAULT_SERIES_TOL):
    """The Neumann series of each time on its own, with einsum products and
    a plain running sum: the reference of the stacked, masked accumulation."""
    out, orders = [], []
    for C in mats:
        acc = np.broadcast_to(np.eye(2), C.shape).copy()
        term = acc.copy()
        order = 0
        while True:
            term = -np.einsum("nij,njk->nik", term, C)
            if _spectral_norms(term).max() < tol:
                break
            acc = acc + term
            order += 1
        out.append(acc)
        orders.append(order)
    return np.array(out), np.array(orders)


def test_masked_cofactor_sum_is_bit_equal_to_per_time_series(mesh):
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((8, mesh.nsdof, 2, 2))
    # spread the norms so that the times stop at different orders
    mats *= (np.linspace(0.01, 0.45, 8) / _spectral_norms(mats).max(axis=-1))[:, None, None, None]
    A = kernel.neumann_cofactor(DisplacementGradient(mesh, mats))
    ref, orders = series_by_time(mats)
    assert len(set(orders.tolist())) > 1
    assert np.array_equal(A.mats, ref)
    assert np.array_equal(A.orders, orders)


def cellwise_l2(field):
    """The L2 norm summed cell by cell with the P1 element mass."""
    mesh = field.mesh
    vals = field.values[..., mesh.cell_sdofs, :]          # (..., nc, 3, ncomp)
    em = (np.ones((3, 3)) + np.eye(3)) / 12.0
    sq = np.einsum("...cav,ab,...cbv->...c", vals, em, vals) @ mesh.areas
    return np.sqrt(sq)


@pytest.mark.parametrize("ncomp", [1, 2, 4])
def test_sparse_form_l2_matches_cellwise_formula(mesh, ncomp):
    rng = np.random.default_rng(4)
    stack = two_phase_stack(mesh, rng, 5, ncomp)
    assert np.abs(stack.values[:, mesh.sdof_plus[mesh.gamma_nodes]]
                  - stack.values[:, mesh.sdof_minus[mesh.gamma_nodes]]).min() > 0
    got, ref = fem.field_l2(stack), cellwise_l2(stack)
    assert got.shape == (5,)
    assert np.abs(got - ref).max() <= 1e-14 * ref.max()
    single = fem.field_l2(stack[2])
    assert isinstance(single, float) and abs(single - ref[2]) <= 1e-14 * ref[2]


def test_mass_operator_is_the_pressure_mass(mesh):
    ws = StokesWorkspace(mesh, PARAMS)
    assert ws.pressure_mass is mesh.mass_operator
    assert abs(mesh.mass_operator - mesh.mass_operator.T).max() == 0.0
    # the constant 1 integrates to the area, once per phase trace
    ones = np.ones(mesh.nsdof)
    assert abs(ones @ (mesh.mass_operator @ ones) - mesh.total_area()) <= 1e-14


def smooth_stacks(mesh, n_steps=6, amp=0.2):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u, q = [], []
    for m in range(n_steps + 1):
        s = 1.0 + 0.3 * np.sin(m)
        w = 1.1 - x * x - y * y
        u.append(Field.from_nodal(mesh, amp * s * np.column_stack([w * y + 0.2 * x * x,
                                                                   -w * x + 0.1 * x * y])))
        plus = amp * (x * x - y + m * 0.1)
        q.append(Field.from_phase_traces(mesh, plus, 0.5 * plus + 0.01))
    return Field.stack(u), Field.stack(q)


@pytest.mark.parametrize("with_rho0", [False, True])
def test_shared_gradients_give_the_same_nonlinear_terms(mesh, with_rho0):
    u, q = smooth_stacks(mesh)
    n = len(u.values) - 1
    G_c = fem.cell_gradients(u)
    G_n = fem.recover_gradient(u, G_c)
    C = DisplacementGradient(mesh)
    C.seed_left_endpoint(G_n[0])
    C_steps = kernel.accumulate_gradient(C, G_n[1:], DT)
    A = kernel.neumann_cofactor(C_steps)
    rho0 = Field(mesh, 1, (1.05 * PARAMS.eta_sdofs(mesh))[:, None]) if with_rho0 else None
    times = DT * np.arange(1, n + 1)
    own = compute_nonlinear_terms(u, q, A, PARAMS, DT, rho0=rho0, eval_time=times)
    shared = compute_nonlinear_terms(u, q, A, PARAMS, DT, rho0=rho0, eval_time=times,
                                     grads=(G_c[1:], G_n[1:]))
    for name in ("stress", "h_jump", "k", "j_gamma", "j_outer"):
        assert np.array_equal(getattr(shared, name), getattr(own, name)), name
    for name in ("g", "R") + (("f_ext",) if with_rho0 else ()):
        assert np.array_equal(getattr(shared, name).values, getattr(own, name).values), name


def test_trajectory_norm_equals_its_terms(mesh):
    u, q = smooth_stacks(mesh)
    p = 2.0
    inc = fem.field_l2(u[1:] - u[:-1]) / DT
    ref = (float(np.max(fem.field_h1(u))) + _lp(inc, DT, p)
           + _lp(fem.hessian_seminorm(u), DT, p) + _lp(fem.field_h1_semi(q), DT, p))
    assert trajectory_norm(u, q, DT, p) == ref


def test_linear_stack_norm_is_computed_once(monkeypatch):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ws = StokesWorkspace(mesh, PARAMS)
    u0 = fem.interpolate(mesh, lambda x, y: 0.02 * (1.1 - x * x - y * y) * np.array([y, -x]), 2)
    u0 = project_out_rigid(u0, ws.rigid_basis(), PARAMS)
    cfg = IterationConfig(dt=DT, horizon=0.5, smallness=10.0)
    calls = []
    original = fixedpoint.trajectory_norm
    monkeypatch.setattr(fixedpoint, "trajectory_norm",
                        lambda *args: calls.append(args) or original(*args))
    traj, rep = picard_solve_local(u0, cfg, PARAMS, workspace=ws)
    assert rep.converged and rep.horizon_halvings == 0
    assert rep.n_steps == round(cfg.horizon / cfg.dt)
    # the linear stack once, each iterate's distance, the converged ball
    assert len(calls) == 1 + rep.iterations + 1


def test_iterate_data_shares_the_gradients_of_its_own_steps(mesh):
    # the geometry takes steps 0..n of the shared Jacobians and the nonlinear
    # data steps 1..n; both equal the calls that compute their own
    u, q = smooth_stacks(mesh)
    n = len(u.values) - 1
    cfg = IterationConfig(dt=DT)
    segment = fixedpoint._Segment(StokesWorkspace(mesh, PARAMS), cfg)
    xs = np.concatenate([fem.field_to_uvec(u), q.values[..., 0]], axis=1)
    C_end, A, kappa, rhs = segment._iterate_data(xs, None)
    C_ref, A_ref, kappa_ref = fixedpoint._build_geometry(mesh, fem.recover_gradient(u), DT, cfg)
    assert np.array_equal(A.mats, A_ref.mats) and kappa == kappa_ref
    assert np.array_equal(C_end.mats, C_ref.mats)
    ref = compute_nonlinear_terms(u, q, A_ref[1:], PARAMS, DT, eval_time=DT * np.arange(1, n + 1))
    for name in ("stress", "h_jump", "k", "j_gamma", "j_outer"):
        assert np.array_equal(getattr(rhs, name), getattr(ref, name)), name
    for name in ("g", "R"):
        assert np.array_equal(getattr(rhs, name).values, getattr(ref, name).values), name
