import numpy as np
import pytest

from lagstokes import fem
from lagstokes.errors import ConvergenceError, DomainError, GeometryError, SingularityError
from lagstokes.kernel import (CofactorField, DisplacementGradient, accumulate_gradient,
                              closed_form_cofactor,
                              deformation_tensors, delta_cofactor, direct_inverse_oracle,
                              from_planes, neumann_cofactor, pushforward_normal,
                              rate_tensors, to_planes, _spectral_norms)
from lagstokes.mesh import Field, build_two_phase_disk


@pytest.fixture(scope="module")
def mesh():
    return build_two_phase_disk(3, 12, 0.5, 1.0)


def random_gradient(mesh, rng, scale):
    mats = rng.standard_normal((mesh.nsdof, 2, 2))
    mats *= scale / _spectral_norms(mats).max()
    return mats


def constant_gradient(mesh, g):
    return np.broadcast_to(np.asarray(g, dtype=float), (mesh.nsdof, 2, 2)).copy()


def identity_cofactor(mesh):
    return CofactorField(mesh, constant_gradient(mesh, np.eye(2)))


def identity_residual(A, C):
    """max over nodes of ||A (I + C) - I||."""
    return float(_spectral_norms(A.mats @ (C.mats + np.eye(2)) - np.eye(2)).max())


def minus_identity_norm(A):
    """max over nodes of ||A - I||."""
    return float(_spectral_norms(A.mats - np.eye(2)).max())


# -- accumulation ---------------------------------------------------------------

def test_accumulate_zero_gradient_leaves_c_unchanged(mesh):
    C = DisplacementGradient(mesh)
    C2 = accumulate_gradient(C, np.zeros((mesh.nsdof, 2, 2)), 0.1)
    assert np.all(C2.mats == 0.0)
    assert C2.time == pytest.approx(0.1)


def test_accumulate_constant_gradient_exact(mesh):
    g = constant_gradient(mesh, [[0.1, 0.2], [0.0, -0.1]])
    C = DisplacementGradient(mesh)
    for _ in range(4):
        C = accumulate_gradient(C, g, 0.25)
    assert np.allclose(C.mats, g, atol=1e-15)       # t = 1: C = t*G exactly
    assert C.norm_estimate >= _spectral_norms(C.mats).max() - 1e-15


def test_two_half_steps_equal_full_step(mesh):
    g = constant_gradient(mesh, [[0.0, 0.3], [0.1, 0.0]])
    full = accumulate_gradient(DisplacementGradient(mesh), g, 0.5)
    half = accumulate_gradient(DisplacementGradient(mesh), g, 0.25)
    half = accumulate_gradient(half, g, 0.25)
    assert np.array_equal(full.mats, half.mats)


def test_norm_estimate_monotone(mesh):
    rng = np.random.default_rng(0)
    C = DisplacementGradient(mesh)
    prev = 0.0
    for _ in range(5):
        C = accumulate_gradient(C, random_gradient(mesh, rng, 0.2), 0.05)
        assert C.norm_estimate >= prev
        prev = C.norm_estimate


def test_accumulate_rejects_bad_dt(mesh):
    with pytest.raises(DomainError):
        accumulate_gradient(DisplacementGradient(mesh), np.zeros((mesh.nsdof, 2, 2)), 0.0)


# -- Neumann series ---------------------------------------------------------------

def test_series_identity_at_zero(mesh):
    A = neumann_cofactor(DisplacementGradient(mesh))
    assert A.order == 0
    assert np.allclose(A.mats, identity_cofactor(mesh).mats)


def test_nilpotent_shear_terminates_at_order_one(mesh):
    C = DisplacementGradient(mesh, constant_gradient(mesh, [[0.0, 0.3], [0.0, 0.0]]))
    A = neumann_cofactor(C)
    assert A.order == 1
    expected = np.eye(2) - np.array([[0.0, 0.3], [0.0, 0.0]])
    assert np.allclose(A.mats, np.broadcast_to(expected, A.mats.shape), atol=0.0)


def test_series_matches_direct_inverse(mesh):
    rng = np.random.default_rng(42)
    C = DisplacementGradient(mesh, random_gradient(mesh, rng, 0.3))
    A = neumann_cofactor(C, tol=1e-13)
    oracle = direct_inverse_oracle(C)
    err = _spectral_norms(A.mats - oracle.mats).max() / _spectral_norms(oracle.mats).max()
    assert err <= 1e-12


def test_series_consistency_resolves_identity(mesh):
    rng = np.random.default_rng(7)
    for _ in range(50):
        C = DisplacementGradient(mesh, random_gradient(mesh, rng, 0.5))
        A = neumann_cofactor(C, tol=1e-13)
        assert identity_residual(A, C) <= 5e-13


def test_kappa_violation_raises(mesh):
    C = DisplacementGradient(mesh, constant_gradient(mesh, [[0.9, 0.0], [0.0, 0.0]]))
    with pytest.raises(GeometryError):
        neumann_cofactor(C, kappa=0.5)


def test_closed_form_cofactor_kappa_violation_raises(mesh):
    C = DisplacementGradient(mesh, constant_gradient(mesh, [[0.9, 0.0], [0.0, 0.0]]))
    with pytest.raises(GeometryError):
        closed_form_cofactor(C, kappa=0.5)
    A = closed_form_cofactor(C, kappa=0.95)
    assert np.allclose(A.mats[:, 0, 0], 1.0 / 1.9) and A.kappa == pytest.approx(0.9)


def test_max_order_exhaustion_raises(mesh):
    C = DisplacementGradient(mesh, constant_gradient(mesh, [[0.45, 0.0], [0.0, 0.0]]))
    with pytest.raises(ConvergenceError):
        neumann_cofactor(C, tol=1e-13, max_order=3)


def test_series_distance_bound_shape(mesh):
    # ||A - I|| <= ||C|| / (1 - kappa), measured constant within 10% margin
    rng = np.random.default_rng(11)
    kappa = 0.5
    for _ in range(20):
        C = DisplacementGradient(mesh, random_gradient(mesh, rng, kappa))
        A = neumann_cofactor(C)
        ratio = minus_identity_norm(A) / _spectral_norms(C.mats).max()
        assert ratio <= 1.1 / (1.0 - kappa)


# -- direct inverse oracle ----------------------------------------------------------

def test_direct_inverse_diagonal(mesh):
    C = DisplacementGradient(mesh, constant_gradient(mesh, [[0.5, 0.0], [0.0, -0.25]]))
    A = direct_inverse_oracle(C)
    assert np.allclose(A.mats[:, 0, 0], 2.0 / 3.0)
    assert np.allclose(A.mats[:, 1, 1], 4.0 / 3.0)


def test_direct_inverse_singular_node(mesh):
    mats = np.zeros((mesh.nsdof, 2, 2))
    mats[5] = -np.eye(2)       # I + C = 0 at node 5
    with pytest.raises(SingularityError) as err:
        direct_inverse_oracle(DisplacementGradient(mesh, mats))
    assert err.value.node == 5


# -- difference series ----------------------------------------------------------

def test_delta_cofactor_identical_inputs(mesh):
    rng = np.random.default_rng(3)
    C = DisplacementGradient(mesh, random_gradient(mesh, rng, 0.3))
    d = delta_cofactor(C, C)
    assert _spectral_norms(d).max() <= 1e-13


def test_delta_cofactor_from_zero(mesh):
    rng = np.random.default_rng(4)
    C0 = DisplacementGradient(mesh)
    C2 = DisplacementGradient(mesh, random_gradient(mesh, rng, 0.3))
    d = delta_cofactor(C0, C2)
    A2 = neumann_cofactor(C2)
    assert _spectral_norms(d - (A2.mats - identity_cofactor(mesh).mats)).max() <= 1e-12


def test_delta_cofactor_matches_series_difference(mesh):
    rng = np.random.default_rng(5)
    tol = 1e-13
    for _ in range(25):
        C1 = DisplacementGradient(mesh, random_gradient(mesh, rng, 0.3))
        C2 = DisplacementGradient(mesh, random_gradient(mesh, rng, 0.3))
        d = delta_cofactor(C1, C2, tol=tol)
        ref = neumann_cofactor(C2, tol=tol).mats - neumann_cofactor(C1, tol=tol).mats
        assert _spectral_norms(d - ref).max() <= 10 * tol


# -- pushforward normals ----------------------------------------------------------

def test_pushforward_identity(mesh):
    nb = pushforward_normal(identity_cofactor(mesh), mesh)
    assert np.allclose(nb.gamma, mesh.node_normals_gamma, atol=1e-15)
    assert np.allclose(nb.outer, mesh.node_normals_outer, atol=1e-15)


def test_pushforward_rotation(mesh):
    th = 0.3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A = CofactorField(mesh, np.broadcast_to(R, (mesh.nsdof, 2, 2)).copy())
    nb = pushforward_normal(A, mesh)
    assert np.allclose(nb.gamma, mesh.node_normals_gamma @ R.T, atol=1e-14)


def test_pushforward_near_identity_unit_and_parallel(mesh):
    rng = np.random.default_rng(6)
    mats = identity_cofactor(mesh).mats + 0.1 * rng.standard_normal((mesh.nsdof, 2, 2))
    A = CofactorField(mesh, mats)
    nb = pushforward_normal(A, mesh)
    assert np.allclose(np.linalg.norm(nb.gamma, axis=1), 1.0, atol=1e-14)
    gm = 0.5 * (mats[mesh.sdof_plus[mesh.gamma_nodes]]
                + mats[mesh.sdof_minus[mesh.gamma_nodes]])
    an = np.einsum("nij,nj->ni", gm, mesh.node_normals_gamma)
    cross = nb.gamma[:, 0] * an[:, 1] - nb.gamma[:, 1] * an[:, 0]
    assert np.abs(cross).max() <= 1e-13


def test_pushforward_degeneracy(mesh):
    A = CofactorField(mesh, np.zeros((mesh.nsdof, 2, 2)))
    with pytest.raises(GeometryError):
        pushforward_normal(A, mesh)


# -- deformation tensors ----------------------------------------------------------

def test_rigid_fields_have_zero_deformation(mesh):
    u = Field.from_nodal(mesh, np.column_stack([-mesh.nodes[:, 1], mesh.nodes[:, 0]]))
    t = deformation_tensors(u, identity_cofactor(mesh))
    assert np.abs(t.D).max() <= 1e-13
    assert np.abs(t.H).max() <= 1e-13


def test_identity_cofactor_collapses_tensors(mesh):
    rng = np.random.default_rng(8)
    u = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    t = deformation_tensors(u, identity_cofactor(mesh))
    assert np.abs(t.H).max() <= 1e-14
    assert np.allclose(t.Du, t.D, atol=1e-14)
    assert np.abs(t.D_tilde).max() <= 1e-14


def test_linear_field_constant_cofactor_closed_form(mesh):
    G = np.array([[0.2, -0.1], [0.4, 0.1]])
    Amat = np.array([[1.05, 0.02], [-0.03, 0.97]])
    u = Field.from_nodal(mesh, mesh.nodes @ G.T)
    A = CofactorField(mesh, np.broadcast_to(Amat, (mesh.nsdof, 2, 2)).copy())
    t = deformation_tensors(u, A)
    D_ref = G + G.T
    Du_ref = G @ Amat.T + Amat @ G.T
    H_ref = G @ (np.eye(2) - Amat.T) + (np.eye(2) - Amat) @ G.T
    assert np.allclose(t.D, np.broadcast_to(D_ref, t.D.shape), atol=1e-13)
    assert np.allclose(t.Du, np.broadcast_to(Du_ref, t.Du.shape), atol=1e-13)
    assert np.allclose(t.H, np.broadcast_to(H_ref, t.H.shape), atol=1e-13)
    assert np.allclose(t.D_tilde, np.broadcast_to(D_ref @ (np.eye(2) - Amat), t.D.shape),
                       atol=1e-13)


def strided_rate_tensors(G, A):
    """D = G + G^T and D_A = G A^T + A G^T written out entry by entry on
    the (..., 2, 2) layout: the bit oracle of the plane kernel."""
    D, Du = np.empty(G.shape), np.empty(G.shape)
    for i in range(2):
        for k in range(2):
            D[..., i, k] = G[..., i, k] + G[..., k, i]
            Du[..., i, k] = ((G[..., i, 0] * A[..., k, 0] + G[..., i, 1] * A[..., k, 1])
                             + (A[..., i, 0] * G[..., k, 0] + A[..., i, 1] * G[..., k, 1]))
    return D, Du


def bit_equal(got, ref):
    return (got.shape == ref.shape and np.array_equal(got, ref)
            and np.array_equal(np.signbit(got), np.signbit(ref)))


@pytest.mark.parametrize("shape", [(2, 2), (7, 2, 2), (3, 7, 2, 2)])
def test_rate_tensors_are_bit_equal_to_the_strided_formulas(shape):
    rng = np.random.default_rng(15)
    G, A = rng.standard_normal(shape), rng.standard_normal(shape)
    G.flat[::5] = -0.0                       # signed zeros among the entries
    A.flat[2::7] = 0.0
    d, du = (from_planes(t) for t in rate_tensors(to_planes(G), to_planes(A)))
    D_ref, Du_ref = strided_rate_tensors(G, A)
    assert bit_equal(d, D_ref)
    assert bit_equal(du, Du_ref)
    # einsum sums from a zero accumulator, so it is a value oracle only
    GAt = np.einsum("...ij,...kj->...ik", G, A)
    assert np.array_equal(du, GAt + np.swapaxes(GAt, -1, -2))


def test_deformation_tensors_are_bit_equal_to_the_strided_formulas(mesh):
    rng = np.random.default_rng(16)
    u = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    A = identity_cofactor(mesh).mats + 0.2 * rng.standard_normal((mesh.nsdof, 2, 2))
    G = fem.recover_gradient(u)
    t = deformation_tensors(u, CofactorField(mesh, A))
    ImA = -A
    ImA[:, 0, 0] += 1.0
    ImA[:, 1, 1] += 1.0
    D_ref, Du_ref = strided_rate_tensors(G, A)
    assert bit_equal(t.D, D_ref)
    assert bit_equal(t.Du, Du_ref)
    assert bit_equal(t.H, strided_rate_tensors(G, ImA)[1])
    assert np.array_equal(t.D_tilde, np.einsum("nij,njk->nik", D_ref, ImA))


def test_h_identity_for_arbitrary_fields(mesh):
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        A = CofactorField(mesh, identity_cofactor(mesh).mats
                          + 0.2 * rng.standard_normal((mesh.nsdof, 2, 2)))
        t = deformation_tensors(u, A)
        assert np.abs(t.D - t.Du - t.H).max() <= 1e-12


def test_volume_preservation_nilpotent_shear(mesh):
    # u = (c xi_2, 0): det(grad X) = det(I + tC) = 1 exactly for all t
    c = 0.7
    g = constant_gradient(mesh, [[0.0, c], [0.0, 0.0]])
    C = DisplacementGradient(mesh)
    for _ in range(8):
        C = accumulate_gradient(C, g, 0.1)
        m = C.mats
        det = (1.0 + m[:, 0, 0]) * (1.0 + m[:, 1, 1]) - m[:, 0, 1] * m[:, 1, 0]
        assert np.all(det == 1.0)


def test_gradient_recovery_exact_for_linear_fields(mesh):
    G = np.array([[1.0, 2.0], [3.0, 4.0]])
    u = Field.from_nodal(mesh, mesh.nodes @ G.T)
    rec = fem.recover_gradient(u)
    assert np.abs(rec - G).max() <= 1e-13
