"""The MINI assembly and the bubble condensation against their written-out
einsum and identity-product forms, bit for bit.

The benchmark's energy checks sit at the roundoff floor of a 200-step march,
so a re-association of any assembled matrix is a visible change.  Every
matrix here must equal its oracle in ``indptr``, ``indices`` and ``data``:
same pattern, same in-row order (which fixes the summation order of every
product with it) and same values.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from lagstokes import fem
from lagstokes.fem import _QL, _QW, _cell_udofs, _scatter, n_udofs
from lagstokes.mesh import build_two_phase_disk
from lagstokes.stepper import StokesWorkspace
from lagstokes.transmission import MaterialParams

PARAMS = MaterialParams(2.0, 1.0, 0.3, 0.1)


@pytest.fixture(scope="module", params=[(3, 12), (6, 24), (12, 48)],
                ids=["3x12", "6x24", "12x48"])
def mesh(request):
    return build_two_phase_disk(*request.param, 0.5, 1.0)


def _cell_mu(mesh):
    centroids = mesh.nodes[mesh.cells].mean(axis=1)
    return 0.2 + 0.1 * np.hypot(*centroids.T)


def assert_same_csr(got, want):
    assert got.format == "csr" and want.format == "csr"
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()       # signs of zero too


# -- the oracles: the einsum and identity-product forms ----------------------

def oracle_velocity_mass(mesh, weight_per_cell):
    em = np.einsum("q,qa,qb->ab", _QW, fem._NVALS, fem._NVALS)
    vals = weight_per_cell[:, None, None] * mesh.areas[:, None, None] * em[None]
    dofs = _cell_udofs(mesh)
    n = n_udofs(mesh)
    blocks = []
    for comp in range(2):
        r = np.broadcast_to(dofs[:, :, comp][:, :, None], vals.shape)
        c = np.broadcast_to(dofs[:, :, comp][:, None, :], vals.shape)
        blocks.append(_scatter(r, c, vals, (n, n)))
    return (blocks[0] + blocks[1]).tocsr()


def oracle_deformation_stiffness(mesh, mu_per_cell):
    dN = fem._basis_grads(mesh)
    s1 = np.einsum("q,cqaj,cqbj->cab", _QW, dN, dN) * mesh.areas[:, None, None]
    s2 = np.einsum("q,cqam,cqbi->cambi", _QW, dN, dN) * mesh.areas[:, None, None, None, None]
    dofs = _cell_udofs(mesh)
    n = n_udofs(mesh)
    out = sp.csr_matrix((n, n))
    for i in range(2):
        for m in range(2):
            vals = mu_per_cell[:, None, None] * ((s1 if i == m else 0.0) + s2[:, :, m, :, i])
            r = np.broadcast_to(dofs[:, :, i][:, :, None], vals.shape)
            c = np.broadcast_to(dofs[:, :, m][:, None, :], vals.shape)
            out = out + _scatter(r, c, vals, (n, n))
    return out.tocsr()


def oracle_div_coupling(mesh, cell_scalar_dofs, n_scalar):
    dN = fem._basis_grads(mesh)
    e = np.einsum("q,qs,cqbj->csbj", _QW, _QL, dN) * mesh.areas[:, None, None, None]
    dofs = _cell_udofs(mesh)
    n = n_udofs(mesh)
    out = sp.csr_matrix((n_scalar, n))
    for j in range(2):
        vals = e[:, :, :, j]
        r = np.broadcast_to(cell_scalar_dofs[:, :, None], vals.shape)
        c = np.broadcast_to(dofs[:, :, j][:, None, :], vals.shape)
        out = out + _scatter(r, c, vals, (n_scalar, n))
    return out.tocsr()


def oracle_saddle(ws, coef):
    top = (coef * ws.mass + ws.stiffness).tocsr()
    return sp.bmat([[top, -ws.div.T], [ws.div, None]], format="csc").tocsr()


def oracle_condensation(saddle, n_nodal, n_velocity):
    a = saddle.tocsr()
    n, nb = a.shape[0], n_velocity - n_nodal
    bubbles = slice(n_nodal, n_velocity)
    keep = np.r_[0:n_nodal, n_velocity:n]
    eye = sp.identity(n, format="csr")
    pick_k, pick_b = eye[keep], eye[bubbles]
    a_k, a_b = pick_k @ a, pick_b @ a
    kbb = a_b @ pick_b.T
    diag = kbb.diagonal()
    k00, k11 = diag[0::2], diag[1::2]
    k01, k10 = kbb.diagonal(1)[0::2], kbb.diagonal(-1)[0::2]
    det = k00 * k11 - k01 * k10
    blocks = np.stack([k11, -k01, -k10, k00], axis=1) / det[:, None]
    kbb_inv = sp.bsr_matrix((blocks.reshape(-1, 2, 2), np.arange(nb // 2),
                             np.arange(nb // 2 + 1)), shape=(nb, nb)).tocsr()
    a_bk = a_b @ pick_k.T
    a_kb_inv = a_k @ pick_b.T @ kbb_inv
    signs = sp.diags(np.r_[np.ones(n_nodal), -np.ones(n - n_velocity)])
    reduced = signs @ (a_k @ pick_k.T - a_kb_inv @ a_bk)
    condense = (signs @ (pick_k - a_kb_inv @ pick_b)).tocsr()
    expand = sp.hstack([pick_k.T - pick_b.T @ kbb_inv @ a_bk,
                        pick_b.T @ kbb_inv]).tocsr()
    return reduced, condense, expand


# -- the tests -----------------------------------------------------------------

def test_velocity_mass_matches_oracle(mesh):
    eta = PARAMS.eta_cells(mesh)
    assert_same_csr(fem.velocity_mass(mesh, eta), oracle_velocity_mass(mesh, eta))


@pytest.mark.parametrize("mu", ["phase_mu", "cell_mu"])
def test_deformation_stiffness_matches_oracle(mesh, mu):
    mu_c = PARAMS.mu_cells(mesh) if mu == "phase_mu" else _cell_mu(mesh)
    want = oracle_deformation_stiffness(mesh, mu_c)
    assert_same_csr(fem.deformation_stiffness(mesh, mu_c), want)
    assert_same_csr(fem.deformation_stiffness(mesh, mu_c, fem._basis_grads(mesh)), want)


def test_div_coupling_matches_oracle(mesh):
    want = oracle_div_coupling(mesh, mesh.cell_sdofs, mesh.nsdof)
    assert_same_csr(fem.div_coupling(mesh, mesh.cell_sdofs, mesh.nsdof), want)
    assert_same_csr(fem.div_coupling(mesh, mesh.cell_sdofs, mesh.nsdof,
                                     fem._basis_grads(mesh)), want)


@pytest.mark.parametrize("mu", ["phase_mu", "cell_mu"])
def test_workspace_operators_match_oracles(mesh, mu):
    mu_c = PARAMS.mu_cells(mesh) if mu == "phase_mu" else _cell_mu(mesh)
    ws = StokesWorkspace(mesh, PARAMS, mu_cells=None if mu == "phase_mu" else mu_c)
    assert_same_csr(ws.mass, oracle_velocity_mass(mesh, PARAMS.eta_cells(mesh)))
    assert_same_csr(ws.stiffness, oracle_deformation_stiffness(mesh, mu_c))
    assert_same_csr(ws.div, oracle_div_coupling(mesh, mesh.cell_sdofs, mesh.nsdof))


@pytest.mark.parametrize("mu", ["phase_mu", "cell_mu"])
@pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0])
def test_saddle_and_condensation_match_oracles(mesh, mu, dt):
    mu_c = None if mu == "phase_mu" else _cell_mu(mesh)
    ws = StokesWorkspace(mesh, PARAMS, mu_cells=mu_c)
    saddle = ws.saddle(1.0 / dt)
    assert_same_csr(saddle, oracle_saddle(ws, 1.0 / dt))
    n_nodal = 2 * mesh.n_nodes
    got = fem.condense_bubbles(saddle, n_nodal, ws.nu)
    want = oracle_condensation(saddle, n_nodal, ws.nu)
    for g, w in zip(got, want):
        assert_same_csr(g, w)
    lu = ws.step_factorization(dt)
    assert_same_csr(lu._condense, want[1])
    assert_same_csr(lu._expand, want[2])
    assert_same_csr(lu.matrix, saddle)


def test_nodal_loads_equal_the_add_at_form(mesh):
    # np.bincount adds in index order from zero, as np.add.at does
    rng = np.random.default_rng(21)
    w = rng.standard_normal((mesh.n_cells, 2))
    c = rng.standard_normal(mesh.n_cells)
    want = np.zeros(mesh.n_nodes)
    np.add.at(want, mesh.cells.ravel(),
              (np.einsum("cak,ck->ca", mesh.grads, w) * mesh.areas[:, None]).ravel())
    assert fem.gradient_load(mesh, w).tobytes() == want.tobytes()
    want = np.zeros(mesh.n_nodes)
    np.add.at(want, mesh.cells.ravel(), ((mesh.areas * c)[:, None] / 3.0 * np.ones(3)).ravel())
    assert fem.scalar_load(mesh, c).tobytes() == want.tobytes()
