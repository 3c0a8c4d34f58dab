"""Finite element machinery shared by the transmission, stepper and
fixed-point modules.

Velocity is discretized with the MINI element (continuous P1 enriched by a
cubic cell bubble per component); pressure and other interface-jumping
scalars use P1 with doubled Gamma dofs (see :mod:`lagstokes.mesh`).  All
element integrands assembled here are polynomial, and the 12-point
degree-6 triangle rule integrates every one of them exactly; that
exactness is what makes rigid motions exact discrete equilibria and the
rigid-momentum identities hold to solver roundoff.

Velocity dof layout: 2*i + comp for node i, then 2*n_nodes + 2*c + comp
for the bubble of cell c.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec     # kernel of csr @ vector

from .errors import ShapeError, SolverError
from .mesh import Field, RefMesh

# Dunavant 12-point rule, exact for degree 6, weights in area coordinates.
_QW = np.array([0.050844906370207] * 3 + [0.116786275726379] * 3
               + [0.082851075618374] * 6)
_a1, _b1 = 0.873821971016996, 0.063089014491502
_a2, _b2 = 0.501426509658179, 0.249286745170910
_a3, _b3, _c3 = 0.053145049844817, 0.310352451033784, 0.636502499121399
_QL = np.array([
    [_a1, _b1, _b1], [_b1, _a1, _b1], [_b1, _b1, _a1],
    [_a2, _b2, _b2], [_b2, _a2, _b2], [_b2, _b2, _a2],
    [_a3, _b3, _c3], [_a3, _c3, _b3], [_b3, _a3, _c3],
    [_b3, _c3, _a3], [_c3, _a3, _b3], [_c3, _b3, _a3],
])

# 3-point Gauss rule on [0,1], exact for degree 5 edge integrands.
_EQ = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_EW = np.array([5.0, 8.0, 5.0]) / 18.0

_NQ = len(_QW)
# scalar basis (P1 + bubble) at the quadrature points; cell independent
_NB = 4
_NVALS = np.empty((_NQ, _NB))
_NVALS[:, :3] = _QL
_NVALS[:, 3] = 27.0 * _QL[:, 0] * _QL[:, 1] * _QL[:, 2]


def n_udofs(mesh: RefMesh) -> int:
    return 2 * (mesh.n_nodes + mesh.n_cells)


def nodal_to_uvec(mesh: RefMesh, nodal: np.ndarray) -> np.ndarray:
    """Velocity dof vector from (n_nodes, 2) nodal values, zero bubbles; a
    stack (n_steps, n_nodes, 2) gives one vector per step."""
    if nodal.ndim > 3 or nodal.shape[-2:] != (mesh.n_nodes, 2):
        raise ShapeError(f"expected ([n_steps,] {mesh.n_nodes}, 2) nodal array")
    vec = np.zeros(nodal.shape[:-2] + (n_udofs(mesh),))
    vec[..., :2 * mesh.n_nodes] = nodal.reshape(nodal.shape[:-2] + (-1,))
    return vec


def uvec_nodal(mesh: RefMesh, vec: np.ndarray) -> np.ndarray:
    """(n_nodes, 2) nodal values of a velocity dof vector (bubbles vanish
    at the vertices, so these are the pointwise nodal values); a stack of
    vectors (n_steps, n_udofs) gives (n_steps, n_nodes, 2)."""
    return vec[..., :2 * mesh.n_nodes].reshape(vec.shape[:-1] + (mesh.n_nodes, 2))


def uvec_to_field(mesh: RefMesh, vec: np.ndarray) -> Field:
    return Field.from_nodal(mesh, uvec_nodal(mesh, vec))


def field_to_uvec(field: Field) -> np.ndarray:
    if field.ncomp != 2:
        raise ShapeError("velocity field must have 2 components")
    return nodal_to_uvec(field.mesh, field.plus())


def _basis_grads(mesh: RefMesh) -> np.ndarray:
    """Gradients of the 4 scalar basis functions at the quadrature points,
    shape (nc, nq, 4, 2)."""
    nc = mesh.n_cells
    dN = np.empty((nc, _NQ, _NB, 2))
    dN[:, :, :3, :] = mesh.grads[:, None, :, :]
    lam = _QL  # (nq, 3)
    coef = np.stack([lam[:, 1] * lam[:, 2],
                     lam[:, 0] * lam[:, 2],
                     lam[:, 0] * lam[:, 1]], axis=1)  # (nq, 3)
    dN[:, :, 3, :] = 27.0 * np.einsum("qa,caj->cqj", coef, mesh.grads)
    return dN


def _cell_udofs(mesh: RefMesh) -> np.ndarray:
    """(nc, 4, 2) velocity dof ids for the 4 basis functions x 2 components."""
    nc, nn = mesh.n_cells, mesh.n_nodes
    dofs = np.empty((nc, _NB, 2), dtype=np.int64)
    dofs[:, :3, 0] = 2 * mesh.cells
    dofs[:, :3, 1] = 2 * mesh.cells + 1
    cell_ids = np.arange(nc)
    dofs[:, 3, 0] = 2 * nn + 2 * cell_ids
    dofs[:, 3, 1] = 2 * nn + 2 * cell_ids + 1
    return dofs


def _scatter(rows, cols, vals, shape):
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


def velocity_mass(mesh: RefMesh, weight_per_cell: np.ndarray) -> sp.csr_matrix:
    """(w u, v) over the MINI space with a cellwise-constant weight."""
    em = np.einsum("q,qa,qb->ab", _QW, _NVALS, _NVALS)  # reference 4x4
    vals = weight_per_cell[:, None, None] * mesh.areas[:, None, None] * em[None]
    dofs = _cell_udofs(mesh)
    n = n_udofs(mesh)
    blocks = []
    for comp in range(2):
        r = np.broadcast_to(dofs[:, :, comp][:, :, None], vals.shape)
        c = np.broadcast_to(dofs[:, :, comp][:, None, :], vals.shape)
        blocks.append(_scatter(r, c, vals, (n, n)))
    return (blocks[0] + blocks[1]).tocsr()


def _grad_dot_grad(dN: np.ndarray) -> np.ndarray:
    """(nc, 4, 4) quadrature of dN_a . dN_b, summed point by point in the
    order of ``np.einsum("q,cqaj,cqbj->cab", _QW, dN, dN)``:
    s = (w_q dN_0 dN_0^T + w_q dN_1 dN_1^T) + s, on contiguous planes of
    the two gradient components; the same bits in half the time."""
    d = np.ascontiguousarray(dN.transpose(3, 1, 0, 2))          # (j, q, c, a)
    nc = dN.shape[0]
    s, t0, t1 = np.zeros((3, nc, _NB, _NB))
    w0, w1 = np.empty((2, nc, _NB))
    for q in range(_NQ):
        np.multiply(d[0, q], _QW[q], out=w0)
        np.multiply(d[1, q], _QW[q], out=w1)
        np.multiply(w0[:, :, None], d[0, q][:, None, :], out=t0)
        np.multiply(w1[:, :, None], d[1, q][:, None, :], out=t1)
        t0 += t1
        s += t0
    return s


def deformation_stiffness(mesh: RefMesh, mu_per_cell: np.ndarray,
                          basis_grads: np.ndarray | None = None) -> sp.csr_matrix:
    """a(u, v) = 1/2 (mu D(u), D(v)) with D(w) = grad^T w + grad w^T.
    ``basis_grads`` passes the mesh's ``_basis_grads`` when the caller
    already has them."""
    dN = _basis_grads(mesh) if basis_grads is None else basis_grads
    s1 = _grad_dot_grad(dN) * mesh.areas[:, None, None]
    s2 = np.einsum("cqam,cqbi->cambi", dN * _QW[:, None, None], dN) \
        * mesh.areas[:, None, None, None, None]
    w = mu_per_cell
    dofs = _cell_udofs(mesh)
    n = n_udofs(mesh)
    out = sp.csr_matrix((n, n))
    for i in range(2):
        for m in range(2):
            vals = w[:, None, None] * ((s1 if i == m else 0.0) + s2[:, :, m, :, i])
            r = np.broadcast_to(dofs[:, :, i][:, :, None], vals.shape)
            c = np.broadcast_to(dofs[:, :, m][:, None, :], vals.shape)
            out = out + _scatter(r, c, vals, (n, n))
    return out.tocsr()


def div_coupling(mesh: RefMesh, cell_scalar_dofs: np.ndarray, n_scalar: int,
                 basis_grads: np.ndarray | None = None) -> sp.csr_matrix:
    """B[s, udof] = (lambda_s, div v) over the given scalar dof map.
    ``basis_grads`` passes the mesh's ``_basis_grads`` when the caller
    already has them."""
    dN = _basis_grads(mesh) if basis_grads is None else basis_grads
    # E[c, s, b, j] = int lambda_s dN_b^j
    e = np.einsum("qs,cqbj->csbj", _QW[:, None] * _QL, dN) * mesh.areas[:, None, None, None]
    dofs = _cell_udofs(mesh)
    n = n_udofs(mesh)
    out = sp.csr_matrix((n_scalar, n))
    for j in range(2):
        vals = e[:, :, :, j]
        r = np.broadcast_to(cell_scalar_dofs[:, :, None], vals.shape)
        c = np.broadcast_to(dofs[:, :, j][:, None, :], vals.shape)
        out = out + _scatter(r, c, vals, (n_scalar, n))
    return out.tocsr()


def grad_coupling(mesh: RefMesh, cell_scalar_dofs: np.ndarray, n_scalar: int) -> sp.csr_matrix:
    """G[udof, s] = (v, grad lambda_s): pairs velocities with scalar
    potential gradients (cellwise constant for P1 potentials)."""
    # int over cell of N_b: P1 -> area/3, bubble -> 9/20 area
    nint = np.array([1 / 3, 1 / 3, 1 / 3, 9 / 20])
    e = np.einsum("b,csj->cbsj", nint, mesh.grads) * mesh.areas[:, None, None, None]
    dofs = _cell_udofs(mesh)
    n = n_udofs(mesh)
    out = sp.csr_matrix((n, n_scalar))
    for j in range(2):
        vals = e[:, :, :, j]
        r = np.broadcast_to(dofs[:, :, j][:, :, None], vals.shape)
        c = np.broadcast_to(cell_scalar_dofs[:, None, :], vals.shape)
        out = out + _scatter(r, c, vals, (n, n_scalar))
    return out.tocsr()


def scalar_mass(mesh: RefMesh, cell_scalar_dofs: np.ndarray, n_scalar: int,
                weight_per_cell: np.ndarray | None = None) -> sp.csr_matrix:
    """(w f, g) over the P1 scalar space given by the dof map."""
    w = np.ones(mesh.n_cells) if weight_per_cell is None else weight_per_cell
    em = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = w[:, None, None] * mesh.areas[:, None, None] * em[None]
    r = np.broadcast_to(cell_scalar_dofs[:, :, None], vals.shape)
    c = np.broadcast_to(cell_scalar_dofs[:, None, :], vals.shape)
    return _scatter(r, c, vals, (n_scalar, n_scalar))


def scalar_stiffness(mesh: RefMesh, cell_scalar_dofs: np.ndarray, n_scalar: int,
                     weight_per_cell: np.ndarray | None = None) -> sp.csr_matrix:
    """(w grad f, grad g) over the P1 scalar space given by the dof map."""
    w = np.ones(mesh.n_cells) if weight_per_cell is None else weight_per_cell
    vals = np.einsum("caj,cbj->cab", mesh.grads, mesh.grads)
    vals = vals * (w * mesh.areas)[:, None, None]
    r = np.broadcast_to(cell_scalar_dofs[:, :, None], vals.shape)
    c = np.broadcast_to(cell_scalar_dofs[:, None, :], vals.shape)
    return _scatter(r, c, vals, (n_scalar, n_scalar))


def gradient_load(mesh: RefMesh, w_cells: np.ndarray) -> np.ndarray:
    """(w, grad phi) for a cellwise-constant vector field w (n_cells, 2)
    against every continuous P1 test function phi, one entry per node."""
    contrib = np.einsum("cak,ck->ca", mesh.grads, w_cells) * mesh.areas[:, None]
    return np.bincount(mesh.cells.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes)


def scalar_load(mesh: RefMesh, c_cells: np.ndarray) -> np.ndarray:
    """(c, phi) for a cellwise-constant scalar c (n_cells,) against every
    continuous P1 test function phi, one entry per node."""
    contrib = (mesh.areas * c_cells)[:, None] / 3.0 * np.ones(3)
    return np.bincount(mesh.cells.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes)


# -- facet (edge) integrals ------------------------------------------------

def edge_mass_operator(mesh: RefMesh, facet_nodes: np.ndarray,
                       facet_lengths: np.ndarray) -> sp.csr_matrix:
    """(n_udofs, 2 n_nodes) operator taking P1 nodal vectors, flattened
    (n_nodes, 2), to the velocity load of the surface term (w, v) over the
    given facets; bubble traces vanish on edges."""
    nf = len(facet_nodes)
    em = (np.ones((2, 2)) + np.eye(2)) / 6.0          # P1 edge mass over unit length
    # entry (2 * node_a + comp, 2 * node_b + comp) = length_f * em[a, b]
    shape = (nf, 2, 2, 2)                              # (facet, a, b, comp)
    vals = np.broadcast_to(facet_lengths[:, None, None, None] * em[None, :, :, None], shape)
    rows = np.broadcast_to((2 * facet_nodes[:, :, None] + np.arange(2))[:, :, None, :], shape)
    cols = np.broadcast_to((2 * facet_nodes[:, :, None] + np.arange(2))[:, None, :, :], shape)
    return _scatter(rows, cols, vals, (n_udofs(mesh), 2 * mesh.n_nodes))


def facet_inner(facet_nodes: np.ndarray, facet_lengths: np.ndarray,
                fa: np.ndarray, fb: np.ndarray):
    """Surface inner product of two P1-nodal arrays (n_nodes,) or
    (..., n_nodes, k); a leading stack axis gives one value per step."""
    fa, fb = np.asarray(fa, dtype=float), np.asarray(fb, dtype=float)
    if fa.ndim == 1:
        fa, fb = fa[:, None], fb[:, None]
    a, b = facet_nodes[:, 0], facet_nodes[:, 1]
    va, vb = fa[..., a, :], fa[..., b, :]
    wa, wb = fb[..., a, :], fb[..., b, :]
    per_facet = np.sum(2.0 * va * wa + va * wb + vb * wa + 2.0 * vb * wb, axis=-1)
    return _scalar_or_array(per_facet @ (facet_lengths / 6.0))


def facet_l2(facet_nodes: np.ndarray, facet_lengths: np.ndarray, f: np.ndarray):
    return _sqrt_nonneg(facet_inner(facet_nodes, facet_lengths, f, f))


def boundary_l2(mesh: RefMesh, values: np.ndarray, interface: bool):
    """Surface L2 norm on Gamma (``interface`` true) or Gamma_plus of P1
    values given per boundary node, ([n_steps,] n_boundary_nodes, ncomp);
    one norm per step of a stack."""
    _, ends, lengths = mesh.boundary(interface)
    return facet_l2(ends, lengths, mesh.boundary_nodal(values, interface))


# -- cell gradients and nodal recovery --------------------------------------

def apply_sparse(op: sp.spmatrix, arr: np.ndarray, axis: int) -> np.ndarray:
    """Sparse ``op`` applied along ``axis`` of ``arr``, with every other axis
    (a stack of time steps, field components) batched into one product."""
    moved = np.moveaxis(arr, axis, 0)
    out = op @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(out.reshape((op.shape[0],) + moved.shape[1:]), 0, axis)


def csr_matvec_of(op: sp.csr_matrix):
    """matvec(vec, out): op @ vec for the CSR matrix ``op`` and a vector,
    written into the contiguous float ``out`` and returned.  It runs
    scipy's kernel of ``op @ vec`` on a zeroed output, so the sums are the
    same bits, without the operator's dispatch and allocation, and with
    the operator's arrays fetched once; the step loop of a march makes
    thousands of these small products with a few operators."""
    if op.format != "csr":
        raise ShapeError(f"csr_matvec_of needs a CSR matrix, got {op.format}")
    (n_row, n_col), indptr, indices, data = op.shape, op.indptr, op.indices, op.data

    def matvec(vec, out):
        out.fill(0.0)
        _csr_matvec(n_row, n_col, indptr, indices, data, vec, out)
        return out

    return matvec


# Batched evaluations over the time axis of a stack run in blocks of this
# many steps, which bounds their temporaries.
STACK_BLOCK = 25


def blockwise(fn, n_steps: int) -> np.ndarray:
    """fn(steps) over consecutive slices of the time axis, concatenated."""
    return np.concatenate([fn(slice(i, i + STACK_BLOCK))
                           for i in range(0, n_steps, STACK_BLOCK)])


def stream_blocks(n_states: int) -> list[tuple[int, int]]:
    """(start, stop) of the blocks in which a stack of n_states rows is
    streamed: the slices of :func:`blockwise`, with a lone last row joined
    to the slice before it, because the roundoff of a BLAS product of one
    row can differ from that of the same row among several."""
    stops = [*range(STACK_BLOCK, n_states - 1, STACK_BLOCK), n_states]
    return list(zip([0, *stops[:-1]], stops))


# rows of a stack that go through a quadratic form's operator at once
FORM_ROWS = 5


def quadratic_form(op: sp.spmatrix, vecs: np.ndarray):
    """vec . (op vec) for a vector, or one value per row of a stack.

    A stack goes through ``op`` in the slices of :func:`blockwise`, each cut
    into nearly equal runs of at most FORM_ROWS rows, so that the products
    take little memory.  The row sums of a run of one row take another
    summation order than those of a longer run, so a slice of two rows or
    more is cut only into runs of two rows or more: the values do not
    depend on the run length."""
    if vecs.ndim == 1:
        return float(vecs @ (op @ vecs))

    def block(steps):
        v = vecs[steps]
        n_runs = -(-len(v) // FORM_ROWS)
        cuts = [len(v) * i // n_runs for i in range(n_runs + 1)]
        return np.concatenate([np.einsum("ij,ji->i", v[a:b], op @ v[a:b].T)
                               for a, b in zip(cuts[:-1], cuts[1:])])

    return blockwise(block, len(vecs))


def weighted_integral(mesh: RefMesh, w_cells: np.ndarray, values: np.ndarray) -> np.ndarray:
    """int w f of P1 scalar-dof values ([n_steps,] nsdof, ncomp) with a
    cellwise weight w."""
    weights = np.bincount(mesh.cell_sdofs.ravel(), minlength=mesh.nsdof,
                          weights=np.repeat(mesh.areas * w_cells / 3.0, 3))
    return np.einsum("s,...sv->...v", weights, values)


def cell_gradients(field: Field) -> np.ndarray:
    """Exact cellwise Jacobian of a P1 field: (nc, ncomp, 2) with
    G[c, j, k] = d f^j / d xi_k on cell c; a field stack gives
    (n_steps, nc, ncomp, 2)."""
    mesh = field.mesh
    g = apply_sparse(mesh.gradient_operator, field.values, -2)     # (..., 2 nc, ncomp)
    return np.swapaxes(g.reshape(g.shape[:-2] + (mesh.n_cells, 2, field.ncomp)), -1, -2)


def short_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1) of an array whose last axis has unit stride,
    written out as whole-array additions for the short lengths of the
    Jacobian and cell sums, which cost less than numpy's reduction, one
    call per row.  The bits are numpy's, signed zeros included: it sums
    such an axis in order below 8 entries and, at 8, as
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), and adds the sum
    onto +0.0, which turns a sum of negative zeros into +0.0.  Lengths
    other than 2, 3, 4 and 8 go to np.sum."""
    n = a.shape[-1]
    if 2 <= n <= 4:
        out = a[..., 0] + a[..., 1]
        for j in range(2, n):
            out += a[..., j]
    elif n == 8:
        pairs = [a[..., j] + a[..., j + 1] for j in range(0, 8, 2)]
        out = pairs[0] + pairs[1]
        out += pairs[2] + pairs[3]
    else:
        return np.sum(a, axis=-1)
    out += 0.0
    return out


def cell_means(values: np.ndarray, cell_sdofs: np.ndarray, axis: int = -2) -> np.ndarray:
    """Mean over each cell's three scalar dofs, which ``values`` holds
    along the negative ``axis``: ``np.take(values, cell_sdofs, axis)``
    averaged over ``axis``, bit for bit, as ((0.0 + v0) + v1) + v2 over 3
    in numpy's order, without gathering all three."""
    out = np.take(values, cell_sdofs[:, 0], axis) + np.take(values, cell_sdofs[:, 1], axis)
    out += np.take(values, cell_sdofs[:, 2], axis)
    out += 0.0
    out /= 3.0
    return out


def cell_values(field: Field) -> np.ndarray:
    """Cell-centroid values of a P1 field, ([n_steps,] nc, ncomp)."""
    return cell_means(field.values, field.mesh.cell_sdofs)


def recover_gradient(field: Field, cell_grads: np.ndarray | None = None) -> np.ndarray:
    """Nodal Jacobian recovery: cellwise differentiation then volume-weighted
    per-phase averaging; exact for globally linear fields.  Returns
    (nsdof, ncomp, 2), or (n_steps, nsdof, ncomp, 2) for a field stack.
    ``cell_grads`` passes the field's ``cell_gradients`` when the caller
    already has them."""
    if cell_grads is None:
        cell_grads = cell_gradients(field)
    return apply_sparse(field.mesh.recovery_operator, cell_grads, -3)


# -- norms -------------------------------------------------------------------

def _scalar_or_array(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


def _sqrt_nonneg(x):
    return _scalar_or_array(np.sqrt(np.maximum(x, 0.0)))


# The norms below return a float for a field and an array with one value
# per step for a field stack.  Those built on the field's Jacobian take its
# ``cell_gradients`` as ``cell_grads`` when the caller already has them.

def field_l2(field: Field):
    """L2 norm as the quadratic form of the P1 mass on the scalar dofs,
    summed over the components."""
    vals = field.values
    return _sqrt_nonneg(np.sum(vals * apply_sparse(field.mesh.mass_operator, vals, -2),
                               axis=(-2, -1)))


def field_h1_semi(field: Field, cell_grads: np.ndarray | None = None):
    g = cell_gradients(field) if cell_grads is None else cell_grads
    # numpy's sum of the squares walks the memory of cell_gradients,
    # (..., nc, 2, ncomp): a field's 2 x ncomp block of a cell is one run;
    # a stack's is two runs of ncomp, one per derivative, added in turn
    sq = np.swapaxes(g * g, -1, -2)
    if sq.strides[-2] == sq.shape[-1] * sq.itemsize:
        sq = short_sum(sq.reshape(sq.shape[:-2] + (-1,)))
    else:
        sq = short_sum(sq[..., 0, :]) + short_sum(sq[..., 1, :])
    return _sqrt_nonneg(sq @ field.mesh.areas)


def field_h1(field: Field):
    return _scalar_or_array(np.hypot(field_l2(field), field_h1_semi(field)))


def field_inner(fa: Field, fb: Field, weight_per_cell: np.ndarray | None = None):
    mesh = fa.mesh
    w = mesh.areas if weight_per_cell is None else mesh.areas * weight_per_cell
    va = fa.values[..., mesh.cell_sdofs, :]            # (..., nc, 3, ncomp)
    vb = fb.values[..., mesh.cell_sdofs, :]
    em = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _scalar_or_array(np.einsum("...cav,ab,...cbv->...c", va, em, vb) @ w)


def hessian_seminorm(field: Field, cell_grads: np.ndarray | None = None):
    """L2 norm of the cellwise gradient of the recovered Jacobian; the
    second-difference surrogate used in trajectory norms."""
    mesh = field.mesh
    g = recover_gradient(field, cell_grads)           # (..., nsdof, ncomp, 2)
    flat = Field(mesh, field.ncomp * 2, g.reshape(g.shape[:-2] + (-1,)))
    return field_h1_semi(flat)


def _node_values(mesh: RefMesh, fn, ncomp: int) -> np.ndarray:
    """fn(x, y) -> (ncomp,) at every node, (n_nodes, ncomp)."""
    vals = np.array([np.atleast_1d(fn(x, y)) for x, y in mesh.nodes], dtype=float)
    if vals.shape[1] != ncomp:
        raise ShapeError(f"function returned {vals.shape[1]} components, expected {ncomp}")
    return vals


def interpolate(mesh: RefMesh, fn, ncomp: int = 1) -> Field:
    """Continuous nodal interpolant of fn(x, y) -> (ncomp,)."""
    return Field.from_nodal(mesh, _node_values(mesh, fn, ncomp))


def interpolate_two_phase(mesh: RefMesh, fn_plus, fn_minus, ncomp: int = 1) -> Field:
    """Doubled interpolant with independent plus/minus expressions, each
    fn(x, y) -> (ncomp,)."""
    return Field.from_phase_traces(mesh, _node_values(mesh, fn_plus, ncomp),
                                   _node_values(mesh, fn_minus, ncomp))


# -- linear solver wrapper -----------------------------------------------------

# Largest componentwise backward error max |S x - b| / (|S| |x| + |b|) that
# CondensedSaddle accepts from its set-up probe solve.  A sound factor gives
# a few units of roundoff (about 4e-16); a near-zero pivot gives O(1).
_PROBE_BACKWARD_ERROR_TOL = 1e-10

# Largest condensed step system, in rows, that CondensedSaddle solves with
# a dense inverse instead of SuperLU: 3x12 has 231 rows, 4x16 403, 5x20
# 623, 6x24 891 and 24x96 13,923.  Measured in the class docstring.
DENSE_CORE_MAX_ROWS = 500


class Factorized:
    """Deterministic sparse LU with residual reporting.

    ``quasi_definite`` factors a symmetric quasi-definite matrix [[H, C],
    [C^T, -D]] (H positive definite, D positive semidefinite) on its
    diagonal pivots in a symmetric fill-reducing order: such a matrix
    needs no pivoting for stability (Vanderbei, SIAM J. Optim. 5, 1995),
    and the symmetric order keeps the fill far below that of a pivoted LU.
    Relaxed supernodes are off (``relax=1``): they pad such a factor with
    explicit zeros, 9% of the 24x96 step factor's entries and 43% at 2x40,
    and the padded factor solves no faster.
    """

    def __init__(self, matrix: sp.spmatrix, quasi_definite: bool = False):
        self.matrix = matrix.tocsc()
        options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
                       options={"SymmetricMode": True}) if quasi_definite else {}
        try:
            self._lu = spla.splu(self.matrix, **options)
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc

    @property
    def fill(self) -> int:
        """Stored entries of the L and U factors, SuperLU's count; reading
        it makes no copy of the factors.  A quasi-definite factor stores no
        padding, so this is ``L.nnz + U.nnz``; a pivoted factor's relaxed
        supernodes store their dense blocks."""
        return self._lu.nnz

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu.solve(rhs)
        if not np.isfinite(x).all():
            raise SolverError("linear solve produced non-finite values")
        return x

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> float:
        r = self.matrix @ x - rhs
        scale = max(float(np.linalg.norm(rhs)), 1e-300)
        return float(np.linalg.norm(r)) / scale


def condense_bubbles(a: sp.csr_matrix, n_nodal: int, n_velocity: int):
    """The bubble condensation of :class:`CondensedSaddle` for the canonical
    CSR saddle ``a``: (reduced, condense, expand), the sign-adjusted
    condensed matrix, the CSR map of a full right-hand side to the condensed
    one, and the CSR map of [condensed solution, f_b] to the full solution.

    The blocks are slices of ``a`` cleared of explicit zeros, as sparse
    products clear theirs, and the two maps are assembled from blocks.  The
    in-row order of a map fixes the summation order of every product with
    it, so it is part of the map: ``condense`` lists each row's columns in
    decreasing order (the order a sparse product leaves behind) and
    ``expand`` in increasing order.  tests/test_assembly.py holds all three
    bit for bit to the products with identity rows and columns.
    """
    n, nb = a.shape[0], n_velocity - n_nodal
    bubbles = slice(n_nodal, n_velocity)
    keep = np.r_[0:n_nodal, n_velocity:n]
    nk = len(keep)
    a_k, a_b = a[keep], a[bubbles]                     # kept and bubble rows
    a_k.eliminate_zeros()
    a_b.eliminate_zeros()
    kbb = a_b[:, bubbles]
    # closed-form inverse of each cell's 2x2 block [[k00, k01], [k10, k11]]
    diag = kbb.diagonal()
    k00, k11 = diag[0::2], diag[1::2]
    k01, k10 = kbb.diagonal(1)[0::2], kbb.diagonal(-1)[0::2]
    det = k00 * k11 - k01 * k10
    blocks = np.stack([k11, -k01, -k10, k00], axis=1) / det[:, None]
    kbb_inv = sp.bsr_matrix((blocks.reshape(-1, 2, 2), np.arange(nb // 2),
                             np.arange(nb // 2 + 1)), shape=(nb, nb)).tocsr()
    a_bk = a_b[:, keep]
    a_kb_inv = a_k[:, bubbles] @ kbb_inv               # A_kb K_bb^-1, rows decreasing
    signs = np.r_[np.ones(n_nodal), -np.ones(n - n_velocity)]
    reduced = sp.diags(signs) @ (a_k[:, keep] - a_kb_inv @ a_bk)

    # condense = signs (pick_k - A_kb K_bb^-1 pick_b): row i holds -sign_i times
    # row i of A_kb K_bb^-1 on the bubble columns and sign_i on column keep[i],
    # which comes last in a nodal row and first in a pressure row
    counts = np.diff(a_kb_inv.indptr)
    row = np.repeat(np.arange(nk), counts)
    at = np.arange(a_kb_inv.nnz) + row + (row >= n_nodal)
    indptr = a_kb_inv.indptr + np.arange(nk + 1)
    indices = np.empty(a_kb_inv.nnz + nk, dtype=a_kb_inv.indices.dtype)
    data = np.empty(len(indices))
    indices[at] = a_kb_inv.indices + n_nodal
    data[at] = -signs[row] * a_kb_inv.data
    own = np.where(np.arange(nk) < n_nodal, indptr[1:] - 1, indptr[:-1])
    indices[own] = keep
    data[own] = signs
    condense = sp.csr_matrix((data, indices, indptr), shape=(nk, n))

    # expand: the identity on the kept dofs; bubble row b is
    # [-(K_bb^-1 A_bk)_b, (K_bb^-1)_b]
    recover = kbb_inv @ a_bk
    recover.sort_indices()
    recover.data = -recover.data
    expand = sp.vstack([sp.eye(n_nodal, nk + nb, format="csr"),
                        sp.hstack([recover, kbb_inv], format="csr"),
                        sp.eye(nk - n_nodal, nk + nb, k=n_nodal, format="csr")],
                       format="csr")
    return reduced, condense, expand


class _DenseCore:
    """The dense inverse of a small condensed system, in place of SuperLU's
    factor: it has the factor's ``shape``, ``nnz`` (the inverse's entries),
    ``solve`` and ``L`` and ``U``.  The first solve computes the inverse
    from a pivoted LAPACK factorization (getrf, getri), then runs
    ``check``, the owner's probe, which solves through the new inverse and
    raises SolverError if it is unstable; the inverse is then dropped, so
    every later solve builds and checks it again and raises again.  A
    solve is one BLAS product.

    A one-column product would take BLAS's matrix-vector kernel, whose sums
    differ from those of a column of the two-column product, so a single
    right-hand side is solved as a block whose second column is zero; a
    column of the product does not depend on the other columns.  The
    solves of one or two right-hand sides therefore give the same bits
    column by column, as SuperLU's triangular solves do."""

    def __init__(self, matrix: sp.spmatrix, check):
        self.shape = matrix.shape
        self.nnz = matrix.shape[0] ** 2
        self._matrix, self._check, self.inverse = matrix, check, None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.inverse is None:
            # in place on a column-major copy: the inverse is column-major too
            dense = self._matrix.toarray(order="F")
            lu, piv, info = sla.lapack.dgetrf(dense, overwrite_a=True)
            if info == 0:
                self.inverse, info = sla.lapack.dgetri(lu, piv, overwrite_lu=True)
            if info != 0:
                raise SolverError(f"dense condensed core is singular (LAPACK info {info})")
            try:
                self._check()
            except SolverError:
                self.inverse = None
                raise
        cols = rhs.reshape(len(rhs), -1)
        if cols.shape[1] >= 2:
            return self.inverse @ np.asfortranarray(cols)
        block = np.zeros((len(rhs), 2), order="F")
        block[:, 0] = cols[:, 0]
        return (self.inverse @ block)[:, 0].reshape(rhs.shape)

    @property
    def L(self) -> sp.csc_matrix:
        """The unit lower factor of the pivoted LU, as SuperLU gives it;
        the factors are not kept, so this factors again."""
        lu = sla.lapack.dgetrf(self._matrix.toarray())[0]
        return sp.csc_matrix(np.tril(lu, -1) + np.eye(len(lu)))

    @property
    def U(self) -> sp.csc_matrix:
        """The upper factor of the pivoted LU; see :attr:`L`."""
        return sp.csc_matrix(np.triu(sla.lapack.dgetrf(self._matrix.toarray())[0]))


class CondensedSaddle(Factorized):
    """Solver for the MINI saddle [[K, -B^T], [B, 0]] with the bubbles
    condensed out (Arnold, Brezzi & Fortin, Calcolo 21, 1984).

    The dofs are ordered nodal velocities p = [0, n_nodal), bubbles
    b = [n_nodal, n_velocity), then pressures.  K must be symmetric positive
    definite, and a bubble couples only to the other bubble of its cell, so
    K_bb is block diagonal with one 2x2 block per cell and is inverted in
    closed form.  Eliminating the bubbles and negating the pressure rows
    leaves the symmetric quasi-definite system

        [[S, C], [C^T, -D]],   S = K_pp - K_pb K_bb^-1 K_bp,
        C = K_pb K_bb^-1 B_b^T - B_p^T,   D = B_b K_bb^-1 B_b^T,

    of ``n_condensed`` rows, whose solver ``_lu`` is the core; the bubbles
    are recovered cellwise from u_b = K_bb^-1 (f_b - K_bp u_p + B_b^T q).
    ``matrix`` is the full saddle.  ``solve`` takes one step of iterative
    refinement against the full saddle, which restores the backward
    stability that the core's inverse or unpivoted factor lacks (Skeel,
    Math. Comp. 35, 1980); ``solve_unrefined`` is the bare condensed solve,
    for callers that schedule the refinement themselves.  Both take a
    right-hand side or a block of them, one per column.

    The core (``core``) is picked by size.  Up to ``DENSE_CORE_MAX_ROWS``
    rows it is ``"dense"``, the pivoted dense inverse of
    :class:`_DenseCore`.  Above, it is ``"superlu"``, SuperLU's factor on
    the diagonal pivots in a symmetric fill-reducing order, which keeps
    the fill far below that of a pivoted LU.  ``Factorized.solve`` of a
    two-column block, at dt = 0.05, minimum of 300 runs, one BLAS thread on
    a 2-vCPU Xeon with 4 MiB of L2 cache per core:

        mesh   rows   SuperLU   dense
        3x12    231     32 us    12 us
        2x24    315     39       21
        4x16    403     55       33
        5x20    623     89      171
        6x24    891    132      764

    The dense product slows down sharply once the inverse outgrows the L2
    cache.

    D is only positive semidefinite, so the no-pivoting guarantee for
    quasi-definite matrices does not cover the SuperLU core: an elimination
    order can meet a pivot that vanishes in exact arithmetic, and roundoff
    then leaves one of size 1e-18 and a solve that is wrong by orders of
    magnitude.  That happens on meshes with two radial layers per phase,
    which are small enough for the pivoted dense core.  Each core makes
    one refined probe solve of a fixed random right-hand side and raises
    ``SolverError`` when its componentwise backward error exceeds
    ``_PROBE_BACKWARD_ERROR_TOL``: the SuperLU core when it is factored,
    here, and the dense core when its inverse is built, on the first
    solve.  A march makes its first solve on the calling thread, so the
    inverse exists before a worker thread asks for it.
    """

    def __init__(self, saddle: sp.spmatrix, n_nodal: int, n_velocity: int):
        a = saddle.tocsr()
        self._bubbles = slice(n_nodal, n_velocity)
        reduced, self._condense, self._expand = condense_bubbles(a, n_nodal, n_velocity)
        self.n_condensed = reduced.shape[0]
        if self.n_condensed <= DENSE_CORE_MAX_ROWS:
            self._lu = _DenseCore(reduced, self._probe)      # probed when built
        else:
            super().__init__(reduced, quasi_definite=True)
        self.matrix = a
        if self.core == "superlu":
            self._probe()

    def _probe(self):
        """Raise SolverError if a refined solve of a fixed random
        right-hand side has a componentwise backward error above
        ``_PROBE_BACKWARD_ERROR_TOL``."""
        a = self.matrix
        probe = np.random.default_rng(0).standard_normal(a.shape[0])
        x = self.solve(probe)
        omega = np.max(np.abs(a @ x - probe) / (abs(a) @ np.abs(x) + np.abs(probe)))
        if not omega <= _PROBE_BACKWARD_ERROR_TOL:
            raise SolverError(f"condensed {self.core} core is unstable: a probe solve has "
                              f"componentwise backward error {omega:.3g}")

    @property
    def core(self) -> str:
        return "dense" if isinstance(self._lu, _DenseCore) else "superlu"

    def solve_unrefined(self, rhs: np.ndarray) -> np.ndarray:
        y = super().solve(self._condense @ rhs)
        return self._expand @ np.concatenate([y, rhs[self._bubbles]])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self.solve_unrefined(rhs)
        return x + self.solve_unrefined(rhs - self.matrix @ x)

    def pair_solver(self):
        """``solve_unrefined`` of two right-hand sides at a time, for a
        caller that solves many pairs: solve(rhs0, rhs1, out0, out1) writes
        the two solutions into ``out0`` and ``out1`` with one two-column
        core solve, and its buffers are allocated once.  Each column is
        condensed and expanded on its own: a one-column product is
        bit-equal to its column of the two-column product, and cheaper."""
        condense, expand = csr_matvec_of(self._condense), csr_matvec_of(self._expand)
        nc, bubbles = self.n_condensed, self._bubbles
        pair = np.empty((nc, 2), order="F")
        expand_in = np.empty((2, self._expand.shape[1]))

        def solve(rhs0, rhs1, out0, out1):
            condense(rhs0, pair[:, 0])
            condense(rhs1, pair[:, 1])
            y = Factorized.solve(self, pair)
            for j, rhs, out in ((0, rhs0, out0), (1, rhs1, out1)):
                expand_in[j, :nc] = y[:, j]
                expand_in[j, nc:] = rhs[bubbles]
                expand(expand_in[j], out)

        return solve

    def column_solver(self):
        """``solve_unrefined`` of one right-hand side into a given output,
        the one-column counterpart of :meth:`pair_solver`: solve(rhs, out)
        writes the solution into ``out`` and returns it, and its buffers are
        allocated once, so each thread that solves takes its own solver.  A
        one-column core solve gives the same bits as its column of the
        two-column solve."""
        condense, expand = csr_matvec_of(self._condense), csr_matvec_of(self._expand)
        nc, bubbles = self.n_condensed, self._bubbles
        col = np.empty(nc)
        expand_in = np.empty(self._expand.shape[1])

        def solve(rhs, out):
            expand_in[:nc] = Factorized.solve(self, condense(rhs, col))
            expand_in[nc:] = rhs[bubbles]
            return expand(expand_in, out)

        return solve
