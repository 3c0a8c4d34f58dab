"""Lagrangian map geometry: accumulated displacement gradients, the
cofactor matrix A = (I + C)^{-1}, difference fields, pushforward normals
and the deformation-tensor variants entering the nonlinear terms.

All quantities are per-node 2x2 matrices on the doubled scalar dof layout,
so interface nodes carry independent plus/minus traces.  The cofactor has
two forms.  The truncated Neumann series :func:`neumann_cofactor` is the
paper's construction, valid while the accumulated gradient stays strictly
inside the unit ball.  The continuation takes the closed-form 2x2 inverse
:func:`closed_form_cofactor`, behind the same kappa check: it is exact
where the series stops at its tolerance, and costs one division per entry
instead of a product per order.  The tests and the acceptance criteria
check the series against the closed form.  Callers are expected to shrink
their time horizon when the kappa check fails.

The gradient accumulation, the cofactor series and the pushforward normals
also take a stack of times (a leading axis on the matrices) and treat each
time exactly as a single-time call would.

The component-plane kernels below are the package's one 2x2 algebra:
products, matrix-vector products, norms, I - A, unit vectors, normal parts
n . (M n) and the rate tensors D and D_A.  The nonlinear terms on cells,
on nodes and on both boundaries, the Lagrangian dissipation and the
boundary data of the pressure reconstruction all call them, and so do
the closed-form inverses of :func:`closed_form_cofactor` and the series'
test oracle :func:`direct_inverse_oracle`, which share one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fem
from .errors import ConvergenceError, DomainError, GeometryError, ShapeError, SingularityError
from .mesh import Field, RefMesh

DEFAULT_KAPPA = 0.5
DEFAULT_SERIES_TOL = 1e-13
DEFAULT_MAX_ORDER = 64
# |A n| below this on Gamma or Gamma_plus makes the pushforward normal
# undefined
_DEGENERACY_TOL = 1e-12


# Stacked 2x2 algebra on component planes.  A (..., 2, 2) stack is copied
# once into a (2, 2, ...) array whose entry (i, j) is one contiguous plane;
# a product is then three whole-array ufunc calls instead of twelve strided
# ones, and a transpose is the view that swaps the two leading axes.  Every
# entry is the same expression, in the same order, as written out on the
# (..., 2, 2) layout, so the results are the same bits.  Vectors use the
# same layout, (2, ...) with one plane per component.  The public arrays
# keep their (..., 2, 2) and (..., 2) layouts; the kernels convert once on
# entry and once on exit.

def to_planes(mats: np.ndarray) -> np.ndarray:
    """(..., 2, 2) matrices as contiguous (2, 2, ...) component planes."""
    mats = np.asarray(mats, dtype=float)
    return np.ascontiguousarray(mats.reshape(-1, 4).T).reshape((2, 2) + mats.shape[:-2])


def from_planes(planes: np.ndarray) -> np.ndarray:
    """(2, 2, ...) component planes as a contiguous (..., 2, 2) stack."""
    return np.ascontiguousarray(planes.reshape(4, -1).T).reshape(planes.shape[2:] + (2, 2))


def vector_planes(vecs: np.ndarray) -> np.ndarray:
    """(..., 2) vectors as contiguous (2, ...) component planes."""
    vecs = np.asarray(vecs, dtype=float)
    return np.ascontiguousarray(vecs.reshape(-1, 2).T).reshape((2,) + vecs.shape[:-1])


def from_vector_planes(planes: np.ndarray) -> np.ndarray:
    """(2, ...) component planes as contiguous (..., 2) vectors."""
    return np.ascontiguousarray(planes.reshape(2, -1).T).reshape(planes.shape[1:] + (2,))


def _lift(planes: np.ndarray, ndim: int, n_lead: int) -> np.ndarray:
    """Pad the stack shape after the ``n_lead`` component axes with unit
    axes, so that stacks of different depth broadcast behind them."""
    if planes.ndim == ndim:
        return planes
    return planes.reshape(planes.shape[:n_lead] + (1,) * (ndim - planes.ndim)
                          + planes.shape[n_lead:])


def mul_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a @ b of broadcastable (2, 2, ...) plane stacks."""
    ndim = max(a.ndim, b.ndim)
    a, b = _lift(a, ndim, 2), _lift(b, ndim, 2)
    out = a[:, :1] * b[:1]                   # a_i0 b_0k
    out += a[:, 1:] * b[1:]                  # + a_i1 b_1k
    return out


def apply_planes(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products m @ v of broadcastable (2, 2, ...) and
    (2, ...) plane stacks."""
    ndim = max(m.ndim - 1, v.ndim)
    m, v = _lift(m, ndim + 1, 2), _lift(v, ndim, 1)
    out = m[:, 0] * v[0]
    out += m[:, 1] * v[1]
    return out


def _norms(m00, m01, m10, m11) -> np.ndarray:
    """Exact 2-norm of 2x2 matrices given entry by entry."""
    s00 = m00 * m00 + m10 * m10              # entries of mats^T mats
    s11 = m01 * m01 + m11 * m11
    s01 = m00 * m01 + m10 * m11
    tr = s00 + s11
    det = s00 * s11 - s01 * s01
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return np.sqrt(np.maximum(0.5 * (tr + disc), 0.0))


def norms_planes(planes: np.ndarray) -> np.ndarray:
    """Exact 2-norm of each matrix of a (2, 2, ...) plane stack."""
    return _norms(planes[0, 0], planes[0, 1], planes[1, 0], planes[1, 1])


def eye_minus(planes: np.ndarray) -> np.ndarray:
    """I - A of a (2, 2, ...) plane stack; ``eye_minus(zeros)`` is the
    identity."""
    out = -planes
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


def unit_planes(vec: np.ndarray, boundary: str) -> np.ndarray:
    """Unit vectors of a (2, ...) plane stack of transformed normals on
    ``boundary``; raises GeometryError where one is degenerate."""
    lengths = np.sqrt(vec[0] * vec[0] + vec[1] * vec[1])
    if np.any(lengths < _DEGENERACY_TOL):
        raise GeometryError(f"|A n| degenerate on {boundary}")
    return vec / lengths


def normal_part(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """n . (m n) of broadcastable (2, 2, ...) and (2, ...) plane stacks."""
    mn = apply_planes(m, n)
    return n[0] * mn[0] + n[1] * mn[1]


def rate_tensors(g: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rate tensor D = G + G^T and its Lagrangian transform
    D_A = G A^T + A G^T of broadcastable (2, 2, ...) plane stacks of
    velocity gradients G and cofactors A."""
    gt = g.swapaxes(0, 1)
    return g + gt, mul_planes(g, a.swapaxes(0, 1)) + mul_planes(a, gt)


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Exact per-node 2-norm of (..., n, 2, 2) matrices, evaluated on the
    strided entries: a norm alone does not pay for a plane copy."""
    return _norms(mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1])


@dataclass
class DisplacementGradient:
    """Time-accumulated velocity gradient C(xi, t) = int_0^t grad u dtau.

    Accumulated with the trapezoid rule (exact for piecewise-constant-in-time
    data); ``norm_estimate`` tracks an upper bound for the L1-in-time of the
    max-node gradient norm, which is the kappa certificate of Lemma-A type
    bounds.  A stack holds one value per time step: ``mats`` is
    (n_steps, nsdof, 2, 2) and ``time`` and ``norm_estimate`` are arrays.
    """

    mesh: RefMesh
    mats: np.ndarray = None          # (nsdof, 2, 2) or (n_steps, nsdof, 2, 2)
    time: float = 0.0
    norm_estimate: float = 0.0
    _last_grad: np.ndarray = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.mats is None:
            self.mats = np.zeros((self.mesh.nsdof, 2, 2))
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim > 4 or self.mats.shape[-3:] != (self.mesh.nsdof, 2, 2):
            raise ShapeError("displacement gradient shape mismatch")

    def copy(self) -> "DisplacementGradient":
        out = DisplacementGradient(self.mesh, self.mats.copy(), self.time, self.norm_estimate)
        out._last_grad = None if self._last_grad is None else self._last_grad.copy()
        return out

    def last(self) -> "DisplacementGradient":
        """The final time of a stack as a single-time gradient, ready to be
        accumulated further."""
        if self.mats.ndim != 4:
            raise ShapeError("only a displacement-gradient stack has a last time")
        out = DisplacementGradient(self.mesh, self.mats[-1].copy(), float(self.time[-1]),
                                   float(self.norm_estimate[-1]))
        out._last_grad = None if self._last_grad is None else self._last_grad.copy()
        return out

    def seed_left_endpoint(self, grad_u: np.ndarray) -> None:
        """Record the gradient at the current time as the trapezoid left
        endpoint without advancing; used to seed t = 0 data."""
        grad_u = np.asarray(grad_u, dtype=float)
        if grad_u.shape != (self.mesh.nsdof, 2, 2):
            raise ShapeError("gradient field does not match the mesh dof layout")
        self._last_grad = grad_u.copy()


def accumulate_gradient(C: DisplacementGradient, grad_u: np.ndarray,
                        dt: float) -> DisplacementGradient:
    """Advance the single-time C by one trapezoid step with the new nodal
    Jacobian ``grad_u`` (shape (nsdof, 2, 2)), or by one step per entry of
    a stack (n_steps, nsdof, 2, 2), returning the stack of the accumulated
    values.  The first step of a C without a left endpoint seeds it.  The
    running sums add in step order, so a stack equals the chain of
    single-step calls bit for bit."""
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    grad_u = np.asarray(grad_u, dtype=float)
    nsdof = C.mesh.nsdof
    if C.mats.ndim != 3 or grad_u.ndim > 4 or grad_u.shape[-3:] != (nsdof, 2, 2):
        raise ShapeError("gradient field does not match the mesh dof layout")
    g = grad_u.reshape((-1, nsdof, 2, 2))
    left = np.concatenate([(g[:1] if C._last_grad is None else C._last_grad[None]), g[:-1]])
    avg = 0.5 * (left + g)
    mats = np.cumsum(np.concatenate([C.mats[None], dt * avg]), axis=0)[1:]
    time = np.cumsum(np.concatenate([[C.time], np.full(len(g), dt)]))[1:]
    norm = np.cumsum(np.concatenate([[C.norm_estimate],
                                     dt * _spectral_norms(avg).max(axis=-1)]))[1:]
    if grad_u.ndim == 3:
        mats, time, norm = mats[0], float(time[0]), float(norm[0])
    out = DisplacementGradient(C.mesh, mats, time, norm)
    out._last_grad = g[-1].copy()
    return out


@dataclass
class CofactorField:
    """Per-node cofactor matrices A = (I + C)^{-1} with series metadata, for
    one time (``mats`` (nsdof, 2, 2)) or a stack of times (a leading axis).

    ``orders`` and ``kappas`` hold each time's series order (-1 for the
    closed form) and bound on ||C|| (0-d for a single time); ``order`` is
    their total and ``kappa`` their maximum, so for a single time they are
    that time's values.
    """

    mesh: RefMesh
    mats: np.ndarray                  # (nsdof, 2, 2) or (n_steps, nsdof, 2, 2)
    orders: np.ndarray = 0
    kappas: np.ndarray = 0.0

    def __post_init__(self):
        self.orders = np.asarray(self.orders)
        self.kappas = np.asarray(self.kappas, dtype=float)

    @property
    def order(self) -> int:
        return int(self.orders.sum())

    @property
    def kappa(self) -> float:
        return float(self.kappas.max())

    def __getitem__(self, steps) -> "CofactorField":
        if self.mats.ndim != 4:
            raise ShapeError("only a cofactor stack can be indexed by time step")
        return CofactorField(self.mesh, self.mats[steps], self.orders[steps],
                             self.kappas[steps])


@dataclass
class TransformedNormal:
    """Unit pushforward normals A n / |A n| at interface and outer nodes."""

    mesh: RefMesh
    gamma: np.ndarray        # ([n_steps,] n_gamma_nodes, 2)
    outer: np.ndarray        # ([n_steps,] n_outer_nodes, 2)


def _checked_norms(c: np.ndarray, kappa: float) -> np.ndarray:
    """The largest node norm of each time of a (2, 2, ...) plane stack of
    C; raises GeometryError past ``kappa``, where the callers shrink the
    time horizon."""
    kmax = norms_planes(c).max(axis=-1)              # one per time
    if np.any(kmax > kappa * (1.0 + 1e-12)):         # boundary ||C|| = kappa admissible
        raise GeometryError(
            f"displacement gradient norm {kmax.max():.3g} exceeds kappa={kappa}; "
            "reduce the time horizon")
    return kmax


def neumann_cofactor(C: DisplacementGradient, tol: float = DEFAULT_SERIES_TOL,
                     max_order: int = DEFAULT_MAX_ORDER,
                     kappa: float = DEFAULT_KAPPA) -> CofactorField:
    """Truncated Neumann series sum_k (-C)^k for (I + C)^{-1}.

    Stops at the first order whose term norm drops below ``tol``; raises if
    the per-node norm bound exceeds ``kappa`` (series untrusted) or the
    series fails to converge within ``max_order`` terms.  A stack of times
    stops each time at its own order, so every time gets exactly the
    result, order and kappa of a single-time call.
    """
    c = to_planes(C.mats)
    kmax = _checked_norms(c, kappa)
    acc = eye_minus(np.zeros_like(c))
    term = acc.copy()
    order = np.zeros(kmax.shape, dtype=np.int64)
    active = np.ones(kmax.shape, dtype=bool)
    for k in range(1, max_order + 1):
        term = np.negative(mul_planes(term, c))
        active &= ~(norms_planes(term).max(axis=-1) < tol)
        if not active.any():
            break
        # a stopped time adds an exact zero, which leaves its sum unchanged
        acc += term * active[..., None]
        order += active
    else:
        raise ConvergenceError(
            f"cofactor series did not reach tol={tol} within {max_order} terms")
    return CofactorField(C.mesh, from_planes(acc), orders=order, kappas=kmax)


def _det_i_plus(c: np.ndarray) -> np.ndarray:
    """det(I + C) of a (2, 2, ...) plane stack of C."""
    return (c[0, 0] + 1.0) * (c[1, 1] + 1.0) - c[0, 1] * c[1, 0]


def _inverse_planes(c: np.ndarray, det: np.ndarray) -> np.ndarray:
    """(I + C)^{-1} of a (2, 2, ...) plane stack of C in closed form, with
    ``det`` = det(I + C)."""
    inv = np.empty_like(c)
    np.divide(c[1, 1] + 1.0, det, out=inv[0, 0])
    np.divide(c[0, 0] + 1.0, det, out=inv[1, 1])
    np.divide(-c[0, 1], det, out=inv[0, 1])
    np.divide(-c[1, 0], det, out=inv[1, 0])
    return inv


def closed_form_cofactor(C: DisplacementGradient,
                         kappa: float = DEFAULT_KAPPA) -> CofactorField:
    """A = (I + C)^{-1} by the closed-form 2x2 inverse, after the kappa
    check of :func:`neumann_cofactor`, which it replaces where the series
    is not itself the object: inside the kappa ball I + C is invertible,
    and the series agrees with it to its truncation tolerance.  ``orders``
    are -1, no series was summed."""
    c = to_planes(C.mats)
    kmax = _checked_norms(c, kappa)
    return CofactorField(C.mesh, from_planes(_inverse_planes(c, _det_i_plus(c))),
                         orders=np.full(kmax.shape, -1), kappas=kmax)


def direct_inverse_oracle(C: DisplacementGradient) -> CofactorField:
    """Closed-form per-node 2x2 inverse of (I + C) without the kappa check;
    the series oracle.  Raises SingularityError where I + C is singular."""
    c = to_planes(C.mats)
    det = _det_i_plus(c)
    bad = np.nonzero(np.abs(det) < 1e-300)[-1]
    if len(bad):
        raise SingularityError(f"singular map at node {bad[0]}", node=int(bad[0]))
    return CofactorField(C.mesh, from_planes(_inverse_planes(c, det)),
                         orders=np.full(det.shape[:-1], -1), kappas=norms_planes(c).max(axis=-1))


def delta_cofactor(C1: DisplacementGradient, C2: DisplacementGradient,
                   tol: float = DEFAULT_SERIES_TOL,
                   max_order: int = DEFAULT_MAX_ORDER,
                   kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Difference field A2 - A1 by the telescoped double-sum series

        delta A = sum_{l>=1} (-1)^l sum_{j=0}^{l-1} C1^j (C2 - C1) C2^{l-1-j},

    truncated once the l-th term norm falls below ``tol``.  The difference
    factor sits between the power sums; matrices do not commute, so the
    shorthand with the factor pulled out front is only notation.
    """
    c1, c2 = to_planes(C1.mats), to_planes(C2.mats)
    for c in (c1, c2):
        kmax = float(norms_planes(c).max()) if c.shape[-1] else 0.0
        if kmax > kappa:
            raise GeometryError(
                f"displacement gradient norm {kmax:.3g} exceeds kappa={kappa}")
    if C1.mesh is not C2.mesh:
        raise ShapeError("displacement gradients live on different meshes")
    dc = c2 - c1
    eye = eye_minus(np.zeros_like(dc))

    series = np.zeros_like(dc)
    sign = -1.0
    c1_pows = [eye]       # C1^j dC prefactors are built below from these
    c2_pows = [eye]
    for ell in range(1, max_order + 1):
        inner = np.zeros_like(dc)
        for j in range(ell):
            inner += mul_planes(mul_planes(c1_pows[j], dc), c2_pows[ell - 1 - j])
        series += sign * inner
        sign = -sign
        if float(norms_planes(inner).max()) < tol:
            break
        c1_pows.append(mul_planes(c1_pows[-1], c1))
        c2_pows.append(mul_planes(c2_pows[-1], c2))
    else:
        raise ConvergenceError(
            f"delta-cofactor series did not converge within {max_order} terms")
    return from_planes(series)


def pushforward_normal(A: CofactorField, mesh: RefMesh) -> TransformedNormal:
    """Unit transformed normals on Gamma and Gamma_plus, with a leading
    axis for a cofactor stack.

    On Gamma the two traces of A are averaged before applying, keeping the
    transformed normal single-valued on the interface.
    """
    ng = len(mesh.gamma_nodes)
    traces = to_planes(A.mats[..., mesh.trace_sdofs, :, :])
    gm = 0.5 * (traces[..., :ng] + traces[..., ng:2 * ng])
    gvec = apply_planes(gm, vector_planes(mesh.node_normals_gamma))
    ovec = apply_planes(traces[..., 2 * ng:], vector_planes(mesh.node_normals_outer))
    return TransformedNormal(mesh, from_vector_planes(unit_planes(gvec, "Gamma")),
                             from_vector_planes(unit_planes(ovec, "Gamma_plus")))


@dataclass
class DeformationTensors:
    """Per-node deformation-tensor family for a velocity field u:

    ``D``       symmetric rate tensor grad^T u + grad u^T,
    ``Du``      its Lagrangian transform grad^T u A^T + A grad u^T,
    ``H``       the defect D - Du = grad^T u (I - A^T) + (I - A) grad u^T,
    ``D_tilde`` the product D(u) (I - A) entering the source terms.
    """

    D: np.ndarray
    Du: np.ndarray
    H: np.ndarray
    D_tilde: np.ndarray


def deformation_tensors(u: Field, A: CofactorField,
                        grad_u: np.ndarray | None = None) -> DeformationTensors:
    """All deformation-tensor variants from recovered nodal Jacobians."""
    if u.ncomp != 2:
        raise ShapeError("velocity field must have 2 components")
    G = fem.recover_gradient(u) if grad_u is None else np.asarray(grad_u, dtype=float)
    if G.shape != (u.mesh.nsdof, 2, 2):
        raise ShapeError("Jacobian field shape mismatch")
    g, a = to_planes(G), to_planes(A.mats)
    d, du = rate_tensors(g, a)
    ima = eye_minus(a)
    h = rate_tensors(g, ima)[1]
    return DeformationTensors(D=from_planes(d), Du=from_planes(du), H=from_planes(h),
                              D_tilde=from_planes(mul_planes(d, ima)))
