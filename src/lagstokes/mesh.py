"""Two-phase reference domain: concentric 2-D droplet mesh with a labeled
interface.

The reference configuration is fixed for all time: an inner disk (phase +)
surrounded by an annulus (phase -), separated by the interface Gamma at
r_inner and bounded by the outer free boundary Gamma_plus at r_outer.
Scalar fields may jump across Gamma, so interface nodes carry doubled
scalar degrees of freedom (a plus-side and a minus-side value); velocity
uses the single-valued nodal layout since the velocity jump vanishes.

Orientation convention, used consistently by every downstream module:
the interface normal n points from the plus phase into the minus phase,
and jump(f) = (plus-side trace) - (minus-side trace).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, FacetLookupError, ParameterError, ShapeError

MESH_FORMAT_HEADER = "LAGSTOKES-MESH v1"

_UNIT_TOL = 1e-14


@dataclass(frozen=True)
class RefMesh:
    """Immutable triangulated two-phase reference domain.

    Facet ids are global: interface facets come first (0 .. n_interface-1),
    then outer facets.  Interface facets store the adjacent plus and minus
    cells; outer facets store their single owner cell.

    The mesh owns the layout of the two boundaries: :meth:`boundary` gives
    the nodes, facets and facet lengths of Gamma or Gamma_plus, and
    ``outer_sdofs`` the scalar dof of the outer phase at each Gamma_plus
    node.  Boundary traces come in one order, the plus side of Gamma, then
    its minus side, then Gamma_plus: nodal traces are gathered at
    ``trace_sdofs``, with the node normals ``trace_node_normals``, and
    facet traces at the cells ``trace_cells``, with the facet normals
    ``trace_facet_normals``.

    The domain is a free droplet: there is no container wall, so the mesh
    file's ``gamma_minus_facets`` block is always empty.
    """

    nodes: np.ndarray            # (nn, 2)
    cells: np.ndarray            # (nc, 3) CCW vertex ids
    phase: np.ndarray            # (nc,) +1 or -1
    interface_facets: np.ndarray  # (ni, 4): node0, node1, plus_cell, minus_cell
    outer_facets: np.ndarray     # (no, 3): node0, node1, cell
    outer_phase: int             # phase label of cells touching Gamma_plus

    # derived quantities, filled in __post_init__; not constructor arguments
    gamma_nodes: np.ndarray = dc_field(init=False, repr=False)
    gamma_plus_nodes: np.ndarray = dc_field(init=False, repr=False)
    areas: np.ndarray = dc_field(init=False, repr=False)
    grads: np.ndarray = dc_field(init=False, repr=False)   # (nc, 3, 2) barycentric gradients
    facet_normals: np.ndarray = dc_field(init=False, repr=False)
    facet_lengths: np.ndarray = dc_field(init=False, repr=False)
    sdof_plus: np.ndarray = dc_field(init=False, repr=False)
    sdof_minus: np.ndarray = dc_field(init=False, repr=False)
    cell_sdofs: np.ndarray = dc_field(init=False, repr=False)
    sdof_phase: np.ndarray = dc_field(init=False, repr=False)
    outer_sdofs: np.ndarray = dc_field(init=False, repr=False)  # (n_gamma_plus_nodes,)
    trace_sdofs: np.ndarray = dc_field(init=False, repr=False)  # (2 ng + n_gamma_plus_nodes,)
    node_normals_gamma: np.ndarray = dc_field(init=False, repr=False)
    node_normals_outer: np.ndarray = dc_field(init=False, repr=False)
    trace_node_normals: np.ndarray = dc_field(init=False, repr=False)   # at trace_sdofs
    trace_cells: np.ndarray = dc_field(init=False, repr=False)  # (2 ni + n_outer_facets,)
    trace_facet_normals: np.ndarray = dc_field(init=False, repr=False)  # at trace_cells

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.ascontiguousarray(self.nodes, dtype=float))
        object.__setattr__(self, "cells", np.ascontiguousarray(self.cells, dtype=np.int64))
        object.__setattr__(self, "phase", np.ascontiguousarray(self.phase, dtype=np.int64))
        object.__setattr__(self, "interface_facets",
                           np.ascontiguousarray(self.interface_facets, dtype=np.int64).reshape(-1, 4))
        object.__setattr__(self, "outer_facets",
                           np.ascontiguousarray(self.outer_facets, dtype=np.int64).reshape(-1, 3))
        self._build_geometry()
        self._build_scalar_dofs()
        self._build_facets()
        for name in ("nodes", "cells", "phase", "interface_facets", "outer_facets",
                     "gamma_nodes", "gamma_plus_nodes", "areas", "grads",
                     "facet_normals", "facet_lengths", "sdof_plus", "sdof_minus",
                     "cell_sdofs", "sdof_phase", "outer_sdofs", "trace_sdofs",
                     "node_normals_gamma", "node_normals_outer", "trace_node_normals",
                     "trace_cells", "trace_facet_normals"):
            getattr(self, name).flags.writeable = False

    # -- construction helpers -------------------------------------------------

    def _build_geometry(self):
        x = self.nodes[self.cells]                       # (nc, 3, 2)
        e1 = x[:, 1] - x[:, 0]
        e2 = x[:, 2] - x[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise ParameterError("mesh contains non-CCW or degenerate cells")
        areas = 0.5 * det
        # gradients of the three barycentric coordinates on each cell
        grads = np.empty((len(self.cells), 3, 2))
        grads[:, 1, 0] = e2[:, 1] / det
        grads[:, 1, 1] = -e2[:, 0] / det
        grads[:, 2, 0] = -e1[:, 1] / det
        grads[:, 2, 1] = e1[:, 0] / det
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "grads", grads)

    def _build_scalar_dofs(self):
        nn = len(self.nodes)
        gamma_nodes = np.unique(self.interface_facets[:, :2])
        gamma_plus_nodes = np.unique(self.outer_facets[:, :2])
        sdof_plus = np.arange(nn, dtype=np.int64)
        sdof_minus = np.arange(nn, dtype=np.int64)
        sdof_minus[gamma_nodes] = nn + np.arange(len(gamma_nodes))
        cell_sdofs = np.where((self.phase[:, None] > 0),
                              sdof_plus[self.cells], sdof_minus[self.cells])
        sdof_phase = np.zeros(nn + len(gamma_nodes), dtype=np.int64)
        for a in range(3):
            sdof_phase[cell_sdofs[:, a]] = self.phase
        sdof_phase[sdof_plus[gamma_nodes]] = 1
        sdof_phase[sdof_minus[gamma_nodes]] = -1
        # the Gamma_plus trace lives on the dof of the outer phase's side
        outer_sdofs = (sdof_minus if self.outer_phase < 0 else sdof_plus)[gamma_plus_nodes]
        object.__setattr__(self, "sdof_phase", sdof_phase)
        object.__setattr__(self, "outer_sdofs", outer_sdofs)
        object.__setattr__(self, "trace_sdofs", np.concatenate(
            [sdof_plus[gamma_nodes], sdof_minus[gamma_nodes], outer_sdofs]))
        object.__setattr__(self, "gamma_nodes", gamma_nodes)
        object.__setattr__(self, "gamma_plus_nodes", gamma_plus_nodes)
        object.__setattr__(self, "sdof_plus", sdof_plus)
        object.__setattr__(self, "sdof_minus", sdof_minus)
        object.__setattr__(self, "cell_sdofs", cell_sdofs)

    def _build_facets(self):
        centroids = self.nodes[self.cells].mean(axis=1)
        off = len(self.interface_facets)
        bad = np.flatnonzero((self.phase[self.interface_facets[:, 2]] != 1)
                             | (self.phase[self.interface_facets[:, 3]] != -1))
        if len(bad):
            raise ParameterError(f"interface facet {bad[0]} is not shared by one + and one - cell")
        bad = np.flatnonzero(self.phase[self.outer_facets[:, 2]] != self.outer_phase)
        if len(bad):
            raise ParameterError(f"outer facet {bad[0]} owner phase disagrees with outer_phase")
        ends = np.concatenate([self.interface_facets[:, :2], self.outer_facets[:, :2]])
        owners = np.concatenate([self.interface_facets[:, 2], self.outer_facets[:, 2]])
        normals, lengths = _edge_normals(self.nodes[ends[:, 0]], self.nodes[ends[:, 1]],
                                         away_from=centroids[owners])
        gamma_normals = _node_normals(self, self.gamma_nodes, self.interface_facets[:, :2],
                                      normals[:off])
        outer_normals = _node_normals(self, self.gamma_plus_nodes, self.outer_facets[:, :2],
                                      normals[off:])
        object.__setattr__(self, "facet_normals", normals)
        object.__setattr__(self, "facet_lengths", lengths)
        object.__setattr__(self, "node_normals_gamma", gamma_normals)
        object.__setattr__(self, "node_normals_outer", outer_normals)
        object.__setattr__(self, "trace_node_normals",
                           np.concatenate([gamma_normals, gamma_normals, outer_normals]))
        object.__setattr__(self, "trace_cells", np.concatenate(
            [self.interface_facets[:, 2], self.interface_facets[:, 3], self.outer_facets[:, 2]]))
        object.__setattr__(self, "trace_facet_normals",
                           np.concatenate([normals[:off], normals]))

    # -- queries ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_interface_facets(self) -> int:
        return len(self.interface_facets)

    @property
    def n_facets(self) -> int:
        return len(self.interface_facets) + len(self.outer_facets)

    @property
    def nsdof(self) -> int:
        """Scalar dof count: one per node plus one extra per interface node."""
        return self.n_nodes + len(self.gamma_nodes)

    @cached_property
    def _boundaries(self) -> dict:
        ni = self.n_interface_facets
        return {True: (self.gamma_nodes, self.interface_facets[:, :2], self.facet_lengths[:ni]),
                False: (self.gamma_plus_nodes, self.outer_facets[:, :2],
                        self.facet_lengths[ni:])}

    def boundary(self, interface: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, facet end nodes (nf, 2), facet lengths) of Gamma
        (``interface`` true) or of Gamma_plus; read-only views."""
        return self._boundaries[interface]

    def boundary_nodal(self, values: np.ndarray, interface: bool) -> np.ndarray:
        """Per-node array ([n_steps,] n_nodes, ncomp) holding ``values``,
        given per node of Gamma or Gamma_plus as ([n_steps,] n_boundary_nodes,
        ncomp), on that boundary's nodes and zero elsewhere."""
        nodes = self.boundary(interface)[0]
        values = np.asarray(values, dtype=float)
        if values.ndim not in (2, 3) or values.shape[-2] != len(nodes):
            raise ShapeError(f"boundary values shape {values.shape} != "
                             f"([n_steps,] {len(nodes)}, ncomp)")
        out = np.zeros(values.shape[:-2] + (self.n_nodes, values.shape[-1]))
        out[..., nodes, :] = values
        return out

    @cached_property
    def free_potential_nodes(self) -> np.ndarray:
        """Nodes off Gamma_plus: the unknowns of a continuous P1 potential
        that vanishes on the outer boundary."""
        return np.setdiff1d(np.arange(self.n_nodes), self.gamma_plus_nodes)

    # -- sparse operators on scalar dofs, built on first use -------------------

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """(2 n_cells, nsdof): row 2c + k maps scalar dof values to the
        exact d/dxi_k of the P1 field on cell c."""
        nc = self.n_cells
        rows = 2 * np.arange(nc)[:, None, None] + np.arange(2)[None, None, :]
        rows = np.broadcast_to(rows, (nc, 3, 2))
        cols = np.broadcast_to(self.cell_sdofs[:, :, None], (nc, 3, 2))
        return sp.csr_matrix((self.grads.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(2 * nc, self.nsdof))

    @cached_property
    def recovery_operator(self) -> sp.csr_matrix:
        """(nsdof, n_cells): volume-weighted average of cellwise data onto the
        scalar dofs of each cell's own phase, so interface nodes receive
        separate plus/minus traces."""
        nc = self.n_cells
        cols = np.repeat(np.arange(nc), 3)
        weights = np.repeat(self.areas, 3)
        total = np.bincount(self.cell_sdofs.ravel(), weights=weights, minlength=self.nsdof)
        rows = self.cell_sdofs.ravel()
        return sp.csr_matrix((weights / total[rows], (rows, cols)),
                             shape=(self.nsdof, nc))

    @cached_property
    def mass_operator(self) -> sp.csr_matrix:
        """(nsdof, nsdof) P1 mass on the scalar dofs: the element mass
        area * (1 + delta_ab) / 12 over each cell's own-phase dofs, whose
        eigenvalues lie in [1/12, 1/3] * area."""
        em = (np.ones((3, 3)) + np.eye(3)) / 12.0
        vals = self.areas[:, None, None] * em
        rows = np.broadcast_to(self.cell_sdofs[:, :, None], vals.shape)
        cols = np.broadcast_to(self.cell_sdofs[:, None, :], vals.shape)
        return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(self.nsdof, self.nsdof))

    def is_interface_facet(self, facet: int) -> bool:
        self._check_facet(facet)
        return facet < len(self.interface_facets)

    def facet_nodes(self, facet: int) -> np.ndarray:
        self._check_facet(facet)
        if facet < len(self.interface_facets):
            return self.interface_facets[facet, :2]
        return self.outer_facets[facet - len(self.interface_facets), :2]

    def _check_facet(self, facet: int):
        if not 0 <= facet < self.n_facets:
            raise FacetLookupError(f"unknown facet id {facet}")

    def total_area(self) -> float:
        return float(self.areas.sum())

    def mesh_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.nodes, self.cells, self.phase,
                    self.interface_facets, self.outer_facets):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(str(self.outer_phase).encode())
        return h.hexdigest()[:16]

    def validate(self):
        """Re-check the structural invariants; raises ParameterError."""
        if np.any(self.areas <= 0):
            raise ParameterError("non-positive cell area")
        nrm = np.linalg.norm(self.facet_normals, axis=1)
        if np.any(np.abs(nrm - 1.0) > _UNIT_TOL):
            raise ParameterError("facet normal not unit length")
        if np.any((self.phase[self.interface_facets[:, 2]] != 1)
                  | (self.phase[self.interface_facets[:, 3]] != -1)):
            raise ParameterError("interface facet phase pairing broken")


def _edge_normals(xa: np.ndarray, xb: np.ndarray, away_from: np.ndarray):
    """Unit normals and lengths of the edges xa -> xb, (n, 2) each; every
    normal points away from its row of ``away_from``."""
    t = xb - xa
    lengths = np.hypot(t[:, 0], t[:, 1])
    n = np.column_stack([t[:, 1], -t[:, 0]]) / lengths[:, None]
    d = away_from - 0.5 * (xa + xb)
    flip = n[:, 0] * d[:, 0] + n[:, 1] * d[:, 1] > 0
    n[flip] = -n[flip]
    return n, lengths


def _node_normals(mesh: RefMesh, nodes: np.ndarray, facet_nodes: np.ndarray,
                  facet_normals: np.ndarray) -> np.ndarray:
    """Unit node normals as the normalized average of adjacent facet normals."""
    ends = facet_nodes.T.ravel()                 # every first end, then every second
    out = np.column_stack([np.bincount(ends, weights=np.tile(facet_normals[:, k], 2),
                                       minlength=mesh.n_nodes) for k in range(2)])[nodes]
    nrm = np.linalg.norm(out, axis=1, keepdims=True)
    return out / nrm


def _mesh_size(name: str, value, minimum: int) -> int:
    """A mesh size as a Python int: integral (numpy integers included) and at
    least ``minimum``, which also rejects bool; raises ParameterError
    otherwise."""
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def build_two_phase_disk(n_radial: int, n_angular: int,
                         r_inner: float, r_outer: float) -> RefMesh:
    """Concentric two-phase disk: inner disk labeled +, annulus labeled -.

    ``n_radial`` radial layers per phase, ``n_angular`` nodes per ring.  The
    circle of radius ``r_inner`` is the interface Gamma and the circle of
    radius ``r_outer`` is the free boundary Gamma_plus (so outer facets
    belong to minus cells: the annulus-droplet configuration).

    Node 0 is the center and ring i (1-based) holds nodes
    1 + (i - 1) * n_angular + k.  The cells are the center fan, then per
    ring gap and per angle k the pair (a_k, b_k, b_k1), (a_k, b_k1, a_k1)
    with b the next ring out and k1 = (k + 1) mod n_angular; all arrays are
    built by index arithmetic, without Python loops.
    """
    n_radial = _mesh_size("n_radial", n_radial, 2)
    n_angular = _mesh_size("n_angular", n_angular, 8)
    if not (0.0 < r_inner < r_outer):
        raise ParameterError(f"need 0 < r_inner < r_outer, got {r_inner}, {r_outer}")

    radii = np.concatenate([
        r_inner * np.arange(1, n_radial + 1) / n_radial,
        r_inner + (r_outer - r_inner) * np.arange(1, n_radial + 1) / n_radial,
    ])
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    nodes = np.zeros((1 + len(radii) * n_angular, 2))
    nodes[1:, 0] = (radii[:, None] * np.cos(theta)).ravel()
    nodes[1:, 1] = (radii[:, None] * np.sin(theta)).ravel()

    k = np.arange(n_angular)
    k1 = (k + 1) % n_angular
    fan = np.column_stack([np.zeros(n_angular, dtype=np.int64), 1 + k, 1 + k1])
    a0 = 1 + n_angular * np.arange(2 * n_radial - 1)[:, None]    # first node of ring i
    ak, ak1 = a0 + k, a0 + k1                                     # (ring gap, angle)
    bk, bk1 = ak + n_angular, ak1 + n_angular
    pairs = np.stack([np.stack([ak, bk, bk1], axis=-1),
                      np.stack([ak, bk1, ak1], axis=-1)], axis=2)  # (gap, angle, 2, 3)
    cells = np.concatenate([fan, pairs.reshape(-1, 3)]).astype(np.int64)

    # phase by centroid radius
    centroids = nodes[cells].mean(axis=1)
    phase = np.where(np.hypot(centroids[:, 0], centroids[:, 1]) < r_inner, 1, -1)

    # edge -> adjacent cells: one stable sort of the keys lo * n_nodes + hi
    # over the edges (v0, v1), (v1, v2), (v2, v0) of cells 0, 1, ...; an
    # interior edge then lists its two cells in increasing order, and the
    # facets come out sorted by (lo, hi), the order of the facet tuples
    ends = cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    order = np.argsort(lo * len(nodes) + hi, kind="stable")
    lo, hi, owner = lo[order], hi[order], order // 3
    first = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    count = np.diff(np.r_[first, len(order)])
    shared = first[count == 2]
    c0, c1 = owner[shared], owner[shared + 1]
    cut = phase[c0] != phase[c1]
    shared, c0, c1 = shared[cut], c0[cut], c1[cut]
    plus_first = phase[c0] == 1
    interface = np.column_stack([lo[shared], hi[shared],
                                 np.where(plus_first, c0, c1), np.where(plus_first, c1, c0)])
    single = first[count == 1]
    outer = np.column_stack([lo[single], hi[single], owner[single]])

    return RefMesh(nodes=nodes, cells=cells, phase=phase,
                   interface_facets=interface, outer_facets=outer,
                   outer_phase=-1)


def facet_normal(mesh: RefMesh, facet: int) -> np.ndarray:
    """Unit normal of a facet: on Gamma it points from the plus phase into
    the minus phase, on Gamma_plus out of the domain."""
    mesh._check_facet(facet)
    return mesh.facet_normals[facet].copy()


@dataclass
class Field:
    """Nodal values on the reference mesh, with doubled interface dofs.

    ``values`` has shape (mesh.nsdof, ncomp): row i < n_nodes is the
    plus-side value at node i (and the only value away from Gamma); the
    trailing rows hold the minus-side traces of the interface nodes.  A
    field stack (one field per time step) carries a leading axis,
    (n_steps, mesh.nsdof, ncomp); indexing a stack selects time steps.
    """

    mesh: RefMesh
    ncomp: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim > 3 or self.values.shape[-2:] != (self.mesh.nsdof, self.ncomp):
            raise ShapeError(
                f"field values shape {self.values.shape} != "
                f"([n_steps,] {self.mesh.nsdof}, {self.ncomp})")

    @classmethod
    def zeros(cls, mesh: RefMesh, ncomp: int = 1) -> "Field":
        return cls(mesh, ncomp, np.zeros((mesh.nsdof, ncomp)))

    @classmethod
    def stack(cls, fields) -> "Field":
        """Field stack from a sequence of single-time fields."""
        first = fields[0]
        return cls(first.mesh, first.ncomp, np.stack([f.values for f in fields]))

    @classmethod
    def from_nodal(cls, mesh: RefMesh, nodal: np.ndarray) -> "Field":
        """Continuous field from per-node values (n_nodes,), (n_nodes, ncomp)
        or a stack (n_steps, n_nodes, ncomp): both interface traces share the
        node value exactly."""
        nodal = np.asarray(nodal, dtype=float)
        if nodal.ndim == 1:
            nodal = nodal[:, None]
        if nodal.shape[-2] != mesh.n_nodes:
            raise ShapeError(f"expected {mesh.n_nodes} nodal rows, got {nodal.shape[-2]}")
        values = np.empty(nodal.shape[:-2] + (mesh.nsdof, nodal.shape[-1]))
        values[..., :mesh.n_nodes, :] = nodal
        values[..., mesh.n_nodes:, :] = nodal[..., mesh.gamma_nodes, :]
        return cls(mesh, nodal.shape[-1], values)

    @classmethod
    def from_phase_traces(cls, mesh: RefMesh, plus: np.ndarray, minus: np.ndarray) -> "Field":
        """Field from separate per-node plus/minus trace arrays."""
        plus = np.atleast_2d(np.asarray(plus, dtype=float).T).T
        minus = np.atleast_2d(np.asarray(minus, dtype=float).T).T
        if plus.shape != minus.shape or plus.shape[0] != mesh.n_nodes:
            raise ShapeError("trace arrays must both be (n_nodes, ncomp)")
        values = np.empty((mesh.nsdof, plus.shape[1]))
        # interior nodes take the value of their own phase; Gamma nodes
        # (sdof_phase +1 on the primary dof) keep both traces
        own_plus = mesh.sdof_phase[:mesh.n_nodes] > 0
        values[:mesh.n_nodes] = np.where(own_plus[:, None], plus, minus)
        values[mesh.n_nodes:] = minus[mesh.gamma_nodes]
        return cls(mesh, plus.shape[1], values)

    def plus(self) -> np.ndarray:
        """Per-node values with the plus-side trace on Gamma nodes."""
        return self.values[..., self.mesh.sdof_plus, :]

    def minus(self) -> np.ndarray:
        """Per-node values with the minus-side trace on Gamma nodes."""
        return self.values[..., self.mesh.sdof_minus, :]

    def __getitem__(self, steps) -> "Field":
        if self.values.ndim != 3:
            raise ShapeError("only a field stack can be indexed by time step")
        return Field(self.mesh, self.ncomp, self.values[steps])

    def copy(self) -> "Field":
        return Field(self.mesh, self.ncomp, self.values.copy())

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.mesh, self.ncomp, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.mesh, self.ncomp, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.mesh, self.ncomp, self.values * float(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other: "Field"):
        if other.mesh is not self.mesh or other.ncomp != self.ncomp:
            raise ShapeError("fields live on different meshes or component counts")


def jump(field: Field, facet: int) -> np.ndarray:
    """Interface jump of a field at a Gamma facet midpoint:
    (plus-side trace) - (minus-side trace), one value per component."""
    mesh = field.mesh
    mesh._check_facet(facet)
    if not mesh.is_interface_facet(facet):
        raise DomainError(f"facet {facet} is not on the interface Gamma")
    a, b = mesh.interface_facets[facet, :2]
    vp = 0.5 * (field.values[mesh.sdof_plus[a]] + field.values[mesh.sdof_plus[b]])
    vm = 0.5 * (field.values[mesh.sdof_minus[a]] + field.values[mesh.sdof_minus[b]])
    return vp - vm


# -- plain-text mesh format ----------------------------------------------------

def write_mesh(mesh: RefMesh, path) -> None:
    """Write the mesh in the LAGSTOKES-MESH v1 plain-text format."""
    lines = [MESH_FORMAT_HEADER,
             f"outer_phase {mesh.outer_phase}",
             f"nodes {mesh.n_nodes}"]
    lines += ["%.17g %.17g" % (x, y) for x, y in mesh.nodes]
    lines.append(f"cells {mesh.n_cells}")
    lines += ["%d %d %d %d" % (v0, v1, v2, p)
              for (v0, v1, v2), p in zip(mesh.cells, mesh.phase)]
    lines.append(f"interface_facets {len(mesh.interface_facets)}")
    lines += ["%d %d %d %d" % tuple(row) for row in mesh.interface_facets]
    lines.append(f"outer_facets {len(mesh.outer_facets)}")
    lines += ["%d %d %d" % tuple(row) for row in mesh.outer_facets]
    lines.append("gamma_minus_facets 0")   # the container-case wall block, always empty
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> RefMesh:
    """Read a LAGSTOKES-MESH v1 file written by :func:`write_mesh`."""
    with open(path, encoding="ascii") as fh:
        toks = fh.read().split("\n")
    if toks[0] != MESH_FORMAT_HEADER:
        raise ParameterError(f"unexpected mesh header {toks[0]!r}")
    i = 1
    outer_phase = int(toks[i].split()[1]); i += 1

    def block(name, width, dtype):
        nonlocal i
        tag, count = toks[i].split()
        if tag != name:
            raise ParameterError(f"expected block {name!r}, found {tag!r}")
        count = int(count); i += 1
        rows = [toks[i + k].split() for k in range(count)]
        i += count
        return np.array(rows, dtype=dtype).reshape(count, width)

    nodes = block("nodes", 2, float)
    cellrows = block("cells", 4, np.int64)
    interface = block("interface_facets", 4, np.int64)
    outer = block("outer_facets", 3, np.int64)
    return RefMesh(nodes=nodes, cells=cellrows[:, :3], phase=cellrows[:, 3],
                   interface_facets=interface, outer_facets=outer,
                   outer_phase=outer_phase)
