import numpy as np
import pytest

from lagstokes import fem
from lagstokes.errors import DomainError, FacetLookupError, ParameterError, ShapeError
from lagstokes.kernel import CofactorField, pushforward_normal
from lagstokes.mesh import (Field, RefMesh, build_two_phase_disk, facet_normal,
                            jump, read_mesh, write_mesh)


def inscribed_polygon_area(n_angular, radius):
    # closed-form oracle: every boundary node sits on the circle, so the
    # triangulation fills the inscribed regular polygon exactly
    return 0.5 * n_angular * radius ** 2 * np.sin(2 * np.pi / n_angular)


def test_interface_facets_sit_on_gamma():
    mesh = build_two_phase_disk(2, 8, 0.5, 1.0)
    for a, b, _, _ in mesh.interface_facets:
        assert abs(np.hypot(*mesh.nodes[a]) - 0.5) < 1e-14
        assert abs(np.hypot(*mesh.nodes[b]) - 0.5) < 1e-14
    mesh.validate()


def test_total_area_matches_polygon_oracle():
    mesh = build_two_phase_disk(4, 16, 0.5, 1.0)
    assert mesh.total_area() == pytest.approx(inscribed_polygon_area(16, 1.0), abs=1e-13)
    errs = []
    for n_ang in (16, 32, 64):
        m = build_two_phase_disk(4, n_ang, 0.5, 1.0)
        errs.append(np.pi - m.total_area())
    # O(h^2) under angular refinement
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(r > 1.9 for r in rates)


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        build_two_phase_disk(1, 8, 0.5, 1.0)
    with pytest.raises(ParameterError):
        build_two_phase_disk(2, 7, 0.5, 1.0)
    with pytest.raises(ParameterError):
        build_two_phase_disk(2, 8, 1.0, 0.5)
    with pytest.raises(ParameterError):
        build_two_phase_disk(2, 8, -0.1, 1.0)


@pytest.mark.parametrize("n_radial, n_angular", [
    (3.0, 12), (3, 12.0), (3.5, 12), (3, 12.5),
    (True, 12), (3, True), (np.float64(3.0), 12), (3, np.bool_(True)),
], ids=["float-radial", "float-angular", "fraction-radial", "fraction-angular",
        "bool-radial", "bool-angular", "np-float-radial", "np-bool-angular"])
def test_non_integral_mesh_sizes_rejected(n_radial, n_angular):
    with pytest.raises(ParameterError):
        build_two_phase_disk(n_radial, n_angular, 0.5, 1.0)


def test_numpy_integer_mesh_sizes_accepted():
    ref = build_two_phase_disk(3, 12, 0.5, 1.0)
    for n_radial, n_angular in ((np.int64(3), 12), (3, np.int64(12)), (np.int32(3), np.int64(12))):
        mesh = build_two_phase_disk(n_radial, n_angular, 0.5, 1.0)
        assert mesh.mesh_hash() == ref.mesh_hash()


def _loop_built_disk(n_radial, n_angular, r_inner, r_outer):
    """The per-cell and per-edge loop construction of the two-phase disk,
    kept as the oracle of the array-built ``build_two_phase_disk``."""
    radii = np.concatenate([
        r_inner * np.arange(1, n_radial + 1) / n_radial,
        r_inner + (r_outer - r_inner) * np.arange(1, n_radial + 1) / n_radial,
    ])
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    nodes = [np.zeros((1, 2))]
    for r in radii:
        nodes.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    nodes = np.vstack(nodes)

    def ring(i):
        return 1 + (i - 1) * n_angular + np.arange(n_angular)

    cells = []
    r1 = ring(1)
    for k in range(n_angular):
        cells.append((0, r1[k], r1[(k + 1) % n_angular]))
    for i in range(1, 2 * n_radial):
        a, b = ring(i), ring(i + 1)
        for k in range(n_angular):
            k1 = (k + 1) % n_angular
            cells.append((a[k], b[k], b[k1]))
            cells.append((a[k], b[k1], a[k1]))
    cells = np.array(cells, dtype=np.int64)
    centroids = nodes[cells].mean(axis=1)
    phase = np.where(np.hypot(centroids[:, 0], centroids[:, 1]) < r_inner, 1, -1)

    edge_cells = {}
    for c, (v0, v1, v2) in enumerate(cells):
        for a, b in ((v0, v1), (v1, v2), (v2, v0)):
            edge_cells.setdefault((min(a, b), max(a, b)), []).append(c)
    interface, outer = [], []
    for (a, b), adj in edge_cells.items():
        if len(adj) == 2 and phase[adj[0]] != phase[adj[1]]:
            cp, cm = (adj[0], adj[1]) if phase[adj[0]] == 1 else (adj[1], adj[0])
            interface.append((a, b, cp, cm))
        elif len(adj) == 1:
            outer.append((a, b, adj[0]))
    interface.sort()
    outer.sort()
    return RefMesh(nodes=nodes, cells=cells, phase=phase,
                   interface_facets=np.array(interface, dtype=np.int64),
                   outer_facets=np.array(outer, dtype=np.int64),
                   outer_phase=-1)


_REFMESH_ARRAYS = ("nodes", "cells", "phase", "interface_facets", "outer_facets",
                   "gamma_nodes", "gamma_plus_nodes", "areas", "grads",
                   "facet_normals", "facet_lengths", "sdof_plus", "sdof_minus",
                   "cell_sdofs", "sdof_phase", "node_normals_gamma", "node_normals_outer")


@pytest.mark.parametrize("n_radial, n_angular",
                         [(2, 8), (3, 12), (3, 9), (5, 20), (6, 24), (24, 96)])
def test_array_built_disk_matches_loop_oracle(n_radial, n_angular):
    mesh = build_two_phase_disk(n_radial, n_angular, 0.5, 1.0)
    ref = _loop_built_disk(n_radial, n_angular, 0.5, 1.0)
    for name in _REFMESH_ARRAYS:
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name      # bit for bit, signs of zero too
    assert mesh.outer_phase == ref.outer_phase
    assert mesh.mesh_hash() == ref.mesh_hash()
    # the per-facet loop the normals and lengths were computed with
    centroids = mesh.nodes[mesh.cells].mean(axis=1)
    rows = [(a, b, cp) for a, b, cp, _ in mesh.interface_facets] + list(mesh.outer_facets)
    for k, (a, b, c) in enumerate(rows):
        xa, xb = mesh.nodes[a], mesh.nodes[b]
        t = xb - xa
        length = float(np.hypot(t[0], t[1]))
        n = np.array([t[1], -t[0]]) / length
        if np.dot(n, centroids[c] - 0.5 * (xa + xb)) > 0:
            n = -n
        assert mesh.facet_normals[k].tobytes() == n.tobytes()
        assert mesh.facet_lengths[k] == length


def test_facet_normals_radial_and_unit():
    mesh = build_two_phase_disk(3, 16, 0.5, 1.0)
    for k in range(mesh.n_facets):
        n = facet_normal(mesh, k)
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-14
        a, b = mesh.facet_nodes(k)
        mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
        radial = mid / np.linalg.norm(mid)
        # both Gamma (plus into minus) and Gamma_plus (outward) point radially out
        assert np.allclose(n, radial, atol=1e-13)


def test_facet_normal_at_reference_angles():
    mesh = build_two_phase_disk(3, 16, 0.5, 1.0)
    mids = 0.5 * (mesh.nodes[mesh.interface_facets[:, 0]]
                  + mesh.nodes[mesh.interface_facets[:, 1]])
    k = int(np.argmin(np.abs(np.arctan2(mids[:, 1], mids[:, 0]))))
    assert facet_normal(mesh, k) @ np.array([1.0, 0.0]) > 0.98
    omids = 0.5 * (mesh.nodes[mesh.outer_facets[:, 0]]
                   + mesh.nodes[mesh.outer_facets[:, 1]])
    k2 = int(np.argmin(np.abs(np.arctan2(omids[:, 1], omids[:, 0]) - np.pi / 2)))
    assert facet_normal(mesh, mesh.n_interface_facets + k2) @ np.array([0.0, 1.0]) > 0.98


def test_unknown_facet_id():
    mesh = build_two_phase_disk(2, 8, 0.5, 1.0)
    with pytest.raises(FacetLookupError):
        facet_normal(mesh, mesh.n_facets)
    with pytest.raises(FacetLookupError):
        facet_normal(mesh, -1)


def test_jump_of_continuous_field_is_exactly_zero():
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    rng = np.random.default_rng(0)
    f = Field.from_nodal(mesh, rng.standard_normal((mesh.n_nodes, 2)))
    for k in range(mesh.n_interface_facets):
        assert np.all(jump(f, k) == 0.0)


def test_jump_of_phase_indicator_is_plus_one():
    # jump := (plus trace) - (minus trace); the indicator of the plus phase
    # evaluates to 1 - 0 = +1 under the adopted orientation
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    ind = Field.from_phase_traces(mesh, np.ones((mesh.n_nodes, 1)),
                                  np.zeros((mesh.n_nodes, 1)))
    for k in range(mesh.n_interface_facets):
        assert jump(ind, k) == pytest.approx(1.0, abs=1e-15)


def test_jump_of_piecewise_constants():
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    a_plus, a_minus = 2.5, -0.75
    f = Field.from_phase_traces(mesh, np.full((mesh.n_nodes, 1), a_plus),
                                np.full((mesh.n_nodes, 1), a_minus))
    for k in range(mesh.n_interface_facets):
        assert jump(f, k) == pytest.approx(a_plus - a_minus, abs=1e-14)


def test_jump_requires_interface_facet():
    mesh = build_two_phase_disk(2, 8, 0.5, 1.0)
    f = Field.zeros(mesh, 1)
    with pytest.raises(DomainError):
        jump(f, mesh.n_interface_facets)   # first outer facet


def test_interface_facets_pair_phases():
    mesh = build_two_phase_disk(4, 16, 0.5, 1.0)
    for _, _, cp, cm in mesh.interface_facets:
        assert mesh.phase[cp] == 1 and mesh.phase[cm] == -1
    for _, _, c in mesh.outer_facets:
        assert mesh.phase[c] == mesh.outer_phase == -1


def test_normals_odd_under_point_reflection():
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    reflected = RefMesh(nodes=-mesh.nodes, cells=mesh.cells, phase=mesh.phase,
                        interface_facets=mesh.interface_facets,
                        outer_facets=mesh.outer_facets,
                        outer_phase=mesh.outer_phase)
    assert np.allclose(reflected.facet_normals, -mesh.facet_normals, atol=1e-14)


def test_mesh_io_roundtrip(tmp_path):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.phase, mesh.phase)
    assert np.array_equal(back.interface_facets, mesh.interface_facets)
    assert np.array_equal(back.outer_facets, mesh.outer_facets)
    assert back.outer_phase == mesh.outer_phase
    assert back.mesh_hash() == mesh.mesh_hash()


def test_mesh_arrays_immutable():
    mesh = build_two_phase_disk(2, 8, 0.5, 1.0)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 99.0


@pytest.mark.parametrize("derived", [{"trace_cells": np.zeros(3, dtype=int)},
                                     {"gamma_nodes": np.array([0])}],
                         ids=["trace_cells", "gamma_nodes"])
def test_derived_arrays_are_not_constructor_arguments(derived):
    # __post_init__ builds them; a given one would be overwritten unseen
    mesh = build_two_phase_disk(2, 8, 0.5, 1.0)
    with pytest.raises(TypeError):
        RefMesh(nodes=mesh.nodes, cells=mesh.cells, phase=mesh.phase,
                interface_facets=mesh.interface_facets, outer_facets=mesh.outer_facets,
                outer_phase=mesh.outer_phase, **derived)


def test_field_shape_checks():
    mesh = build_two_phase_disk(2, 8, 0.5, 1.0)
    from lagstokes.errors import ShapeError
    with pytest.raises(ShapeError):
        Field(mesh, 1, np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        Field.from_nodal(mesh, np.zeros((mesh.n_nodes + 1, 2)))


# -- the Gamma / Gamma_plus layout -------------------------------------------------

def phase_flipped(mesh):
    """A mesh with outer_phase = -1 with its phase labels swapped, so that
    the plus phase owns Gamma_plus (outer_phase = +1)."""
    return RefMesh(nodes=mesh.nodes, cells=mesh.cells, phase=-mesh.phase,
                   interface_facets=mesh.interface_facets[:, [0, 1, 3, 2]],
                   outer_facets=mesh.outer_facets, outer_phase=1)


def facet_l2_oracle(mesh, per_node, interface):
    """Surface L2 norm of P1 values given per boundary node (n_boundary,
    ncomp), facet by facet: sum_f len_f (a^2 + a b + b^2) / 3 with the
    facets and lengths taken from the facet tables and node coordinates."""
    rows = mesh.interface_facets if interface else mesh.outer_facets
    nodes = np.unique(rows[:, :2])
    at = {n: per_node[i] for i, n in enumerate(nodes)}
    total = 0.0
    for a, b in rows[:, :2]:
        length = np.hypot(*(mesh.nodes[b] - mesh.nodes[a]))
        va, vb = at[a], at[b]
        total += length * np.sum(va * va + va * vb + vb * vb) / 3.0
    return np.sqrt(total)


def island_mesh():
    """The 3x12 droplet with one annulus cell relabeled plus: the cell that
    touches Gamma_plus at a single node and owns no outer facet.  That node
    lies on both Gamma and Gamma_plus, so its two scalar dofs differ and
    the outer phase decides which one carries the Gamma_plus trace."""
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    one_outer_node = np.isin(mesh.cells, mesh.gamma_plus_nodes).sum(axis=1) == 1
    phase = mesh.phase.copy()
    phase[np.flatnonzero(one_outer_node & (phase < 0))[0]] = 1
    edge_cells = {}
    for c, tri in enumerate(mesh.cells):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_cells.setdefault((min(a, b), max(a, b)), []).append(c)
    interface = sorted((a, b) + tuple(sorted(adj, key=lambda c: -phase[c]))
                       for (a, b), adj in edge_cells.items()
                       if len(adj) == 2 and phase[adj[0]] != phase[adj[1]])
    outer = sorted((a, b, adj[0]) for (a, b), adj in edge_cells.items() if len(adj) == 1)
    return RefMesh(nodes=mesh.nodes, cells=mesh.cells, phase=phase,
                   interface_facets=np.array(interface), outer_facets=np.array(outer),
                   outer_phase=-1)


@pytest.fixture(scope="module", params=["droplet", "flipped", "island", "island-flipped"])
def layout_mesh(request):
    mesh = island_mesh() if request.param.startswith("island") \
        else build_two_phase_disk(3, 12, 0.5, 1.0)
    return phase_flipped(mesh) if request.param.endswith("flipped") else mesh


def test_island_mesh_has_a_node_on_both_boundaries():
    for mesh in (island_mesh(), phase_flipped(island_mesh())):
        mesh.validate()
        assert np.all(mesh.phase[mesh.outer_facets[:, 2]] == mesh.outer_phase)
        shared = np.intersect1d(mesh.gamma_nodes, mesh.gamma_plus_nodes)
        assert len(shared) == 1
        assert mesh.sdof_plus[shared[0]] != mesh.sdof_minus[shared[0]]


def test_outer_and_trace_sdofs(layout_mesh):
    mesh = layout_mesh
    gn, on = mesh.gamma_nodes, mesh.gamma_plus_nodes
    assert np.array_equal(mesh.sdof_phase[mesh.outer_sdofs],
                          np.full(len(on), mesh.outer_phase))
    # the dof of each Gamma_plus node that carries the outer phase
    outer = [next(d for d in (mesh.sdof_plus[n], mesh.sdof_minus[n])
                  if mesh.sdof_phase[d] == mesh.outer_phase) for n in on]
    assert np.array_equal(mesh.outer_sdofs, outer)
    want = np.concatenate([mesh.sdof_plus[gn], mesh.sdof_minus[gn], outer])
    assert np.array_equal(mesh.trace_sdofs, want)
    assert np.array_equal(mesh.sdof_phase[mesh.trace_sdofs[:2 * len(gn)]],
                          np.repeat([1, -1], len(gn)))


def test_boundary_views_match_the_facet_tables(layout_mesh):
    mesh = layout_mesh
    ni = mesh.n_interface_facets
    for interface, rows, lengths in ((True, mesh.interface_facets, mesh.facet_lengths[:ni]),
                                     (False, mesh.outer_facets, mesh.facet_lengths[ni:])):
        nodes, ends, got_lengths = mesh.boundary(interface)
        assert np.array_equal(nodes, np.unique(rows[:, :2]))
        assert np.array_equal(ends, rows[:, :2])
        assert np.array_equal(got_lengths, lengths)
        for arr in (nodes, ends, got_lengths):
            with pytest.raises(ValueError):
                arr[0] = 0
    for name in ("outer_sdofs", "trace_sdofs"):
        with pytest.raises(ValueError):
            getattr(mesh, name)[0] = 0


def test_trace_gathers_follow_the_facet_tables(layout_mesh):
    mesh = layout_mesh
    ni, ng = mesh.n_interface_facets, len(mesh.gamma_nodes)
    want = np.concatenate([mesh.interface_facets[:, 2], mesh.interface_facets[:, 3],
                           mesh.outer_facets[:, 2]])
    assert np.array_equal(mesh.trace_cells, want)
    assert np.array_equal(mesh.phase[mesh.trace_cells],
                          np.repeat([1, -1, mesh.outer_phase],
                                    [ni, ni, len(mesh.outer_facets)]))
    assert np.array_equal(mesh.trace_facet_normals,
                          np.concatenate([mesh.facet_normals[:ni], mesh.facet_normals]))
    # each facet normal points out of the plus cell on Gamma, out of the
    # domain on Gamma_plus, and into the minus cell's side on Gamma's minus half
    centroids = mesh.nodes[mesh.cells].mean(axis=1)[mesh.trace_cells]
    ends = np.concatenate([mesh.interface_facets[:, :2], mesh.interface_facets[:, :2],
                           mesh.outer_facets[:, :2]])
    outward = np.sum(mesh.trace_facet_normals
                     * (mesh.nodes[ends].mean(axis=1) - centroids), axis=1)
    assert np.all(outward[:ni] > 0) and np.all(outward[ni:2 * ni] < 0)
    assert np.all(outward[2 * ni:] > 0)
    assert np.array_equal(mesh.trace_node_normals, np.concatenate(
        [mesh.node_normals_gamma, mesh.node_normals_gamma, mesh.node_normals_outer]))
    assert len(mesh.trace_node_normals) == len(mesh.trace_sdofs) == 2 * ng + len(
        mesh.gamma_plus_nodes)
    for name in ("trace_cells", "trace_facet_normals", "trace_node_normals"):
        with pytest.raises(ValueError):
            getattr(mesh, name)[0] = 0


@pytest.mark.parametrize("which", ["layout", "24x96"])
def test_node_normals_equal_the_add_at_form(layout_mesh, which):
    mesh = layout_mesh if which == "layout" else build_two_phase_disk(24, 96, 0.5, 1.0)
    ni = mesh.n_interface_facets
    for nodes, rows, normals, got in (
            (mesh.gamma_nodes, mesh.interface_facets, mesh.facet_normals[:ni],
             mesh.node_normals_gamma),
            (mesh.gamma_plus_nodes, mesh.outer_facets, mesh.facet_normals[ni:],
             mesh.node_normals_outer)):
        acc = np.zeros((mesh.n_nodes, 2))
        np.add.at(acc, rows[:, 0], normals)
        np.add.at(acc, rows[:, 1], normals)
        want = acc[nodes] / np.linalg.norm(acc[nodes], axis=1, keepdims=True)
        assert np.array_equal(got, want)


def test_interpolate_two_phase_checks_the_component_count():
    mesh = build_two_phase_disk(2, 8, 0.5, 1.0)

    def plus(x, y):
        return np.array([x, y])

    def minus(x, y):
        return np.array([2 * x, y])

    f = fem.interpolate_two_phase(mesh, plus, minus, 2)
    assert f.ncomp == 2
    assert np.array_equal(f.plus()[mesh.gamma_nodes], mesh.nodes[mesh.gamma_nodes])
    for ncomp in (1, 3):
        with pytest.raises(ShapeError):
            fem.interpolate_two_phase(mesh, plus, minus, ncomp)
        with pytest.raises(ShapeError):
            fem.interpolate(mesh, plus, ncomp)
    with pytest.raises(ShapeError):
        fem.interpolate_two_phase(mesh, plus, lambda x, y: x, 2)


def test_boundary_nodal_places_values_on_the_boundary(layout_mesh):
    mesh = layout_mesh
    rng = np.random.default_rng(3)
    for interface in (True, False):
        nodes = mesh.boundary(interface)[0]
        vals = rng.standard_normal((4, len(nodes), 2))
        full = mesh.boundary_nodal(vals, interface)
        assert full.shape == (4, mesh.n_nodes, 2)
        assert np.array_equal(full[:, nodes], vals)
        off = np.setdiff1d(np.arange(mesh.n_nodes), nodes)
        assert np.all(full[:, off] == 0.0)
        assert np.array_equal(mesh.boundary_nodal(vals[1], interface), full[1])
        with pytest.raises(ShapeError):
            mesh.boundary_nodal(vals[:, 1:], interface)
        with pytest.raises(ShapeError):
            mesh.boundary_nodal(vals[0, :, 0], interface)


def test_boundary_l2_matches_the_per_facet_oracle(layout_mesh):
    mesh = layout_mesh
    rng = np.random.default_rng(11)
    for interface in (True, False):
        n = len(mesh.boundary(interface)[0])
        for ncomp in (1, 2):
            stack = rng.standard_normal((3, n, ncomp))
            got = fem.boundary_l2(mesh, stack, interface)
            want = [facet_l2_oracle(mesh, v, interface) for v in stack]
            assert got.shape == (3,)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
            single = fem.boundary_l2(mesh, stack[0], interface)
            assert isinstance(single, float)
            assert abs(single - want[0]) <= 1e-13 * want[0]


def test_pushforward_outer_normal_turns_with_the_outer_phase(layout_mesh):
    # a rotation per phase: on Gamma_plus the transformed normal turns with
    # the outer phase's rotation, on Gamma with the average of both
    mesh = layout_mesh

    def rot(th):
        return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])

    rots = {1: rot(0.3), -1: rot(-0.5)}
    nb = pushforward_normal(CofactorField(mesh, np.array([rots[s] for s in mesh.sdof_phase])),
                            mesh)
    assert np.allclose(nb.outer, mesh.node_normals_outer @ rots[mesh.outer_phase].T,
                       atol=1e-14)
    avg = mesh.node_normals_gamma @ (0.5 * (rots[1] + rots[-1])).T
    assert np.allclose(nb.gamma, avg / np.linalg.norm(avg, axis=1, keepdims=True),
                       atol=1e-14)
