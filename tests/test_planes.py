"""The component-plane 2x2 kernels equal the einsum products and the
spectral norm written out on the (..., 2, 2) layout, on single, stacked and
broadcast shapes and with a transposed operand.  The written-out strided
formulas are the bit oracles, down to the sign of a zero; einsum sums from a
zero accumulator, which can turn a -0 into +0, so it is a value oracle."""

import numpy as np
import pytest

from lagstokes import kernel
from lagstokes.kernel import (apply_planes, from_planes, from_vector_planes, mul_planes,
                              norms_planes, to_planes, vector_planes)


def strided_mul(a, b):
    """a @ b written out on the (..., 2, 2) layout."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i in range(2):
        for k in range(2):
            out[..., i, k] = a[..., i, 0] * b[..., 0, k] + a[..., i, 1] * b[..., 1, k]
    return out


def strided_apply(m, v):
    """m @ v written out on the (..., 2, 2) and (..., 2) layouts."""
    out = np.empty(np.broadcast_shapes(m.shape[:-1], v.shape))
    for i in range(2):
        out[..., i] = m[..., i, 0] * v[..., 0] + m[..., i, 1] * v[..., 1]
    return out


def strided_norms(mats):
    """The exact 2-norm written out on the (..., 2, 2) layout."""
    m00, m01, m10, m11 = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    s00 = m00 * m00 + m10 * m10
    s11 = m01 * m01 + m11 * m11
    s01 = m00 * m01 + m10 * m11
    tr = s00 + s11
    det = s00 * s11 - s01 * s01
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return np.sqrt(np.maximum(0.5 * (tr + disc), 0.0))


def random(rng, shape):
    """Random entries with some signed zeros among them."""
    out = rng.standard_normal(shape)
    out.flat[::5] = -0.0
    out.flat[2::7] = 0.0
    return out


def bit_equal(got, ref):
    return (got.shape == ref.shape and np.array_equal(got, ref)
            and np.array_equal(np.signbit(got), np.signbit(ref)))


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 2), (2, 2)),                        # single matrices
    ((7, 2, 2), (7, 2, 2)),                  # one stack
    ((3, 7, 2, 2), (3, 7, 2, 2)),            # a stack of stacks
    ((3, 7, 2, 2), (7, 2, 2)),               # broadcast (k, n) x (n)
    ((7, 2, 2), (3, 7, 2, 2)),
    ((3, 1, 2, 2), (7, 2, 2)),
])
@pytest.mark.parametrize("transpose", [False, True], ids=["b", "bT"])
def test_mul_planes_is_bit_equal_to_einsum(shape_a, shape_b, transpose):
    rng = np.random.default_rng(11)
    a, b = random(rng, shape_a), random(rng, shape_b)
    pb = to_planes(b)
    if transpose:                            # a transpose swaps the plane axes
        b, pb = np.swapaxes(b, -1, -2), pb.swapaxes(0, 1)
    got = from_planes(mul_planes(to_planes(a), pb))
    assert np.array_equal(got, np.einsum("...ij,...jk->...ik", a, b))
    assert bit_equal(got, strided_mul(a, b))
    assert got.flags.c_contiguous


@pytest.mark.parametrize("shape_m, shape_v", [
    ((2, 2), (2,)),
    ((7, 2, 2), (7, 2)),
    ((3, 7, 2, 2), (7, 2)),                  # broadcast (k, n) x (n)
    ((7, 2, 2), (3, 7, 2)),
    ((3, 7, 2, 2), (3, 7, 2)),
])
@pytest.mark.parametrize("transpose", [False, True], ids=["m", "mT"])
def test_apply_planes_is_bit_equal_to_einsum(shape_m, shape_v, transpose):
    rng = np.random.default_rng(12)
    m, v = random(rng, shape_m), random(rng, shape_v)
    pm = to_planes(m)
    if transpose:
        m, pm = np.swapaxes(m, -1, -2), pm.swapaxes(0, 1)
    got = from_vector_planes(apply_planes(pm, vector_planes(v)))
    assert np.array_equal(got, np.einsum("...ij,...j->...i", m, v))
    assert bit_equal(got, strided_apply(m, v))


@pytest.mark.parametrize("shape", [(2, 2), (7, 2, 2), (3, 7, 2, 2)])
@pytest.mark.parametrize("transpose", [False, True], ids=["m", "mT"])
def test_norms_planes_is_bit_equal_to_the_strided_norm(shape, transpose):
    rng = np.random.default_rng(13)
    mats = random(rng, shape)
    planes = to_planes(mats)
    if transpose:
        mats, planes = np.swapaxes(mats, -1, -2), planes.swapaxes(0, 1)
    got = norms_planes(planes)
    assert bit_equal(got, strided_norms(mats))
    assert bit_equal(kernel._spectral_norms(mats), got)


@pytest.mark.parametrize("shape", [(2, 2), (7, 2, 2), (3, 7, 2, 2)])
def test_plane_layout_round_trips(shape):
    rng = np.random.default_rng(14)
    mats = random(rng, shape)
    planes = to_planes(mats)
    assert planes.shape == (2, 2) + shape[:-2] and planes.flags.c_contiguous
    for i in range(2):
        for j in range(2):
            assert bit_equal(planes[i, j], mats[..., i, j])
    assert bit_equal(from_planes(planes), mats)
    vecs = mats[..., 0]
    vplanes = vector_planes(vecs)
    assert vplanes.shape == (2,) + shape[:-2] and vplanes.flags.c_contiguous
    assert bit_equal(vplanes[1], vecs[..., 1])
    assert bit_equal(from_vector_planes(vplanes), vecs)
