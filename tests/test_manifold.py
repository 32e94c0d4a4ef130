"""Fixed-row-norm manifold geometry: projection (also the transport), retraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isacbeam.errors import NumericalError
from isacbeam.manifold import inner, is_on_manifold, project_tangent, retract, row_norms
from reference import linalg_row_norms, random_point, random_tangent, summed_projection

_ELEMS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, width=64)
_SHAPES = st.tuples(st.integers(1, 5), st.integers(2, 6))
# M_T antennas and K users, 1 <= K <= M_T; beamformers are M_T x (K + M_T)
_SIZES = st.integers(1, 64).flatmap(lambda mt: st.tuples(st.just(mt), st.integers(1, mt)))


def _complex_matrix(shape):
    re = hnp.arrays(np.float64, shape, elements=_ELEMS)
    im = hnp.arrays(np.float64, shape, elements=_ELEMS)
    return st.tuples(re, im).map(lambda p: p[0] + 1j * p[1])


# a base point (rows renormalized), plus two ambient matrices
_CASES = _SHAPES.flatmap(lambda s: st.tuples(
    _complex_matrix(s), _complex_matrix(s), _complex_matrix(s)))


def _base_point(z):
    return retract(z, 1.0)


@settings(deadline=None, max_examples=60)
@given(_CASES)
def test_projection_is_idempotent(case):
    z, x, _ = case
    if np.any(row_norms(z) < 1e-3):
        return
    w = _base_point(z)
    p1 = project_tangent(w, x, 1.0)
    p2 = project_tangent(w, p1, 1.0)
    assert np.linalg.norm(p2 - p1) <= 1e-12 * (1.0 + np.linalg.norm(p1))


@settings(deadline=None, max_examples=60)
@given(_CASES)
def test_projection_is_self_adjoint(case):
    z, x, y = case
    if np.any(row_norms(z) < 1e-3):
        return
    w = _base_point(z)
    lhs = inner(project_tangent(w, x, 1.0), y)
    rhs = inner(x, project_tangent(w, y, 1.0))
    scale = 1.0 + abs(lhs) + np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(deadline=None, max_examples=60)
@given(_CASES)
def test_projected_rows_are_orthogonal_to_base_rows(case):
    z, x, _ = case
    if np.any(row_norms(z) < 1e-3):
        return
    w = _base_point(z)
    p = project_tangent(w, x, 1.0)
    overlaps = np.sum(w.real * p.real + w.imag * p.imag, axis=1)
    assert np.abs(overlaps).max() <= 1e-10 * (1.0 + np.linalg.norm(x))


@settings(deadline=None, max_examples=60)
@given(_CASES)
def test_retraction_restores_row_norms(case):
    z, _, _ = case
    if np.any(row_norms(z) < 1e-3):
        return
    w = retract(z, 2.5)
    assert np.abs(row_norms(w) - 2.5).max() <= 1e-12 * 2.5


def test_projection_kills_the_base_point():
    rng = np.random.default_rng(0)
    w = random_point(3, 5, 1.5, rng)
    assert np.linalg.norm(project_tangent(w, w, 1.5)) <= 1e-12 * np.linalg.norm(w)


def test_projection_laws_random_mixed_radii():
    rng = np.random.default_rng(42)
    for _ in range(100):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(2, 7))
        radius = float(rng.uniform(0.1, 3.0))
        w = random_point(rows, cols, radius, rng)
        x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        y = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        p = project_tangent(w, x, radius)
        assert np.linalg.norm(project_tangent(w, p, radius) - p) \
            <= 1e-12 * (1.0 + np.linalg.norm(p))
        assert abs(inner(p, y) - inner(x, project_tangent(w, y, radius))) \
            <= 1e-10 * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))


def test_retract_rescales_rows_exactly():
    y = np.array([[3.0 + 0.0j, 4.0 + 0.0j]])
    assert np.allclose(retract(y, 1.0), [[0.6, 0.8]], atol=1e-15)


def test_retract_fixes_points_already_on_manifold():
    rng = np.random.default_rng(4)
    w = random_point(4, 6, 0.7, rng)
    assert np.abs(retract(w, 0.7) - w).max() <= 1e-14


def test_retract_rejects_zero_rows():
    y = np.ones((2, 3), dtype=complex)
    y[1] = 0.0
    with pytest.raises(NumericalError):
        retract(y, 1.0)


def test_retraction_gap_is_second_order_in_the_step():
    rng = np.random.default_rng(8)
    w = random_point(4, 6, 1.0, rng)
    xi = random_tangent(w, 1.0, rng)
    ts = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    gaps = np.array([np.linalg.norm(retract(w + t * xi, 1.0) - (w + t * xi))
                     for t in ts])
    slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_projection_moves_a_tangent_vector_into_the_new_tangent_space():
    rng = np.random.default_rng(12)
    w = random_point(3, 5, 2.0, rng)
    d = random_tangent(w, 2.0, rng)
    w2 = random_point(3, 5, 2.0, rng)
    moved = project_tangent(w2, d, 2.0)
    assert np.linalg.norm(project_tangent(w2, moved, 2.0) - moved) \
        <= 1e-12 * (1.0 + np.linalg.norm(moved))


def test_projection_is_identity_on_its_own_tangent_space():
    rng = np.random.default_rng(13)
    w = random_point(4, 4, 1.0, rng)
    d = random_tangent(w, 1.0, rng)
    assert np.linalg.norm(project_tangent(w, d, 1.0) - d) <= 1e-12 * np.linalg.norm(d)


def test_projection_to_a_new_point_never_grows_the_norm():
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = random_point(3, 6, 1.0, rng)
        w2 = random_point(3, 6, 1.0, rng)
        d = random_tangent(w, 1.0, rng)
        assert np.linalg.norm(project_tangent(w2, d, 1.0)) \
            <= np.linalg.norm(d) * (1.0 + 1e-12)


def test_inner_examples_and_shape_check():
    eye = np.eye(2, dtype=complex)
    assert inner(eye, eye) == pytest.approx(2.0, rel=1e-15)
    x = np.array([[1.0 + 2.0j, -0.5j]])
    assert inner(x, 1j * x) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        inner(np.ones((1, 2)), np.ones((2, 1)))


def test_inner_matches_elementwise_sum():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    direct = sum((a[i, j] * np.conj(b[i, j])).real
                 for i in range(3) for j in range(4))
    assert inner(a, b) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("shape", [(3, 4), (32, 38)])
def test_inner_matches_trace_product(shape):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = a + 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert inner(a, b) == pytest.approx(np.trace(a @ b.conj().T).real, rel=1e-14)
    # equal sizes, different shapes: still no inner product
    with pytest.raises(ValueError):
        inner(a, b.T)


def test_is_on_manifold_checks():
    rng = np.random.default_rng(5)
    w = random_point(3, 4, 1.0, rng)
    assert is_on_manifold(w, 1.0)
    assert not is_on_manifold(1.5 * w, 1.0)


def test_random_point_and_tangent_contracts():
    rng = np.random.default_rng(17)
    w = random_point(5, 7, 0.3, rng)
    assert w.shape == (5, 7)
    assert is_on_manifold(w, 0.3)
    d = random_tangent(w, 0.3, rng)
    overlaps = np.sum(w.real * d.real + w.imag * d.imag, axis=1)
    assert np.abs(overlaps).max() <= 1e-10


# the beamformer shapes of _SIZES, plus K = 0 (M_T x M_T) and one column
_HELPER_SHAPES = _SIZES.flatmap(
    lambda s: st.sampled_from([(s[0], s[1] + s[0]), (s[0], s[0]), (s[0], 1)]))


@settings(deadline=None, max_examples=60)
@given(_HELPER_SHAPES, st.integers(0, 2**32 - 1))
def test_helpers_agree_with_their_numpy_wrapper_forms(shape, seed):
    # a reduction over the real view sums in another order than
    # np.linalg.norm and np.sum do, so the helpers agree to rounding
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    radius = rng.uniform(0.1, 3.0)
    ref = linalg_row_norms(w)
    assert np.all(np.abs(row_norms(w) - ref) <= 1e-13 * ref)
    ref = summed_projection(w, x, radius)
    assert np.linalg.norm(project_tangent(w, x, radius) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_helpers_take_a_contiguous_last_axis_or_raise():
    # the real view needs a contiguous last axis: a transposed or
    # column-strided input raises ValueError, a row slice or a column
    # offset gives the bits of its contiguous copy
    rng = np.random.default_rng(21)
    w = random_point(6, 6, 1.3, rng)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    calls = (row_norms, lambda a: project_tangent(a, x[: len(a), : a.shape[1]], 1.3),
             lambda a: project_tangent(w[: len(a), : a.shape[1]], a, 1.3),
             lambda a: retract(a, 1.3))
    for view in (w.T, w[:, ::2]):
        for call in calls:
            with pytest.raises(ValueError):
                call(view)
    for view in (w[::2], w[:, 1:]):
        for call in calls:
            assert np.array_equal(call(view), call(np.ascontiguousarray(view)))
