import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwave.tensor3 import E_R, IDENTITY, adjoint, det, dual, trace

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
cnum = st.builds(complex, finite, finite)
vec3 = st.lists(cnum, min_size=3, max_size=3).map(np.array)
mat3 = st.lists(st.lists(cnum, min_size=3, max_size=3), min_size=3, max_size=3).map(
    np.array
)
E_THETA, E_PHI = np.eye(3)[1:]


def test_frame_vectors():
    assert np.array_equal(E_R, [1, 0, 0])
    with pytest.raises(ValueError):
        E_R[0] = 2.0


def test_dual_frame_actions():
    assert np.allclose(dual(E_R) @ E_THETA, E_PHI)
    assert np.allclose(dual(E_R) @ E_R, 0.0)
    assert np.allclose(dual(E_THETA) @ E_PHI, E_R)


def test_frame_splitting_identity():
    assert np.allclose(np.outer(E_R, E_R) - dual(E_R) @ dual(E_R), IDENTITY)


@given(vec3, vec3)
def test_dual_is_cross_product(v, a):
    assert np.allclose(dual(v) @ a, np.cross(v, a), atol=1e-9)
    assert np.allclose(a @ dual(v), np.cross(a, v), atol=1e-9)


@given(vec3)
def test_dual_antisymmetric_annihilates_argument(v):
    d = dual(v)
    assert np.allclose(d, -d.T)
    assert np.allclose(d @ v, 0.0, atol=1e-9)


def test_trace_and_det_basics():
    assert trace(IDENTITY) == 3
    assert det(IDENTITY) == 1
    assert adjoint(IDENTITY) == pytest.approx(np.eye(3))
    a, b, c = 2.0, -1.5, 0.5j
    assert np.allclose(adjoint(np.diag([a, b, c])), np.diag([b * c, a * c, a * b]))


@given(vec3, vec3)
def test_dyad_trace_and_rank(u, v):
    assert trace(np.outer(u, v)) == pytest.approx(u @ v)
    assert det(np.outer(u, v)) == pytest.approx(0.0, abs=1e-8)


@settings(max_examples=200)
@given(mat3)
def test_adjoint_identity(t):
    scale = max(np.max(np.abs(t)), 1.0)
    d = det(t)
    assert np.allclose(adjoint(t) @ t, d * np.eye(3), atol=1e-10 * scale**3)
    assert np.allclose(t @ adjoint(t), d * np.eye(3), atol=1e-10 * scale**3)


@settings(max_examples=200)
@given(mat3)
def test_trace_square_relation(t):
    scale = max(np.max(np.abs(t)), 1.0)
    lhs = trace(t @ t)
    rhs = trace(t) ** 2 - 2.0 * trace(adjoint(t))
    assert abs(lhs - rhs) <= 1e-10 * scale**2


@given(mat3)
def test_det_matches_numpy(t):
    scale = max(np.max(np.abs(t)), 1.0)
    assert det(t) == pytest.approx(np.linalg.det(t), abs=1e-8 * scale**3)
