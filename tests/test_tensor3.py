import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwave.tensor3 import adjoint, det, trace

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
cnum = st.builds(complex, finite, finite)
vec3 = st.lists(cnum, min_size=3, max_size=3).map(np.array)
mat3 = st.lists(st.lists(cnum, min_size=3, max_size=3), min_size=3, max_size=3).map(
    np.array
)


def test_trace_and_det_basics():
    identity = np.eye(3, dtype=complex)
    assert trace(identity) == 3
    assert det(identity) == 1
    assert adjoint(identity) == pytest.approx(np.eye(3))
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
