"""Complex 3-vector and 3x3 tensor algebra over the local spherical frame.

Components are always ordered (r, theta, phi) against the right-handed
orthonormal triad (e_r, e_theta, e_phi) with e_r x e_theta = e_phi.
Vectors are numpy arrays of shape (3,), tensors of shape (3, 3), both
complex dtype; `trace`, `det` and `adjoint` also take stacks of tensors
of shape (..., 3, 3).  Every function is pure and never mutates its
arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trace", "det", "adjoint"]


def trace(t):
    """Trace over the last two axes; leading axes are kept."""
    t = np.asarray(t)
    return t[..., 0, 0] + t[..., 1, 1] + t[..., 2, 2]


def det(t):
    """Determinant by cofactor expansion along the first row, over the last
    two axes."""
    t = np.asarray(t, dtype=complex)
    return (
        t[..., 0, 0] * (t[..., 1, 1] * t[..., 2, 2] - t[..., 1, 2] * t[..., 2, 1])
        - t[..., 0, 1] * (t[..., 1, 0] * t[..., 2, 2] - t[..., 1, 2] * t[..., 2, 0])
        + t[..., 0, 2] * (t[..., 1, 0] * t[..., 2, 1] - t[..., 1, 1] * t[..., 2, 0])
    )


def adjoint(t) -> np.ndarray:
    """Adjugate tensor: adjoint(T) @ T == T @ adjoint(T) == det(T) * identity.

    Column i is the cross product of the other two rows of T, so there is
    no pivoting and no trouble with singular T (the adjugate of a
    rank-deficient tensor is still well defined).  Acts over the last two
    axes.
    """
    t = np.asarray(t, dtype=complex)
    r0, r1, r2 = t[..., 0, :], t[..., 1, :], t[..., 2, :]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)
