"""Tour of the scalar, vector and tensor harmonics at a single point.

Evaluates Y_lm, X_lm and the rank-2 harmonic F_lm for a few modes,
prints the tensor layout, and checks the pointwise invariant identities
(trace, determinant, adjoint) that the construction guarantees.
"""

import numpy as np

from tensorwave import (
    ModeIndex,
    adjoint,
    det,
    flm,
    trace,
    xlm,
    ylm,
)

np.set_printoptions(precision=5, suppress=True, linewidth=100)

theta, phi = 1.1, 0.7

for l, m in [(0, 0), (1, 0), (2, 1), (3, -2)]:
    mode = ModeIndex(l, m)
    y = ylm(mode, theta, phi)
    x = xlm(mode, theta, phi)
    f = flm(mode, theta, phi)

    print(f"mode (l={l}, m={m}) at theta={theta}, phi={phi}")
    print(f"  Y = {y:.6f}")
    print(f"  X = {x}")
    print("  F =")
    for row in f:
        print("     ", row)

    # the three scalar invariants follow from Y and X alone
    x_dot_x = complex(np.sum(x * x))
    print(f"  trace F      = {trace(f):.6f}  (Y + 2 X_theta = {y + 2 * x[1]:.6f})")
    print(f"  det F        = {det(f):.6f}  (Y X.X        = {y * x_dot_x:.6f})")
    residual = np.max(np.abs(adjoint(f) @ f - det(f) * np.eye(3)))
    print(f"  |adj(F) F - det F 1| = {residual:.2e}")
    print()
