"""Quadrature orthonormality of the tensor harmonics, mode by mode.

Builds the full Gram tensor G[A, B] = integral of F_A^dagger F_B over
the sphere for all modes up to lmax and reports how far it sits from
the exact answer (the 3x3 identity on the diagonal, zero elsewhere).
The worst deviation per (l, l') block shows the quadrature is exact to
rounding for every pair, not just on average.
"""

import math

import numpy as np

from tensorwave import ModeIndex, QuadratureRule, flm

lmax = 4
modes = [ModeIndex(l, m) for l in range(1, lmax + 1) for m in range(-l, l + 1)]
rule = QuadratureRule.for_degree(lmax)
print(f"{len(modes)} modes, grid {len(rule.cos_nodes)} x {rule.n_phi}")

tt, pp = rule.thetas[:, None], rule.phis[None, :]
shape = (len(rule.cos_nodes), rule.n_phi, 3, 3)
stack = np.stack([np.broadcast_to(flm(mode, tt, pp), shape) for mode in modes])
w = np.broadcast_to(
    rule.weights[:, None] * (2.0 * math.pi / rule.n_phi), shape[:2]
)

gram = np.einsum("tp,atpki,btpkj->abij", w, stack.conj(), stack)
expected = np.einsum("ab,ij->abij", np.eye(len(modes)), np.eye(3))
dev = np.abs(gram - expected)

print("\nworst |G - expected| per (l, l') block:")
header = "l\\l' " + "".join(f"{lp:>10d}" for lp in range(1, lmax + 1))
print(header)
for l in range(1, lmax + 1):
    row = [f"{l:4d} "]
    ia = [a for a, mode in enumerate(modes) if mode.l == l]
    for lp in range(1, lmax + 1):
        ib = [b for b, mode in enumerate(modes) if mode.l == lp]
        row.append(f"{np.max(dev[np.ix_(ia, ib)]):10.1e}")
    print("".join(row))

print(f"\noverall max deviation: {np.max(dev):.2e}")
