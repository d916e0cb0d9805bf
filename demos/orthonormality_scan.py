"""Quadrature orthonormality of the tensor harmonics, mode by mode.

Builds the full Gram tensor G[A, B] = integral of F_A^dagger F_B over
the sphere for all modes up to lmax and reports how far it sits from
the exact answer (the 3x3 identity on the diagonal, zero elsewhere).
The worst deviation per (l, l') block shows the quadrature is exact to
rounding for every pair, not just on average.
"""

import math

import numpy as np

from tensorwave import QuadratureRule, flm

lmax = 4
ls, ms = np.array([(l, m) for l in range(1, lmax + 1) for m in range(-l, l + 1)]).T
rule = QuadratureRule.for_degree(lmax)
print(f"{len(ls)} modes, grid {len(rule.cos_nodes)} x {rule.n_phi}")

# every mode in one call: the mode axis first, then the (theta, phi) grid
stack = flm(ls, ms, rule.thetas[:, None], rule.phis[None, :])
w = np.broadcast_to(
    rule.weights[:, None] * (2.0 * math.pi / rule.n_phi), stack.shape[1:3]
)

gram = np.einsum("tp,atpki,btpkj->abij", w, stack.conj(), stack)
expected = np.einsum("ab,ij->abij", np.eye(len(ls)), np.eye(3))
dev = np.abs(gram - expected)

print("\nworst |G - expected| per (l, l') block:")
header = "l\\l' " + "".join(f"{lp:>10d}" for lp in range(1, lmax + 1))
print(header)
for l in range(1, lmax + 1):
    row = [f"{l:4d} "]
    ia = np.flatnonzero(ls == l)
    for lp in range(1, lmax + 1):
        ib = np.flatnonzero(ls == lp)
        row.append(f"{np.max(dev[np.ix_(ia, ib)]):10.1e}")
    print("".join(row))

print(f"\noverall max deviation: {np.max(dev):.2e}")
