"""Radial propagation of tangential field components through shells.

Starts from a closed-form solution in the inner medium and pushes it
through a two-shell dielectric profile, one closed-form transfer per
shell.  Tracks the radial power flux, which a lossless profile must
conserve, and the round trip out and back.
"""

import numpy as np

from tensorwave import (
    Medium,
    RadialKind,
    RadialProfile,
    fundamental_matrix,
    propagate,
    radial_flux,
)

l, k = 2, 1.0
profile = RadialProfile(
    boundaries=(2.0, 3.5),
    media=(Medium(2.25, 1.0), Medium(1.69, 1.0), Medium(1.0, 1.0)),
)
print(f"l = {l}, k = {k}, shells out to r = {profile.boundaries[-1]}")

# closed-form start: outgoing wave plus a regular admixture, so the
# state carries a nonzero net flux for the conservation check below
r0 = 1.0
phi0 = fundamental_matrix(
    l, RadialKind.HANKEL1, RadialKind.BESSEL_J, k, r0, profile.media[0]
)
c = np.array([1.0, 0.25j, -0.5, 0.8j])
w = phi0 @ c / r0  # (H_theta, H_phi, E_theta, E_phi)
print(f"start at r = {r0}: w = {np.round(w, 5)}")

flux0 = radial_flux(r0, w)
print(f"radial flux at start: {flux0:.6f}")
for r1 in (1.5, 2.0, 2.8, 3.5, 5.0):
    w1 = propagate(l, k, profile, r0, r1, w)
    flux1 = radial_flux(r1, w1)
    print(f"  r = {r1:4.1f}: flux drift {abs(flux1 - flux0) / abs(flux0):.2e}")

print("\nround trip there and back:")
w_out = propagate(l, k, profile, r0, 5.0, w)
w_back = propagate(l, k, profile, 5.0, r0, w_out)
err = np.max(np.abs(w_back - w))
print(f"  |w_back - w| = {err:.2e}")
