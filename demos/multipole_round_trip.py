"""Synthesize a multipole field, then read its coefficients back.

Builds a superposition of outgoing partial waves with known
coefficients, samples the full electromagnetic field on a quadrature
sphere, projects the samples onto every tensor harmonic in one call, and
solves for the radial coefficients.  Recovery is exact to rounding; modes
absent from the input project to zero.
"""

import numpy as np

from tensorwave import (
    KINDS,
    Medium,
    ModeIndex,
    QuadratureRule,
    RadialKind,
    WaveTable,
    project_sampled,
    recover_coefficients,
    synthesize,
)

k, r = 1.0, 2.0
medium = Medium(1.0, 1.0)
kinds = (RadialKind.HANKEL1, RadialKind.HANKEL2)

# outgoing multipoles: c1 on Hankel-1 holds (a_E, a_M), c2 = 0
waves = WaveTable(
    l=[1, 1, 2],
    m=[0, 1, -1],
    c=[[[1.0, 0.0], [0, 0]], [[0.0, 0.5j], [0, 0]], [[0.25, -0.3], [0, 0]]],
    kinds=[[KINDS.index(kind) for kind in kinds]] * 3,
)
print("input multipole amplitudes:")
for l, m, (a_e, a_m) in zip(waves.l, waves.m, waves.c[:, 0]):
    print(f"  (l={l}, m={m}): a_E = {a_e}, a_M = {a_m}")

rule = QuadratureRule.for_degree(3)
points = [[r, th, ph] for th in rule.thetas for ph in rule.phis]
e, h = synthesize(waves, k, medium, points)
print(f"\nsampled {len(e)} points on the r = {r} sphere")

e_grid = e.reshape(len(rule.cos_nodes), rule.n_phi, 3)
h_grid = h.reshape(len(rule.cos_nodes), rule.n_phi, 3)

print("\nrecovered c1 per mode (zero rows are modes not present):")
modes = [ModeIndex(l, m) for l in range(1, 4) for m in range(-l, l + 1)]
present = set(zip(waves.l.tolist(), waves.m.tolist()))
hls, els = project_sampled(e_grid, h_grid, modes, rule)
for mode, c1 in zip(modes, recover_coefficients(hls, els, modes, k, r, medium, kinds)[0]):
    tag = " <- input" if (mode.l, mode.m) in present else ""
    print(f"  (l={mode.l}, m={mode.m:+d}): c1 = {np.round(c1, 12)}{tag}")
