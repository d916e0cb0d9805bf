"""Synthesize a multipole field, then read its coefficients back.

Builds a superposition of outgoing partial waves with known
coefficients, samples the full electromagnetic field on a quadrature
sphere, projects the samples onto every tensor harmonic in one call, and
solves for the radial coefficients.  Recovery is exact to rounding; modes
absent from the input project to zero.
"""

import numpy as np

from tensorwave import (
    Medium,
    ModeIndex,
    PartialWave,
    QuadratureRule,
    RadialKind,
    multipole_amplitudes,
    project_sampled,
    recover_coefficients,
    synthesize,
)

k, r = 1.0, 2.0
medium = Medium(1.0, 1.0)
kinds = (RadialKind.HANKEL1, RadialKind.HANKEL2)

waves = [
    PartialWave(ModeIndex(1, 0), [1.0, 0.0], [0, 0], kinds),
    PartialWave(ModeIndex(1, 1), [0.0, 0.5j], [0, 0], kinds),
    PartialWave(ModeIndex(2, -1), [0.25, -0.3], [0, 0], kinds),
]
amps = multipole_amplitudes(waves)
print("input multipole amplitudes:")
for (l, m), a_e in sorted(amps.a_e.items()):
    print(f"  (l={l}, m={m}): a_E = {a_e}, a_M = {amps.a_m[(l, m)]}")

rule = QuadratureRule.for_degree(3)
points = [[r, th, ph] for th in rule.thetas for ph in rule.phis]
samples = synthesize(waves, k, medium, points)
print(f"\nsampled {len(samples)} points on the r = {r} sphere")

e_grid = np.array([s.e for s in samples]).reshape(len(rule.cos_nodes), rule.n_phi, 3)
h_grid = np.array([s.h for s in samples]).reshape(len(rule.cos_nodes), rule.n_phi, 3)

print("\nrecovered c1 per mode (zero rows are modes not present):")
modes = [ModeIndex(l, m) for l in range(1, 4) for m in range(-l, l + 1)]
hls, els = project_sampled(e_grid, h_grid, modes, rule)
for mode, c1 in zip(modes, recover_coefficients(hls, els, modes, k, r, medium, kinds)[0]):
    tag = " <- input" if any(w.mode == mode for w in waves) else ""
    print(f"  (l={mode.l}, m={mode.m:+d}): c1 = {np.round(c1, 12)}{tag}")
