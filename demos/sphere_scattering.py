"""Plane-wave-style scattering off a homogeneous dielectric sphere.

Feeds regular incident partial waves of every l into the sphere-matching
solver at once and prints the resulting Mie-type coefficients a_l
(electric) and b_l (magnetic) for two size parameters.  For a lossless sphere each
coefficient must sit on the unitarity circle |a - 1/2| = 1/2, which the
last column reports.  Efficiencies follow from the standard partial
wave sums.
"""

import math

from tensorwave import Medium, match_sphere

host = Medium(1.0, 1.0)
k = 1.0
refractive_index = 1.33

for x in (0.5, 3.0):
    sphere = Medium(refractive_index**2, 1.0)
    lmax = max(4, math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))
    print(f"\nsize parameter x = {x}, n = {refractive_index}, lmax = {lmax}")
    print(f"{'l':>3} {'a_l':>24} {'b_l':>24} {'|a-1/2|-1/2':>12}")

    # scattered c1 of a unit (1, 1) regular incident wave is (-a_l, -b_l)
    scattered, _ = match_sphere(lmax, k, sphere, host, x, [1.0, 1.0])
    qext = qsca = 0.0
    for l, (a, b) in enumerate(-scattered, start=1):
        unitarity = max(abs(abs(a - 0.5) - 0.5), abs(abs(b - 0.5) - 0.5))
        print(f"{l:>3} {a:>24.3e} {b:>24.3e} {unitarity:>12.1e}")
        qext += (2 * l + 1) * (a + b).real
        qsca += (2 * l + 1) * (abs(a) ** 2 + abs(b) ** 2)

    qext *= 2.0 / x**2
    qsca *= 2.0 / x**2
    print(f"extinction efficiency {qext:.6f}, scattering {qsca:.6f}, "
          f"difference {abs(qext - qsca):.1e} (lossless: zero)")
