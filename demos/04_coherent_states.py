"""Bi-coherent states, resolutions of identity, and the modular data
they induce on the truncated two-index coefficient space.

Coefficient arrays c[n, k] represent vectors in the joint number basis.
Each is a plain (M+1) x (M+1) array, an element of the Hilbert-Schmidt
space HS(C^(M+1)): its norm is the Frobenius norm, and its modular data
are modular_core's on M+1 levels (the thermal vector is cyclic_vector, the
modular conjugation J is conjugation_J, the adjoint c -> c*).  The
anti-holomorphic sector is the column c[:, 0], the holomorphic one the
row c[0, :], and the maps between them are (M+1) x (M+1) matrices: the
moment matrix G of the quadrature rule or its conjugate.  Three families
of coherent states (anti-holomorphic-sector, holomorphic-sector, and the
full bi-coherent family) each resolve the identity on their sector when
integrated against the Gaussian quadrature rule; the rule must carry an
exactness certificate covering the required moments or the computation
refuses to run.

Run:  python3 demos/04_coherent_states.py
"""

import math

import numpy as np

from landau_modular import cgauss_quad as quad
from landau_modular import coherent_states as cs
from landau_modular import modular_core as mc
from landau_modular.dense_linalg import frob

M = 8
BETA = 0.7
rule = quad.build_rule(24, 28)

print(f"-- coefficient space cut at {M} per index --\n")

u, v = 0.4 + 0.2j, -0.3 + 0.8j
c = cs.bcs(u, v, M)
print("bi-coherent coefficient c[2,3]      =", c[2, 3])
print("predicted v^2 ubar^3 / sqrt(2! 3!)  =",
      v ** 2 * np.conj(u) ** 3 / math.sqrt(12.0))

# every sector integral below is the moment matrix G of the rule, its
# conjugate or a block of it, built once
g = cs.moment_matrix(rule, M)
print("\nresolutions of identity (max deviation from the identity matrix):")
for which, p in (("a-hol", g), ("hol", g.conj()), ("bcs", np.kron(g, g.conj()))):
    print(f"  {which:5s}: {float(np.max(np.abs(p - np.eye(p.shape[0])))):.3e}")

small = quad.build_rule(2, 3)
try:
    cs.moment_matrix(small, M)
except ValueError as exc:
    print("\nan under-resolved rule is refused:")
    print("  ", exc)

print("\nantilinear partial isometry between the two sectors:")
# each map is its linear part K on the sector: column c[:, 0] -> row c[0, :]
# as v -> K @ conj(v) with K = conj(G), and the reverse with K = G
iso, rev = g.conj(), g
v = np.zeros(M + 1, dtype=complex)
v[2] = 1j
img = iso @ v.conj()
print("  image of i * e_(2,0) has c[0,2]   =", img[2], " (antilinear: -i)")
comp = rev @ iso.conj()
print("  reverse o forward vs projector    =",
      float(np.max(np.abs(comp - np.eye(M + 1)))))

print("\nvector coherent states: truncation residuals vs. a priori bound")
for z, mm in ((1.0, 20), (1.4 - 0.9j, 12)):
    res_a, res_b, bound = cs.vector_cs_check(z, mm)
    print(f"  z = {z}, cut {mm}: residuals ({res_a:.2e}, {res_b:.2e}),"
          f" bound {bound:.2e}")

print(f"\nmodular data at beta = {BETA}:")
absolute, relative = cs.modular_spectral_errors(BETA, M)
print("  spectral consistency of Delta with the flow:", f"{absolute:.3e}",
      f"(relative to the eigenvalues: {relative:.3e})")

# the thermal vector of the coefficient space at cutoff 12 is the Gibbs
# cyclic vector on 13 levels, and J is the Gibbs conjugation there
chi = mc.cyclic_vector(mc.build_weights(BETA, 13))
print("  chi is normalised:", abs(frob(chi) - 1.0) < 1e-14,
      " and fixed by the conjugation J:",
      float(np.max(np.abs(mc.conjugation_J(13)(chi) - chi))) == 0.0)
print("  its diagonal entry 0 vs the untruncated sqrt(1 - e^-beta):",
      chi[0, 0].real, math.sqrt(1.0 - math.exp(-BETA)))

print("\ndisplacement operator factorisation:")
alpha = 0.5 + 0.3j
print("  deviation at alpha = 0.5 + 0.3i, cut 40:",
      f"{cs.displacement_check(alpha, cs.displacement_operator(alpha, 40)):.3e}")
alpha = 0.4 - 0.6j
col = cs.displacement_operator(alpha, 32)[:, 0]
expect = math.exp(-abs(alpha) ** 2 / 2.0) * alpha ** 3 / math.sqrt(6.0)
print("  D(alpha) vacuum column entry 3:", col[3], " expected:", expect)
