"""Landau-level realization: rotated ladder operators on a truncated
two-mode oscillator, the up/down Hamiltonian pair, and the exact
conjugation intertwining them.

A truncated ladder cannot satisfy the canonical commutation relations
everywhere, so every identity is checked on the *interior* modes (total
excitation well below the cut), where truncation has not yet leaked in.

The joint vacuum is built in closed form and cross-checked against the
numerical kernel of the total number operator.

The script also demonstrates a sign variant of the rotated raising
operator that breaks the canonical commutation relations by exactly
-1/8 on the interior -- a useful witness that the corrected operator is
the right one.

Run:  python3 demos/02_landau_levels.py
"""

import numpy as np

from landau_modular import landau_modes as lm

NCUT = 24
cut = lm.ModeCut(NCUT)
mask = lm.interior_mask(cut)
print(f"-- two-mode cut at {NCUT} per mode, {int(mask.sum())} interior modes --\n")

ops = lm.build_A_pm(cut)
eye = lm.BandedOp(cut.dim, {0: np.ones(cut.dim)})

print("interior deviation of the canonical commutators:")
for name, p, q, target in [
    ("[A+,  A+*] - 1", ops.a_plus, ops.a_plus_dag, eye),
    ("[A-,  A-*] - 1", ops.a_minus, ops.a_minus_dag, eye),
    ("[A+,  A- ]    ", ops.a_plus, ops.a_minus, 0 * eye),
    ("[A+,  A-*]    ", ops.a_plus, ops.a_minus_dag, 0 * eye),
]:
    comm = p @ q - q @ p
    print(f"  {name} : {lm.interior_deviation(comm, target, mask):.3e}")

# two independent constructions of the same operators agree
alt = lm.build_A_pm_from_qp(cut)
print("\nladder construction vs. quadrature construction:",
      float(np.max(np.abs((ops.a_plus - alt.a_plus).entries()))))

# the sign variant fails by exactly -1/8
lit = lm.build_A_pm(cut, literal=True)
comm = lit.a_plus @ ops.a_minus_dag - ops.a_minus_dag @ lit.a_plus
print("sign-variant commutator [A+', A-*] (should be -1/8):",
      f"interior deviation from -I/8 = "
      f"{lm.interior_deviation(comm, -0.125 * eye, mask):.3e}")

# Hamiltonians
h = lm.hamiltonians(cut)
print("\n[H_up, H_down] on interior:     ",
      f"{lm.interior_deviation(h.h_up @ h.h_down - h.h_down @ h.h_up, 0 * eye, mask):.3e}")

# entrywise complex conjugation exchanges the two Hamiltonians exactly
print("|| conj(H_up) - H_down ||_max:  ",
      float(np.max(np.abs((h.h_up.conj() - h.h_down).entries()))))

# the joint vacuum: built in closed form (a two-mode squeezed state with
# tanh r = 1/3) and cross-checked against the eigensolved kernel of N+ + N-
vac = lm.squeezed_vacuum(cut)
print("\n1 - |<closed-form vacuum, eigensolved vacuum>|:",
      f"{1 - abs(np.vdot(vac, lm.ground_state(cut))):.3e}")

# joint eigenvectors and their truncation residuals
print("\neigenvalue residuals of the constructed joint eigenvectors")
print("(the closed-form vacuum is truncated at the cut, so residuals decay")
print("with the cut -- geometrically, since it is a squeezed state):")
for ncut in (16, 24, 32, 40, 64):
    c = lm.ModeCut(ncut)
    hh = lm.hamiltonians(c)
    psi = lm.fock_psi(c, 2, 1)
    r = float(np.linalg.norm(hh.h_up @ psi - 1.5 * psi))
    print(f"  ncut = {ncut:3d} : || (H_up - 3/2) psi_(2,1) || = {r:.3e}")

# degeneracy: fixed level l, varying n
c = lm.ModeCut(32)
hh = lm.hamiltonians(c)
print("\ndegenerate level l = 1 at ncut = 32:")
for n in range(3):
    psi = lm.fock_psi(c, n, 1)
    up = float(np.linalg.norm(hh.h_up @ psi - 1.5 * psi))
    dn = float(np.linalg.norm(hh.h_down @ psi - (n + 0.5) * psi))
    print(f"  n = {n}: H_up residual {up:.2e}, H_down residual {dn:.2e}")
