"""Walk through the modular structure on the Hilbert-Schmidt space of
N x N matrices equipped with a faithful Gibbs-type state.

The script builds the closure data (conjugation J, positive operator
Delta, antilinear involution S = J Delta^{1/2}), verifies the polar
identities, and shows the KMS boundary condition that characterises the
state with respect to the modular flow.

Run:  python3 demos/01_modular_structure.py
"""

import numpy as np

from landau_modular import modular_core as mc
from landau_modular.dense_linalg import frob
from landau_modular.hs_space import matrix_unit
from landau_modular.rng import SplitMix64

N = 8
BETA = 0.7

print(f"-- modular triple on B2(H) with dim H = {N}, beta = {BETA} --\n")

w = mc.build_weights(BETA, N)
t = mc.build_modular_triple(w)
phi = mc.cyclic_vector(w)

print("weights alpha_n (geometric, normalised):")
print("  ", np.array2string(w.alpha, precision=4))

# polar decomposition S = J Delta^{1/2}: J and S are X -> (W . X)* with
# N x N weights W, and Delta acts entrywise by the N x N array of its
# eigenvalues, so J after Delta^{1/2} has weight W_J . Delta^{1/2}, and
# S* S, antilinear after antilinear, is an entrywise multiplier
print("\n|| S - J Delta^(1/2) ||_F     =",
      frob(t.S.weight - t.J.weight * np.sqrt(t.delta)))
print("|| S*S - Delta ||_F           =", frob(t.S.adjoint() @ t.S - t.delta))

# the cyclic vector is fixed by J and by Delta
print("|| J phi - phi ||_F           =", frob(t.J(phi) - phi))
print("|| Delta phi - phi ||_F       =", frob(t.delta * phi - phi))

# S implements the star operation relative to the state:  S (X phi) = X* phi
rng = SplitMix64(7)
x = rng.complex_matrix(N)
lhs = t.S(x @ phi)
rhs = x.conj().T @ phi
print("|| S(X phi) - X* phi ||_F     =", frob(lhs - rhs))

# modular flow and the KMS condition
print("\n-- KMS boundary condition --")
a, b = rng.complex_matrix(N), rng.complex_matrix(N)
grid = np.linspace(-2.0, 2.0, 9)
dev = mc.kms_boundary_deviation(w, a, b, grid)
print("max_t | F(t + i beta) - G(t) | =", dev)

# on a matrix unit the flow is a pure phase
x01 = matrix_unit(N, 0, 1)
flowed = mc.modular_flow(w, 1.3, x01)
print("flow phase on E_01 at t=1.3    =", flowed[0, 1],
      " (expected e^{-1.3 i} =", np.exp(-1.3j), ")")

# the state is invariant under the flow
inv = abs(mc.state_eval(w, mc.modular_flow(w, 0.9, a)) - mc.state_eval(w, a))
print("state invariance deviation     =", inv)

# centralizer: exactly the diagonal matrices for distinct weights
diag = np.diag(rng.complex_matrix(N).diagonal())
member, _ = mc.centralizer_member(w, diag)
print("\ndiagonal matrix in centralizer:", member)
member, witness = mc.centralizer_member(w, rng.complex_matrix(N))
print("generic matrix in centralizer: ", member, " witness entry:", witness)
