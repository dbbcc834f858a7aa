"""Complex Hermite polynomials in exact rational arithmetic, and the
Gaussian quadrature rule on the complex plane that integrates them.

The polynomial module works over Gaussian rationals, so every identity
below is checked with *zero* numerical error: three independent
constructions (recursion, Rodrigues formula, explicit double sum),
the raising and number operators, symmetry, and the contiguous relation.

The quadrature rule (Gauss-Laguerre radially x uniform angularly,
against the normalised Gaussian weight) then reproduces the mixed
moments and the orthonormality of the normalised polynomials in floating
point.

Run:  python3 demos/03_hermite_and_quadrature.py
"""

from fractions import Fraction

import numpy as np

from landau_modular import cgauss_quad as quad
from landau_modular import complex_hermite as chp

print("-- exact identities over Gaussian rationals --\n")

deg = 8
ok = all(chp.ch_recursion(n, k) == chp.ch_rodrigues(n, k) == chp.ch_explicit(n, k)
         for n in range(deg + 1) for k in range(deg + 1))
print(f"recursion == Rodrigues == explicit sum for n,k <= {deg}:", ok)

# the sign variant of the explicit sum already fails at (1,1), by a constant
diff = chp.ch_explicit(1, 1, literal=True) - chp.ch_rodrigues(1, 1)
print("sign-variant explicit sum at (1,1) differs by:", diff.terms)

h23 = chp.ch_recursion(2, 3)
print("\nH_{2,3}(zbar, z) =", dict(sorted(h23.terms.items())))

print("\neigen-relations (all exact):")
print("  n_plus  H_{2,3} == 2 H_{2,3}:",
      chp.number_apply("n_plus", h23) == h23.scale(2))
print("  n_minus H_{2,3} == 3 H_{2,3}:",
      chp.number_apply("n_minus", h23) == h23.scale(3))
half = Fraction(1, 2)
print("  (n_minus + 1/2) H_{2,3} == 7/2 H_{2,3}:",
      chp.number_apply("n_minus", h23) + h23.scale(half) == h23.scale(Fraction(7, 2)))

print("  raising ladder: (a_plus_dag)^2 H_{0,3} == H_{2,3}:",
      chp.a_plus_dag(chp.a_plus_dag(chp.ch_recursion(0, 3))) == h23)

print("  symmetry H_{n,k}(zbar,z) = conj-index swap of H_{k,n}:",
      {(j, m): c for (m, j), c in h23.terms.items()} == chp.ch_recursion(3, 2).terms)

print("\n-- quadrature on the complex plane --\n")
rule = quad.build_rule(20, 32)
print(f"rule: {rule.nodes.shape[0]} nodes, weights sum to",
      float(rule.weights.sum()))

print("\nmixed Gaussian moments (m, k) -> integral of zbar^m z^k:")
for m, k in ((0, 0), (1, 1), (2, 2), (3, 1), (4, 4)):
    got = quad.integrate_values(rule, rule.nodes.conj() ** m * rule.nodes ** k)
    exact = quad.gauss_moment(m, k)
    print(f"  ({m},{k}): got {got:+.12f}, exact {exact:+.1f},"
          f" covered by certificate: {quad.covers(rule, m, k)}")

print("\northonormality of normalised complex Hermite functions:")
M = 6
vals = quad.basis_values(rule.nodes, M - 1).reshape(M * M, -1)  # row n * M + k: B[n, k]
gram = (vals * rule.weights) @ vals.conj().T
dev = float(np.max(np.abs(gram - np.eye(M * M))))
print(f"  max | <H_a, H_b> - delta_ab | for degrees < {M}: {dev:.3e}")
