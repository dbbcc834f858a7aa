"""The modular suite: the Tomita-Takesaki data of the Gibbs state on
Hilbert-Schmidt space, J and S on the thermal vector and on seeded
operators, the modular flow and its generator, the commutants of the left
and right algebras, and the centralizer of the state.
"""

from __future__ import annotations

import numpy as np

from . import modular_core as mc
from .dense_linalg import adjoint, frob
from .hs_space import (commutant_basis, commutant_dim_within, hs_inner, in_span, matrix_unit,
                       sandwich_superop)
from .rng import SplitMix64
from .suites import Report, SuiteConfig


def run(cfg: SuiteConfig) -> Report:
    s = Report("modular", cfg)
    w = mc.build_weights(cfg.beta, cfg.dim)
    triple = mc.build_modular_triple(w)
    phi = mc.cyclic_vector(w)
    rng = SplitMix64(cfg.seed)

    s.check("cyclic_fixed_by_j", "J Phi = Phi",
            frob(triple.J(phi) - phi), 1e-13)

    # each operand is drawn inside the comprehension that uses it, so the
    # lists hold errors, not matrices
    # Phi is diagonal, so A Phi scales the columns of A by its diagonal
    phi_diag = phi.diagonal()
    s.check("s_conjugates_orbit", "S(A Phi) = A* Phi",
            [frob(triple.S(a * phi_diag) - adjoint(a) * phi_diag)
             for _ in range(20) for a in [rng.complex_matrix(cfg.dim)]], 1e-11)

    # (|<Jx, Jy> - conj(<x, y>)|, ||x|| ||y||, |<x, x> / ||x||^2 - 1|), 10 pairs
    pairs = [(abs(hs_inner(triple.J(x), triple.J(y)) - np.conj(hs_inner(x, y))),
              frob(x) * frob(y), abs(hs_inner(x, x) / np.sum(x.real**2 + x.imag**2) - 1))
             for _ in range(10) for x in [rng.complex_matrix(cfg.dim)]
             for y in [rng.complex_matrix(cfg.dim)]]
    s.check("j_antiunitary", "<Jx, Jy> = conj(<x, y>)",
            [err for err, _, _ in pairs], 1e-11)
    # J is exact (a conjugate transpose), so both sides sum the same N^2
    # products in two orders.  The seeded entries lie in the unit square, so
    # <x, y> grows as N^2 / 2 and so does its rounding (2.9e-11 at dim 512);
    # relative to ||x|| ||y|| >= |<x, y>| it is at most about 2(N + 2) eps
    # (two dot products of length N per trace), and measured 0.75 eps at
    # every dim from 16 to 1014.  1e-12 is that worst case up to N = 2000.
    s.check("j_antiunitary_relative",
            "<Jx, Jy> = conj(<x, y>) relative to ||x|| ||y||",
            [err / norms for err, norms, _ in pairs], 1e-12)
    # fails for an inner product without its conjugation, which j_antiunitary
    # passes.  Tr[x* x] rounds by at most N eps relative (nonnegative terms);
    # ||x||^2 is a pairwise sum, with no BLAS, so it does not vary with the
    # thread count.  Measured 1 to 2 eps at dims 16 to 1024; 1e-12 covers N = 4000
    s.check("hs_inner_norm", "<x, x> = ||x||^2 relative to ||x||^2",
            [rel for _, _, rel in pairs], 1e-12)

    s.check("state_flow_invariant", "phi(sigma_t(A)) = phi(A)",
            [abs(mc.state_eval(w, mc.modular_flow(w, t, a)) - mc.state_eval(w, a))
             for t in (-1.5, 0.4, 2.0) for a in [rng.complex_matrix(cfg.dim)]],
            1e-12)

    a = rng.complex_matrix(cfg.dim)
    t = 0.8
    # U = flow_superop is diagonal in the matrix-unit basis, with multiplier
    # d, so U(A v I)U* X = d . (A (conj(d) . X)): compare it with
    # sigma_t(A) X on three seeded X, one matrix product a side.  Each entry
    # of a product sums N terms, so the rounding grows as eps N: about 2e-15
    # at dim 16 and 4e-14 at dim 1024, against the fixed 1e-12
    d = mc.flow_superop(w, t)
    sig = mc.modular_flow(w, t, a)

    def flow_action_error() -> float:
        # two N x N buffers, updated in place; X is dropped before the
        # moduli are taken, so no more than three N x N arrays are alive
        x = rng.complex_matrix(cfg.dim)
        rhs = np.conjugate(d)
        rhs *= x
        lhs = a @ rhs
        lhs *= d
        np.matmul(sig, x, out=rhs)
        del x
        lhs -= rhs
        return float(np.max(np.abs(lhs)))

    s.check("flow_preserves_left_algebra",
            "sigma_t(A v I) = sigma_t(A) v I",
            [flow_action_error() for _ in range(3)], 1e-12)

    # bigH E_ij = [H, E_ij] = (E_i - E_j) E_ij: bigH = -log(Delta) / beta from
    # the weights, against the exact spectrum E_n = n that the flow and the
    # KMS function read.  Its error is about eps / beta (3.1e-12 at beta 1e-4)
    gen_err = np.abs(triple.big_h - np.subtract.outer(w.energies, w.energies))
    s.check("generator_eigenvalues",
            "bigH eigenvalue on E_ij = E_i - E_j, the Gibbs energy difference",
            gen_err, 1e-12)
    # the same error against c eps (1 + max|log Delta|) / beta (u = eps / 2).
    # alpha_i / alpha_j is off by at most (beta (i + j) + 7) u relative: the
    # exponents beta i and beta j round, and the two exps (2 u each), the two
    # divisions by Z and the quotient add 7 u.  log and / beta carry that as
    # (i + j + 7 / beta) u and add u |i - j| each: at most
    # u (4 (N - 1) + 7 / beta) <= 3.5 eps (1 + max|log Delta|) / beta, with
    # max|log Delta| = beta (N - 1).  So c = 4; measured at most 1.85 for
    # beta from 1e-9 to 4 and dims 16 to 1024
    log_spread = float(np.max(np.abs(np.log(triple.delta))))
    s.check("generator_eigenvalues_conditioned",
            "bigH eigenvalue on E_ij = E_i - E_j, relative to (1 + max|log Delta|) / beta",
            gen_err * (w.beta / (1 + log_spread)), 4 * np.finfo(float).eps)

    # real matrix units, so the commutant is found by a real factorization
    n3 = 3
    units = [matrix_unit(n3, i, j).real for i in range(n3) for j in range(n3)]
    gens_left = [sandwich_superop(e, np.eye(n3)) for e in units]
    dim_l, basis = commutant_basis(gens_left)
    right = [sandwich_superop(np.eye(n3), e) for e in units]
    ok = (dim_l == n3 * n3) and all(in_span(basis, r) for r in right)
    s.check("commutant_of_left_algebra",
            "commutant of {E_ij v I} is {I v E_ij}", 0.0 if ok else 1.0, 0.5)
    # (A u B)' = A' n B': the joint commutant is the commutant of the right
    # algebra inside the left one's
    dim_joint = commutant_dim_within(basis, right)
    s.check("joint_commutant_scalar",
            "joint commutant of both algebras is the scalars",
            0.0 if dim_joint == 1 else 1.0, 0.5)

    # the two predicates below take all() of a list, not of a generator, so
    # every sample draws its operand whatever the earlier samples gave
    w8 = mc.build_weights(cfg.beta, 8)

    def outside_with_witness(b: np.ndarray) -> bool:
        member, witness = mc.centralizer_member(w8, b)
        return (not member) and witness is not None and abs(b[witness]) > 0

    diag_b = np.diag(rng.complex_matrix(8).diagonal())
    ok = all([mc.centralizer_member(w8, diag_b)[0],
              *[outside_with_witness(rng.complex_matrix(8)) for _ in range(20)]])
    s.check("centralizer_predicate",
            "B in the centralizer iff [B, rho] = 0 iff B diagonal",
            0.0 if ok else 1.0, 0.5)

    w4 = mc.build_weights(cfg.beta, 4)
    units4 = [matrix_unit(4, k, l) for k in range(4) for l in range(4)]

    def oracle_agrees(b: np.ndarray) -> bool:
        member, _ = mc.centralizer_member(w4, b)
        # exhaustive oracle: phi([B v I, E_kl v I]) = 0 for all k, l
        pair_dev = np.max([abs(mc.state_eval(w4, b @ e - e @ b)) for e in units4],
                          initial=0.0)
        return member == (pair_dev <= mc.CENTRALIZER_TOL)

    ok = all([oracle_agrees(np.diag(np.diag(b)) if trial % 2 == 0 else b)
              for trial in range(6) for b in [rng.complex_matrix(4)]])
    s.check("centralizer_pairing_oracle",
            "phi([B v I, A v I]) = 0 for all A iff B commutes with rho",
            0.0 if ok else 1.0, 0.5)
    return s
