"""Acceptance gate: one test per numbered criterion, at the stated
tolerances.  Each test asserts a single pass/fail line's worth of content;
run with -v to see the per-criterion verdicts.
"""

import math
import os
import subprocess
import sys

import numpy as np
from scipy.special import eval_genlaguerre

from landau_modular import cgauss_quad as quad
from landau_modular import coherent_states as cs
from landau_modular import complex_hermite as chp
from landau_modular import landau_modes as lm
from landau_modular import modular_core as mc
from landau_modular.dense_linalg import frob
from landau_modular.hs_space import (
    commutant_basis,
    in_span,
    matrix_unit,
    sandwich_superop,
)
from landau_modular.rng import SplitMix64

N = 16
BETA = 0.7


def test_criterion_01_modular_triple():
    w = mc.build_weights(BETA, N)
    t = mc.build_modular_triple(w)
    phi = mc.cyclic_vector(w)
    # S = J Delta^(1/2) on the weights and in action, Delta = S* S
    assert frob(t.S.weight - t.J.weight * np.sqrt(t.delta)) <= 1e-12
    x = SplitMix64(42).complex_matrix(N)
    assert frob(t.S(x) - t.J(np.sqrt(t.delta) * x)) <= 1e-12
    assert frob(t.S.adjoint() @ t.S - t.delta) <= 1e-12
    assert frob(t.J(phi) - phi) <= 1e-13
    assert np.linalg.norm(t.delta * phi - phi) <= 1e-13


def test_criterion_02_kms_boundary():
    w = mc.build_weights(BETA, N)
    rng = SplitMix64(42)
    grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for _ in range(20):
        a = rng.complex_matrix(N)
        b = rng.complex_matrix(N)
        assert mc.kms_boundary_deviation(w, a, b, grid) <= 1e-10
    x01, x10 = matrix_unit(N, 0, 1), matrix_unit(N, 1, 0)
    for t in grid:
        f = mc.kms_function(w, x01, x10, complex(t))
        assert abs(f - w.alpha[0] * np.exp(1j * t)) <= 1e-13
        f = mc.kms_function(w, x01, x10, complex(t, BETA))
        assert abs(f - w.alpha[1] * np.exp(1j * t)) <= 1e-13


def test_criterion_03_commutant_brute_force():
    n = 3
    eye = np.eye(n)
    left = [sandwich_superop(matrix_unit(n, i, j), eye)
            for i in range(n) for j in range(n)]
    right = [sandwich_superop(eye, matrix_unit(n, i, j))
             for i in range(n) for j in range(n)]
    dim, basis = commutant_basis(left)
    assert dim == 9
    assert all(in_span(basis, r) for r in right)
    dim_joint, _ = commutant_basis(left + right)
    assert dim_joint == 1


def test_criterion_04_centralizer():
    w = mc.build_weights(BETA, 8)
    rng = SplitMix64(42)
    diag = np.diag(rng.complex_matrix(8).diagonal())
    member, _ = mc.centralizer_member(w, diag)
    assert member
    for _ in range(20):
        b = rng.complex_matrix(8)
        member, witness = mc.centralizer_member(w, b)
        assert not member
        i, j = witness
        assert i != j and b[i, j] != 0
    w4 = mc.build_weights(BETA, 4)
    for trial in range(8):
        b = rng.complex_matrix(4)
        if trial % 2 == 0:
            b = np.diag(np.diag(b))
        member, _ = mc.centralizer_member(w4, b)
        oracle = max(abs(mc.state_eval(w4, b @ matrix_unit(4, k, l)
                                       - matrix_unit(4, k, l) @ b))
                     for k in range(4) for l in range(4))
        assert member == (oracle <= 1e-10)


def test_criterion_05_hermite_three_way():
    for n in range(13):
        for k in range(13):
            r = chp.ch_recursion(n, k)
            assert r == chp.ch_rodrigues(n, k)
            assert r == chp.ch_explicit(n, k)
    diff = chp.ch_explicit(1, 1, literal=True) - chp.ch_rodrigues(1, 1)
    assert diff == chp.poly_const(2)


def test_criterion_06_hermite_identity_suite():
    from fractions import Fraction
    for n in range(9):
        for k in range(9):
            h = chp.ch_recursion(n, k)
            # symmetry
            assert {(j, m): c for (m, j), c in h.terms.items()} == \
                chp.ch_recursion(k, n).terms
            # contiguous
            assert h.scale(k - n) == (chp.mul_zbar(chp.ch_recursion(n, k + 1))
                                      - chp.mul_z(chp.ch_recursion(n + 1, k)))
            # number and level eigenvalues
            assert chp.number_apply("n_plus", h) == h.scale(n)
            assert chp.number_apply("n_minus", h) == h.scale(k)
            up = chp.number_apply("n_minus", h) + h.scale(Fraction(1, 2))
            assert up == h.scale(Fraction(2 * k + 1, 2))
            down = chp.number_apply("n_plus", h) + h.scale(Fraction(1, 2))
            assert down == h.scale(Fraction(2 * n + 1, 2))
    # ladder generation
    for k in range(9):
        p = chp.ch_recursion(0, k)
        for n in range(9):
            assert p == chp.ch_recursion(n, k)
            p = chp.a_plus_dag(p)


def test_criterion_07_quadrature_exactness():
    rule = quad.build_rule(40, 64)
    for m in range(13):
        for k in range(13):
            got = quad.integrate_values(
                rule, rule.nodes.conj() ** m * rule.nodes ** k)
            # tolerance scaled by the moment magnitude; the raw absolute
            # bound is unreachable in doubles once the cancelled terms
            # reach ((m+k)/2)! ~ 1e8 (see the decisions ledger)
            scale = max(1.0, math.gamma((m + k) / 2.0 + 1.0))
            assert abs(got - quad.gauss_moment(m, k)) <= 1e-12 * scale
    deg = 12
    m1 = deg + 1
    z = rule.nodes
    h = np.empty((m1, m1, z.shape[0]), dtype=complex)
    h[0, 0] = 1.0
    for k in range(1, m1):
        h[0, k] = z * h[0, k - 1]
    for n in range(1, m1):
        h[n, 0] = z.conj() * h[n - 1, 0]
        for k in range(1, m1):
            h[n, k] = z.conj() * h[n - 1, k] - k * h[n - 1, k - 1]
    vals = np.array([h[n, k] / math.sqrt(math.factorial(n) * math.factorial(k))
                     for n in range(m1) for k in range(m1)])
    gram = (vals * rule.weights) @ vals.conj().T
    assert np.max(np.abs(gram - np.eye(m1 * m1))) <= 1e-10


def test_criterion_08_resolutions_of_identity():
    # the sector resolutions are G and conj(G), the bi-coherent one
    # kron(G, conj(G))
    g = cs.moment_matrix(quad.build_rule(40, 64), 10)
    assert np.max(np.abs(g - np.eye(11))) <= 1e-10
    assert np.max(np.abs(g.conj() - np.eye(11))) <= 1e-10
    g8 = g[:9, :9]
    assert np.max(np.abs(np.kron(g8, g8.conj()) - np.eye(81))) <= 1e-10


def test_criterion_09_landau_ccr_suite():
    cut = lm.ModeCut(16)
    mask = lm.interior_mask(cut)
    ops = lm.build_A_pm(cut)
    eye = lm.BandedOp(cut.dim, {0: np.ones(cut.dim)})
    for p, q, target in [
        (ops.a_plus, ops.a_plus_dag, eye),
        (ops.a_minus, ops.a_minus_dag, eye),
        (ops.a_plus, ops.a_minus, 0 * eye),
        (ops.a_plus, ops.a_minus_dag, 0 * eye),
        (ops.a_plus_dag, ops.a_minus, 0 * eye),
        (ops.a_plus_dag, ops.a_minus_dag, 0 * eye),
    ]:
        comm = p @ q - q @ p
        assert lm.interior_deviation(comm, target, mask) <= 1e-12
    lit = lm.build_A_pm(cut, literal=True)
    comm = lit.a_plus @ ops.a_minus_dag - ops.a_minus_dag @ lit.a_plus
    assert lm.interior_deviation(comm, -0.125 * eye, mask) <= 1e-12


def test_criterion_10_spectral_degeneracy():
    # The joint eigenvectors rest on the closed-form vacuum, whose
    # truncation residual decays geometrically with the cut (it is a
    # two-mode squeezed state with tanh r = 1/3).  At cut 16 the worst
    # residual over n + l <= 6 is 0.29; the first cut below 1e-9 is 62, so
    # the bound is asserted at cut 64, the default --ncut (worst 2.4e-10).
    cut = lm.ModeCut(64)
    h = lm.hamiltonians(cut)
    for n in range(7):
        for l in range(7):
            if n + l > 6:
                continue
            psi = lm.fock_psi(cut, n, l)
            assert np.linalg.norm(h.h_up @ psi - (l + 0.5) * psi) <= 1e-9
            assert np.linalg.norm(h.h_down @ psi - (n + 0.5) * psi) <= 1e-9


def _displacement_element(l, n, x, y):
    """<l|D(alpha)|n> with alpha = i(x + iy)/sqrt2, by the Laguerre form
    of Cahill & Glauber, Phys. Rev. 177, 1857 (1969)."""
    alpha = 1j * (x + 1j * y) / math.sqrt(2.0)
    r2 = abs(alpha) ** 2
    if l >= n:
        pre = math.sqrt(math.factorial(n) / math.factorial(l)) * alpha ** (l - n)
        lag = eval_genlaguerre(n, l - n, r2)
    else:
        pre = (math.sqrt(math.factorial(l) / math.factorial(n))
               * (-alpha.conjugate()) ** (n - l))
        lag = eval_genlaguerre(l, n - l, r2)
    return pre * math.exp(-r2 / 2.0) * lag


def test_criterion_11_wigner_cross_check():
    # The printed closed form omits a phase i^(n+l) and swaps the
    # polynomial indices, so the samples are checked against the corrected
    # form, and that form against the Laguerre matrix elements of the
    # displacement operator, a reference independent of this library.
    # The erratum stays visible: at n = l = 1 the sample <1|D|1> is real
    # and invariant under any re-phasing of the basis, and the printed form
    # returns its exact negative.
    grid = np.linspace(-2.0, 2.0, 5)
    for n in range(4):
        for l in range(4):
            x_op = matrix_unit(4, n, l)
            for x in grid.tolist():
                for y in grid.tolist():
                    got = lm.wigner_sample(x_op, x, y, 64)
                    (stated,), (corrected,) = lm.wigner_closed_form([(n, l)], x, y)
                    reference = (_displacement_element(l, n, x, y)
                                 / math.sqrt(2.0 * math.pi))
                    assert abs(got - corrected) <= 1e-6
                    assert abs(corrected - reference) <= 1e-6
                    if n == l == 1:
                        assert abs(got + stated) <= 1e-6


def test_criterion_12_modular_coherent_consistency():
    m = 10
    assert cs.modular_spectral_errors(BETA, m)[0] <= 1e-12
    w = mc.build_weights(BETA, m + 1)
    for n in range(m + 1):
        for l in range(m + 1):
            assert abs(math.exp(-BETA * (n - l)) - w.alpha[n] / w.alpha[l]) <= 1e-12
    # conjugation intertwines the two diagonal level operators exactly
    # the swap sends flattened index k*(m+1) + n to n*(m+1) + k
    r = np.arange((m + 1) ** 2)
    jmat = np.eye((m + 1) ** 2)[(r % (m + 1)) * (m + 1) + r // (m + 1)]
    up = np.diag([k + 0.5 for n in range(m + 1) for k in range(m + 1)])
    down = np.diag([n + 0.5 for n in range(m + 1) for k in range(m + 1)])
    assert np.max(np.abs(jmat @ up @ jmat - down)) == 0.0
    # the thermal vector of the coefficient space is the Gibbs cyclic vector
    # on m + 1 levels, fixed by the conjugation
    phi = mc.cyclic_vector(mc.build_weights(BETA, m + 1))
    assert np.max(np.abs(mc.conjugation_J(m + 1)(phi) - phi)) <= 1e-13


def _reports_on_two_and_one_threads(tmp_path, *args):
    # Both thread counts are set here, so an environment that pins BLAS to
    # one thread (as CI does) still compares two threads with one.
    outputs = []
    for threads in ("2", "1"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"{'_'.join(args)}_{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "landau_modular", "verify", *args,
             "--seed", "42", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode in (0, 1)
        outputs.append(out.read_bytes())
    return outputs


def test_criterion_13_determinism(tmp_path):
    two, one = _reports_on_two_and_one_threads(tmp_path, "all")
    assert two == one


def test_criterion_13_determinism_at_reach(tmp_path):
    # the reach configurations: the phase-space rotation is a BLAS product at
    # ncut 128, the coherent moment matrix is a BLAS product over the rings at
    # cutoffs 16 and 170, the KMS traces are entrywise sums at dim 256, and
    # the modular inner products are BLAS products at dim 256
    runs = (("wigner", "--ncut", "128"),
            ("coherent", "--cutoff", "16", "--radial", "48", "--angular", "96"),
            ("coherent", "--cutoff", "170", "--radial", "86", "--angular", "171"),
            ("kms", "--dim", "256"), ("modular", "--dim", "256"))
    for args in runs:
        two, one = _reports_on_two_and_one_threads(tmp_path, *args)
        assert two == one, args
