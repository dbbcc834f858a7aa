"""Every check can fail: a mutation table for every suite.

Each row names one check, one mutation and the exact set of checks that
the mutation turns red.  A mutation replaces one library function, one
library constant or one input (through monkeypatch); the row then runs
that one suite at the default configuration.  A check that no mutation
outside it can turn red tests nothing, and is deleted rather than given a
weaker row.  The checks that are red at the default configuration (two
landau checks and one wigner check) have no row of their own and are in
every row's set of their suite.

Each row runs from fresh per-process caches (the fresh_caches fixture),
so a mutated object is never read from a clean cache and never left
behind in one.  Two more tests keep the table whole:
one pins every suite's ordered check names and its exact set of checks
that are red at the default configuration, so a check that vanishes, is
renamed or turns red is noticed, and one requires a row for each check of
every suite.  A row proves its check can fail; the pin is the one tier-1
statement that the check holds, so a unit test that only restates a check
through the same library calls is deleted.
"""

import math

import numpy as np
import pytest

from landau_modular import cgauss_quad as quad
from landau_modular import coherent_states as cs
from landau_modular import coherent_suite
from landau_modular import complex_hermite as ch
from landau_modular import landau_modes as lm
from landau_modular import modular_core as mc
from landau_modular import modular_suite
from landau_modular import phase_space as ps
from landau_modular import suites
from landau_modular.hs_space import WeightedConjugation

# suite -> the checks that are red at the default configuration
DEFAULT_REDS = {"landau": {"fock_eigenvalues", "fock_orthonormality"},
                "wigner": {"closed_form_literal"}}


# --- mutations: each takes the original object and returns its replacement


def _phi_off_diagonal(cyclic_vector):
    # a Phi that is not self-adjoint: one entry off the diagonal
    def mutant(w):
        phi = cyclic_vector(w)
        phi[0, 1] = 1e-6
        return phi
    return mutant


def _triple_with(**change):
    # build_modular_triple with one field replaced, computed from w and the
    # clean triple
    def mutation(build):
        def mutant(w):
            t = build(w)
            return t._replace(**{k: f(w, t) for k, f in change.items()})
        return mutant
    return mutation


def _sqrt_delta_as_power_04(w, t):
    # Delta^(1/2) computed as (alpha_i / alpha_j)^0.4
    return WeightedConjugation(t.J.weight * np.divide.outer(w.alpha, w.alpha) ** 0.4)


def _j_doubling_one_entry(w, t):
    # J with weight 2 on E_01 (off the diagonal, so J Phi is unchanged)
    weight = np.ones((w.n, w.n))
    weight[0, 1] = 2.0
    return WeightedConjugation(weight)


def _flow_without_conj(modular_flow):
    # u A u instead of u A u*
    def mutant(w, t, a):
        u = np.exp(1j * t * w.energies)
        return (u[:, None] * a) * u[None, :]
    return mutant


def _in_span_dropping_last(in_span):
    # an off-by-one that drops the last basis element
    return lambda basis, target: in_span(basis[:-1], target)


def _boundary_factors_swapped(kms_boundary_deviation):
    # F(t + i beta) against phi(A sigma_t(B)), the factors in the wrong order
    def mutant(w, a, b, t_grid):
        return float(np.max(
            [abs(mc.kms_function(w, a, b, complex(t, w.beta))
                 - complex(np.sum(w.alpha[:, None] * a * mc.modular_flow(w, t, b).T)))
             for t in t_grid]))
    return mutant


def _scaled_a_y(mode_ops):
    def mutant(cut):
        ax, ay = mode_ops(cut)
        return ax, ay * 1.01
    return mutant


def _phase_on_a_y(mode_ops):
    # a_y times i: the ladders still obey the CCR, but are no longer real
    def mutant(cut):
        ax, ay = mode_ops(cut)
        return ax, ay * 1j
    return mutant


def _swapped_pair(build_from_qp):
    def mutant(cut):
        ops = build_from_qp(cut)
        return lm.RotatedLadders(a_plus=ops.a_minus, a_plus_dag=ops.a_minus_dag,
                                 a_minus=ops.a_plus, a_minus_dag=ops.a_plus_dag)
    return mutant


def _x_field_on_both(hamiltonians):
    # the same real potential (x-position / 10) added to H_up and H_down:
    # complex conjugation still exchanges them, but they stop commuting
    def mutant(cut):
        h = hamiltonians(cut)
        ax, _ = lm.mode_ops(cut)
        x = (ax + ax.dag()) * (0.1 / math.sqrt(2.0))
        return h._replace(h_up=h.h_up + x, h_down=h.h_down + x)
    return mutant


def _laguerre_weight_moved(index, delta):
    # delta moved from ring index + 1 to ring index, or, for index -1, added
    # to the outermost ring (below the rounding of the weights' sum)
    def mutation(gauss_laguerre):
        def mutant(n):
            x, w = gauss_laguerre(n)
            w = w.copy()
            w[index] += delta
            if index >= 0:
                w[index + 1] -= delta
            return x, w
        return mutant
    return mutation


def _moment_matrix_shifted(moment_matrix):
    # G + 0.7e-10 I: under the 1e-10 bound on G itself, over it wherever
    # two factors of G meet (rev @ conj(iso), kron(G, conj(G))), and far
    # over the node sums' 1e-13
    def mutant(rule, cutoff):
        return moment_matrix(rule, cutoff) + 0.7e-10 * np.eye(cutoff + 1)
    return mutant


def _angular_mean_off(angular_means):
    # A[d = span] off by 1e-11 (span = cutoff in G), under the resolutions'
    # 1e-10 bound
    def mutant(rule, span):
        a = angular_means(rule, span).copy()
        a[-1] += 1e-11
        return a
    return mutant


def _basis_norm_off(basis_values):
    # entry [n, k] rescaled from 1 / sqrt(n! k!) to 1 / sqrt(n! k! + 1)
    def mutant(z, deg):
        f = np.array([[float(math.factorial(n) * math.factorial(k))
                       for k in range(deg + 1)] for n in range(deg + 1)])
        scale = np.sqrt(f / (f + 1))
        return basis_values(z, deg) * scale.reshape(f.shape + (1,) * np.ndim(z))
    return mutant


def _j_sign_on_one_entry(conjugation_J):
    def mutant(n):
        weight = np.ones((n, n))
        weight[0, 1] = -1.0
        return WeightedConjugation(weight)
    return mutant


def _gibbs_weight_off(build_weights):
    # the last Gibbs weight off by 1e-12 relative
    def mutant(beta, n):
        w = build_weights(beta, n)
        alpha = w.alpha.copy()
        alpha[-1] *= 1.0 + 1e-12
        return w._replace(alpha=alpha)
    return mutant


def _energy_spacing_off(build_weights):
    # the level spacing 1 + 1e-9 in place of 1, the weights unchanged
    def mutant(beta, n):
        w = build_weights(beta, n)
        return w._replace(energies=w.energies * (1.0 + 1e-9))
    return mutant


def _flow_superop_without_conj(flow_superop):
    def mutant(w, t):
        u = np.exp(1j * t * w.energies)
        return np.multiply.outer(u, u)
    return mutant


def _explicit_tripled(ch_explicit):
    # the corrected sum times 3 wherever min(n, k) >= 2
    def mutant(n, k, literal=False):
        p = ch_explicit(n, k, literal)
        return p.scale(3) if not literal and min(n, k) >= 2 else p
    return mutant


def _recursion_plus(extra, *entries):
    # h[n, k] + extra at the given (n, k)
    def mutation(ch_recursion):
        def mutant(n, k):
            p = ch_recursion(n, k)
            return p + extra if (n, k) in entries else p
        return mutant
    return mutation


def _number_ops_swapped(number_apply):
    # n_plus and n_minus swapped, as in the printed display
    swap = {"n_plus": "n_minus", "n_minus": "n_plus"}
    return lambda which, p: number_apply(swap[which], p)


def _corrected_form_negated(wigner_closed_form):
    def mutant(labels, x, y):
        printed, corrected = wigner_closed_form(labels, x, y)
        return printed, -corrected
    return mutant


# (suite, target, module, attribute, mutation, failing set): the mutation
# maps the attribute's value to its replacement
ROWS = [
    ("modular", "cyclic_fixed_by_j", mc, "cyclic_vector", _phi_off_diagonal,
     {"cyclic_fixed_by_j"}),
    ("modular", "s_conjugates_orbit", mc, "build_modular_triple",
     _triple_with(S=_sqrt_delta_as_power_04), {"s_conjugates_orbit"}),
    ("modular", "j_antiunitary", mc, "build_modular_triple",
     _triple_with(J=_j_doubling_one_entry),
     {"j_antiunitary", "j_antiunitary_relative"}),
    ("modular", "j_antiunitary_relative", mc, "build_modular_triple",
     _triple_with(J=_j_doubling_one_entry),
     {"j_antiunitary", "j_antiunitary_relative"}),
    # the inner product without its conjugation: Tr[x^T y].  J maps it to its
    # conjugate too, so only the norm sees it
    ("modular", "hs_inner_norm", modular_suite, "hs_inner",
     lambda hs_inner: lambda x, y: complex(np.trace(x.T @ y)), {"hs_inner_norm"}),
    ("modular", "state_flow_invariant", mc, "modular_flow", _flow_without_conj,
     {"state_flow_invariant", "flow_preserves_left_algebra"}),
    # the superoperator of the flow run backwards
    ("modular", "flow_preserves_left_algebra", mc, "flow_superop",
     lambda flow_superop: lambda w, t: flow_superop(w, -t),
     {"flow_preserves_left_algebra"}),
    # bigH with its sign flipped
    ("modular", "generator_eigenvalues", mc, "build_modular_triple",
     _triple_with(big_h=lambda w, t: -t.big_h),
     {"generator_eigenvalues", "generator_eigenvalues_conditioned"}),
    # measured: 1.5e-8 against 1e-12, and 9.1e-10 against 4 eps
    ("modular", "generator_eigenvalues_conditioned", mc, "build_weights",
     _energy_spacing_off, {"generator_eigenvalues", "generator_eigenvalues_conditioned"}),
    ("modular", "commutant_of_left_algebra", modular_suite, "in_span",
     _in_span_dropping_last, {"commutant_of_left_algebra"}),
    # the restricted solve against the first right generator only: the
    # members of the left commutant I v M_3 that commute with I v E_00 are
    # I v (C + M_2), five dimensions
    ("modular", "joint_commutant_scalar", modular_suite, "commutant_dim_within",
     lambda within: lambda basis, generators: within(basis, generators[:1]),
     {"joint_commutant_scalar"}),
    # a tolerance of 10: every sampled B counts as a member
    ("modular", "centralizer_predicate", mc, "CENTRALIZER_TOL", lambda tol: 10.0,
     {"centralizer_predicate"}),
    # Tr A in place of Tr[rho A]: still invariant under the flow
    ("modular", "centralizer_pairing_oracle", mc, "state_eval",
     lambda state_eval: lambda w, a: complex(np.trace(a)),
     {"centralizer_pairing_oracle"}),

    # the kernel at conj(z): F(t + i beta) is evaluated at t - i beta
    ("kms", "closed_form_pair", mc, "kms_kernel",
     lambda kms_kernel: lambda w, z: kms_kernel(w, np.conj(z)),
     {"closed_form_pair", "boundary_condition"}),
    # the flow run backwards
    ("kms", "real_time_agreement", mc, "modular_flow",
     lambda modular_flow: lambda w, t, a: modular_flow(w, -t, a),
     {"real_time_agreement", "boundary_condition"}),
    ("kms", "boundary_condition", mc, "kms_boundary_deviation",
     _boundary_factors_swapped, {"boundary_condition"}),

    # a_y 1% too large
    ("landau", "ccr_interior", lm, "mode_ops", _scaled_a_y,
     {"ccr_interior", "literal_ladder_breaks_ccr", "hamiltonians_commute"}),
    # A+ and A- swapped in the covariant-momentum route
    ("landau", "gauge_route_agreement", lm, "build_A_pm_from_qp", _swapped_pair,
     {"gauge_route_agreement"}),
    # the printed A+ built as the correct one
    ("landau", "literal_ladder_breaks_ccr", lm, "build_A_pm",
     lambda build: lambda cut, literal=False: build(cut),
     {"literal_ladder_breaks_ccr"}),
    ("landau", "hamiltonians_commute", lm, "hamiltonians", _x_field_on_both,
     {"hamiltonians_commute"}),
    ("landau", "conjugation_intertwines", lm, "mode_ops", _phase_on_a_y,
     {"conjugation_intertwines"}),
    # every Hermite function 1e-9 too large
    ("landau", "hermite_fn_orthonormal", lm, "hermite_fn",
     lambda hermite_fn: lambda n, x: hermite_fn(n, x) * (1.0 + 1e-9),
     {"hermite_fn_orthonormal"}),

    ("hermite", "three_way_equality", ch, "ch_explicit", _explicit_tripled,
     {"three_way_equality"}),
    # the printed sum built as the corrected one
    ("hermite", "literal_sum_erratum", ch, "ch_explicit",
     lambda ch_explicit: lambda n, k, literal=False: ch_explicit(n, k),
     {"literal_sum_erratum"}),
    # zbar added to h[8, 8], which only the symmetry and the three-way
    # comparison read
    ("hermite", "index_symmetry", ch, "ch_recursion",
     _recursion_plus(ch.mul_zbar(ch.poly_const(1)), (8, 8)),
     {"three_way_equality", "index_symmetry"}),
    # 1 added to h[7, 8] and to h[8, 7]: the pair stays symmetric, but
    # zbar h[7, 8] = z h[8, 7] fails
    ("hermite", "contiguous_relations", ch, "ch_recursion",
     _recursion_plus(ch.poly_const(1), (7, 8), (8, 7)),
     {"three_way_equality", "contiguous_relations"}),
    ("hermite", "ladder_generation", ch, "a_plus_dag",
     lambda a_plus_dag: lambda p: a_plus_dag(p).scale(2), {"ladder_generation"}),
    ("hermite", "number_eigenvalues", ch, "number_apply", _number_ops_swapped,
     {"number_eigenvalues"}),

    # every integral off by 1e-9 relative, as if the weights summed to 1 + 1e-9
    ("quadrature", "moment_exactness", quad, "integrate_values",
     lambda integrate: lambda rule, values: integrate(rule, values) * (1.0 + 1e-9),
     {"moment_exactness"}),
    # at most 12 rings: exact for the moments up to degree 12, not for the
    # basis products up to degree 24
    ("quadrature", "basis_orthonormality", quad, "gauss_laguerre",
     lambda gauss_laguerre: lambda n: gauss_laguerre(min(n, 12)),
     {"basis_orthonormality"}),
    # the orders ignored: every rule is the default one, so the three
    # errors are equal
    ("quadrature", "order_convergence", quad, "build_rule",
     lambda build_rule: lambda radial, angular: build_rule(40, 64),
     {"order_convergence"}),

    # the outermost ring's weight 3e-24 too large: G is off by 2.8e-9 at
    # n = 10, but by less than 1e-10 in the 9 x 9 block that the bi-coherent
    # resolution reads
    ("coherent", "resolution_antiholomorphic", quad, "gauss_laguerre",
     _laguerre_weight_moved(-1, 3e-24),
     {"resolution_antiholomorphic", "partial_isometry"}),
    # 1e-8 of weight moved from the second ring to the first
    ("coherent", "resolution_bicoherent", quad, "gauss_laguerre",
     _laguerre_weight_moved(0, 1e-8),
     {"resolution_antiholomorphic", "resolution_bicoherent", "partial_isometry"}),
    # measured: 7.0e-11, 1.4e-10, 1.4e-10 and 7.0e-11 on the first four checks
    ("coherent", "partial_isometry", cs, "moment_matrix", _moment_matrix_shifted,
     {"resolution_bicoherent", "partial_isometry", "moment_factorization"}),
    ("coherent", "moment_factorization", quad, "_angular_means", _angular_mean_off,
     {"moment_factorization"}),
    # the transpose forgotten: the identity permutation
    ("coherent", "conjugated_projectors", coherent_suite, "transpose_permutation",
     lambda transpose_permutation: lambda n: np.arange(n * n),
     {"conjugated_projectors"}),
    # J with weight -1 on E_01
    ("coherent", "bicoherent_conjugation", mc, "conjugation_J", _j_sign_on_one_entry,
     {"bicoherent_conjugation"}),
    # B[n, k] divided by sqrt(n! k! + 1)
    ("coherent", "reproducing_kernel", cs, "basis_values", _basis_norm_off,
     {"reproducing_kernel"}),
    # the raising matrix in place of the lowering one
    ("coherent", "coherent_eigenvalue", cs, "ladder",
     lambda ladder: lambda n: ladder(n).T, {"coherent_eigenvalue"}),
    # u u in place of u u*: the flow no longer fixes the thermal vector
    ("coherent", "modular_spectral", mc, "flow_superop", _flow_superop_without_conj,
     {"modular_spectral"}),
    ("coherent", "modular_spectral_relative", mc, "build_weights", _gibbs_weight_off,
     {"modular_spectral", "modular_spectral_relative"}),
    # the finite sums at conj(alpha)
    ("coherent", "displacement_factorization", cs, "_raising_exp",
     lambda raising_exp: lambda alpha, ncut: raising_exp(np.conj(alpha), ncut),
     {"displacement_factorization"}),
    # the eigensolved displacement at (x, -y)
    ("coherent", "displacement_vacuum_column", cs, "displacement",
     lambda displacement: lambda ncut, x, y: displacement(ncut, x, -y),
     {"displacement_factorization", "displacement_vacuum_column"}),

    ("wigner", "closed_form_corrected", ps, "wigner_closed_form",
     _corrected_form_negated, {"closed_form_corrected"}),
    # every sample 1e-9 too large: under the 1e-6 bounds, over the 1e-12 one
    ("wigner", "origin_normalization", ps, "wigner_sample",
     lambda wigner_sample: lambda x_op, x, y, ncut: (
         wigner_sample(x_op, x, y, ncut) * (1.0 + 1e-9)),
     {"origin_normalization"}),
    # the eigensolved displacement at (x, -y)
    ("wigner", "displacement_rotation", ps, "displacement",
     lambda displacement: lambda ncut, x, y: displacement(ncut, x, -y),
     {"displacement_rotation"}),
]


def failing_checks(suite: str) -> set:
    report = suites.run_suite(suite, suites.SuiteConfig())[0]
    return {c.name for c in report.checks if not c.passed}


@pytest.mark.parametrize(
    "suite, target, module, attribute, mutation, failing", ROWS,
    ids=[f"{row[0]}/{row[1]}" for row in ROWS])
def test_mutation_turns_check_red(monkeypatch, fresh_caches, suite, target, module,
                                  attribute, mutation, failing):
    assert target in failing
    monkeypatch.setattr(module, attribute, mutation(getattr(module, attribute)))
    assert failing_checks(suite) == failing | DEFAULT_REDS.get(suite, set())


CHECK_NAMES = {
    "modular": [
        "cyclic_fixed_by_j", "s_conjugates_orbit", "j_antiunitary",
        "j_antiunitary_relative", "hs_inner_norm", "state_flow_invariant",
        "flow_preserves_left_algebra", "generator_eigenvalues",
        "generator_eigenvalues_conditioned",
        "commutant_of_left_algebra", "joint_commutant_scalar",
        "centralizer_predicate", "centralizer_pairing_oracle"],
    "kms": ["closed_form_pair", "real_time_agreement", "boundary_condition"],
    "landau": [
        "ccr_interior", "gauge_route_agreement", "literal_ladder_breaks_ccr",
        "hamiltonians_commute", "fock_eigenvalues", "fock_orthonormality",
        "conjugation_intertwines", "hermite_fn_orthonormal"],
    "hermite": [
        "three_way_equality", "literal_sum_erratum", "index_symmetry",
        "contiguous_relations", "ladder_generation", "number_eigenvalues"],
    "quadrature": ["moment_exactness", "basis_orthonormality", "order_convergence"],
    "coherent": [
        "resolution_antiholomorphic", "resolution_bicoherent", "partial_isometry",
        "moment_factorization", "conjugated_projectors", "bicoherent_conjugation",
        "reproducing_kernel", "coherent_eigenvalue", "modular_spectral",
        "modular_spectral_relative", "displacement_factorization",
        "displacement_vacuum_column"],
    "wigner": [
        "closed_form_literal", "closed_form_corrected", "origin_normalization",
        "displacement_rotation"],
}


def test_check_names_are_pinned(fresh_caches):
    reports = suites.run_suite("all", suites.SuiteConfig())
    assert {r.suite: [c.name for c in r.checks] for r in reports} == CHECK_NAMES
    assert list(CHECK_NAMES) == list(suites.SUITE_NAMES)
    # the default `verify all` fails exactly DEFAULT_REDS: a mutation that
    # turns a green check red fails here, naming its suite and check
    assert {r.suite: {c.name for c in r.checks if not c.passed} for r in reports} \
        == {suite: DEFAULT_REDS.get(suite, set()) for suite in CHECK_NAMES}


def test_every_check_of_the_covered_suites_has_a_row():
    rows = {}
    for suite, target, *_ in ROWS:
        rows.setdefault(suite, []).append(target)
    kept = {suite: [name for name in CHECK_NAMES[suite]
                    if name not in DEFAULT_REDS.get(suite, set())]
            for suite in suites.SUITE_NAMES}
    assert rows == kept
