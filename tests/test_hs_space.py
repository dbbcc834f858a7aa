import tracemalloc

import numpy as np
import pytest

from landau_modular.hs_space import (
    SVD_RTOL,
    WeightedConjugation,
    commutant_basis,
    commutant_dim_within,
    conjugation_J,
    hs_inner,
    in_span,
    matrix_unit,
    sandwich_superop,
    transpose_permutation,
)
from landau_modular.rng import SplitMix64


def superop_matrix(fn, n: int) -> np.ndarray:
    """Matrix of an arbitrary linear map, column by column over matrix units:
    the independent reference for sandwich_superop."""
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[:, i * n + j] = fn(matrix_unit(n, i, j)).reshape(-1)
    return m


def test_matrix_units_and_inner_orthonormality():
    assert np.array_equal(matrix_unit(2, 0, 0), [[1, 0], [0, 0]])
    assert np.array_equal(matrix_unit(2, 0, 1), [[0, 1], [0, 0]])
    n = 4
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    got = hs_inner(matrix_unit(n, i, j), matrix_unit(n, k, l))
                    assert got == (1.0 if (i, j) == (k, l) else 0.0)


def test_inner_is_squared_frobenius_on_diagonal():
    x = SplitMix64(7).complex_matrix(5)
    assert abs(hs_inner(x, x) - np.linalg.norm(x) ** 2) < 1e-12


def _apply(left: np.ndarray, right: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (sandwich_superop(left, right) @ x.reshape(-1)).reshape(x.shape)


def test_sandwich_apply_cases():
    n = 4
    x = SplitMix64(9).complex_matrix(n)
    eye = np.eye(n)
    assert np.allclose(_apply(eye, eye, x), x)
    a = SplitMix64(10).complex_matrix(n)
    b = SplitMix64(19).complex_matrix(n)
    assert np.allclose(_apply(a, eye, x), a @ x)
    assert np.allclose(_apply(a, b, x), a @ x @ b.conj().T)
    # matrix-unit multiplication rule E_kl P_i = delta_li E_ki
    for k in range(n):
        for l in range(n):
            for i in range(n):
                got = _apply(matrix_unit(n, k, l), eye, matrix_unit(n, i, i))
                expect = matrix_unit(n, k, i) if l == i else np.zeros((n, n))
                assert np.array_equal(got, expect)


def test_sandwich_compose_matches_application():
    # (A1 v B1*)(A2 v B2*) = (A1 A2) v (B1 B2)*
    rng = SplitMix64(11)
    n = 4
    for _ in range(20):
        a1, b1 = rng.complex_matrix(n), rng.complex_matrix(n)
        a2, b2 = rng.complex_matrix(n), rng.complex_matrix(n)
        x = rng.complex_matrix(n)
        via_compose = _apply(a1 @ a2, b1 @ b2, x)
        direct = _apply(a1, b1, _apply(a2, b2, x))
        assert np.linalg.norm(via_compose - direct) < 1e-12 * max(
            1.0, np.linalg.norm(direct))


def test_sandwich_adjoint_pairing():
    # the Hilbert-Schmidt adjoint of A v B* is A* v B
    rng = SplitMix64(13)
    n = 4
    a, b = rng.complex_matrix(n), rng.complex_matrix(n)
    for _ in range(5):
        x = rng.complex_matrix(n)
        y = rng.complex_matrix(n)
        lhs = hs_inner(x, _apply(a, b, y))
        rhs = hs_inner(_apply(a.conj().T, b.conj().T, x), y)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    assert np.array_equal(sandwich_superop(a.conj().T, b.conj().T),
                          sandwich_superop(a, b).conj().T)


def test_left_and_right_factors_commute():
    rng = SplitMix64(12)
    n = 4
    eye = np.eye(n)
    a = rng.complex_matrix(n)
    b = rng.complex_matrix(n)
    left = sandwich_superop(a, eye)
    right = sandwich_superop(eye, b)
    assert np.linalg.norm(left @ right - right @ left) < 1e-12


def test_superop_matrix_identity_and_kron_structure():
    n = 3
    assert np.allclose(superop_matrix(lambda x: x, n), np.eye(n * n))
    a = SplitMix64(14).complex_matrix(n)
    assert np.allclose(superop_matrix(lambda x: a @ x, n),
                       sandwich_superop(a, np.eye(n)))


def test_sandwich_rejects_unequal_or_nonsquare_factors():
    with pytest.raises(ValueError, match="equal square"):
        sandwich_superop(np.eye(3), np.eye(4))
    with pytest.raises(ValueError, match="equal square"):
        sandwich_superop(np.ones((2, 3)), np.ones((2, 3)))


def test_conjugation_squares_to_identity():
    n = 3
    j = conjugation_J(n)
    # J after J is the identity multiplier
    assert np.array_equal(j @ j, np.ones((n, n)))
    x = SplitMix64(15).complex_matrix(n)
    assert np.allclose(j(x), x.conj().T)
    assert np.array_equal(j(j(x)), x)
    # the linear part of J, X -> J(conj X) = X^T, is the transpose permutation
    perm = transpose_permutation(n)
    assert np.array_equal(superop_matrix(lambda y: j(y.conj()), n),
                          np.eye(n * n)[perm])
    assert np.array_equal(perm[perm], np.arange(n * n))


def test_j_conjugates_left_algebra_to_right():
    n = 3
    perm = transpose_permutation(n)
    a = SplitMix64(16).complex_matrix(n)
    left = sandwich_superop(a, np.eye(n))
    right = sandwich_superop(np.eye(n), a)
    # J M J is conj(M) with rows and columns permuted by the transpose
    sandwiched = left.conj()[np.ix_(perm, perm)]
    assert np.linalg.norm(sandwiched - right) < 1e-12 * np.linalg.norm(right)
    j = conjugation_J(n)
    x = SplitMix64(20).complex_matrix(n)
    assert np.linalg.norm(j(a @ j(x)) - x @ a.conj().T) < 1e-12


def test_weighted_conjugation_adjoint_and_composition():
    rng = SplitMix64(21)
    n = 4
    p = WeightedConjugation(rng.complex_matrix(n))
    q = WeightedConjugation(rng.complex_matrix(n))
    x, y = rng.complex_matrix(n), rng.complex_matrix(n)
    # antilinear, and on c E_ij it gives conj(c W_ij) E_ji
    assert np.allclose(p((2 + 1j) * x), (2 - 1j) * p(x))
    c = 0.5 - 1.5j
    assert np.allclose(p(c * matrix_unit(n, 1, 2)),
                       np.conj(c * p.weight[1, 2]) * matrix_unit(n, 2, 1))
    # the antilinear adjoint: <x, P* y> = conj(<P x, y>)
    lhs = hs_inner(x, p.adjoint()(y))
    assert abs(lhs - np.conj(hs_inner(p(x), y))) < 1e-12 * abs(lhs)
    # P after Q is the linear map X -> (P @ Q) . X
    assert np.allclose(p(q(x)), (p @ q) * x, rtol=0, atol=1e-12)


def test_commutant_of_rotated_left_matrix_units():
    # complex generators: U E_ij U* v I with U a seeded non-real unitary
    n = 3
    eye = np.eye(n)
    u, _ = np.linalg.qr(SplitMix64(11).complex_matrix(n))
    assert np.max(np.abs(u.imag)) > 0.1
    rotated = [u @ matrix_unit(n, i, j) @ u.conj().T
               for i in range(n) for j in range(n)]
    gens = [sandwich_superop(e, eye) for e in rotated]
    dim, basis = commutant_basis(gens)
    assert dim == n * n
    for m in basis:
        for g in gens:
            assert np.max(np.abs(m @ g - g @ m)) < 1e-12
    assert all(in_span(basis, sandwich_superop(eye, e)) for e in rotated)


def _stack_nullity(gens) -> int:
    """Null-space dimension of the stacked commutator system from a full SVD
    of the stack itself: the reference for commutant_basis."""
    d = gens[0].shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in gens])
    s = np.linalg.svd(stacked, compute_uv=False)
    return d * d - int(np.sum(s > SVD_RTOL * s[0]))


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_commutant_dimension_matches_full_svd_of_the_stack(seed):
    rng = SplitMix64(seed)
    a, b = rng.complex_matrix(2), rng.complex_matrix(2)
    p = rng.complex_matrix(4)
    p_inv = np.linalg.inv(p)
    z = np.zeros((2, 2))
    u, v = rng.complex_matrix(4)[:, :1], rng.complex_matrix(4)[:1, :]
    cases = [
        # two different 2 x 2 blocks, in a seeded basis: the commutant is
        # the two block scalars
        ([p @ np.block([[a, z], [z, b]]) @ p_inv,
          p @ np.block([[b, z], [z, a]]) @ p_inv], 2),
        # one block twice: X v I_2 for every 2 x 2 X
        ([np.block([[a, z], [z, a]]), np.block([[b, z], [z, b]])], 4),
        # a rank-one generator, listed twice: diagonalizable with one
        # nonzero eigenvalue, so 1 + 3^2
        ([u @ v, u @ v], 10),
        # a real generator with a complex one: M = diag(X, c, d) with
        # M u = c u and v M = c v, so X = c I + a rank-one part
        ([np.diag([1.0, 1.0, 2.0, 3.0]), u @ v], 2),
    ]
    for gens, expected in cases:
        dim, basis = commutant_basis(gens)
        assert dim == len(basis) == _stack_nullity(gens) == expected
        for m in basis:
            for g in gens:
                assert np.max(np.abs(m @ g - g @ m)) < 1e-10 * np.max(np.abs(g))
        # the second generator's commutant solved inside the first one's
        assert commutant_dim_within(commutant_basis(gens[:1])[1], gens[1:]) == expected


def test_commutant_blocks_are_the_kronecker_products():
    # each block is built by broadcasting, not np.kron; the products are
    # the same, so folding kron-built blocks the same way gives the same
    # basis bit for bit
    rng = SplitMix64(5)
    gens = [rng.complex_matrix(3) for _ in range(3)]
    eye = np.eye(3, dtype=complex)
    for subset in (gens[:1], gens):
        r = np.empty((0, 9), dtype=complex)
        for g in subset:
            block = np.kron(g, eye) - np.kron(eye, g.T)
            r = np.linalg.qr(np.vstack([r, block]), mode="r")
        _, s, vh = np.linalg.svd(r)
        rank = int(np.sum(s > SVD_RTOL * s[0]))
        expected = [row.conj().reshape(3, 3).tobytes() for row in vh[rank:]]
        dim, basis = commutant_basis(subset)
        assert dim == len(expected) == (3 if len(subset) == 1 else 1)
        assert [m.tobytes() for m in basis] == expected


def _suite_generators() -> tuple[list, list]:
    """The modular suite's generators at n = 3: the left and the right
    multiplications by the nine real matrix units."""
    n, eye = 3, np.eye(3)
    units = [matrix_unit(n, i, j).real for i in range(n) for j in range(n)]
    return ([sandwich_superop(e, eye) for e in units],
            [sandwich_superop(eye, e) for e in units])


def test_commutant_of_the_suite_generators_matches_the_stack():
    left, right = _suite_generators()
    for gens, expected in ((left, 9), (left + right, 1)):
        dim, basis = commutant_basis(gens)
        assert dim == len(basis) == _stack_nullity(gens) == expected


def test_joint_commutant_inside_the_left_one_matches_the_joint_solve():
    # (A u B)' = A' n B': the right generators' commutant inside the left
    # commutant has the dimension of the joint commutant, and the first
    # right generator alone leaves I v (C + M_2)
    left, right = _suite_generators()
    _, basis = commutant_basis(left)
    joint, _ = commutant_basis(left + right)
    assert commutant_dim_within(basis, right) == joint == 1
    assert commutant_dim_within(basis, right[:1]) == 5
    assert commutant_dim_within([], right) == 0


def _traced_peak(gens) -> int:
    commutant_basis(gens)  # warm up outside the trace
    tracemalloc.start()
    try:
        commutant_basis(gens)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commutant_memory_is_flat_in_the_generator_count():
    # the blocks are folded into R one at a time, never stacked: 18
    # generators cost about what 2 do (a stacked solve costs 7 times more)
    left, right = _suite_generators()
    joint = left + right
    assert _traced_peak(joint) <= 1.25 * _traced_peak(joint[:2])


def test_commutant_of_identity_is_everything():
    dim, _ = commutant_basis([np.eye(4)])
    assert dim == 16


def test_commutant_rejects_empty_generators():
    with pytest.raises(ValueError):
        commutant_basis([])


def test_commutant_rejects_generators_of_unequal_shape():
    with pytest.raises(ValueError, match="share one dimension"):
        commutant_basis([np.eye(3), np.eye(2)])
