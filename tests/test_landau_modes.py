import math

import numpy as np
import pytest

from landau_modular import cgauss_quad as quad
from landau_modular import landau_modes as lm
from landau_modular.rng import SplitMix64


def test_ladder_matrix():
    assert np.array_equal(lm.ladder(2), [[0, 1], [0, 0]])
    a = lm.ladder(6)
    assert np.allclose(a.conj().T @ a, np.diag(np.arange(6.0)))
    comm = a @ a.conj().T - a.conj().T @ a
    expect = np.eye(6)
    expect[5, 5] = -5.0
    assert np.allclose(comm, expect)


def test_hermite_fn_values_and_orthonormality():
    assert abs(lm.hermite_fn(0, 0.0) - math.pi ** -0.25) < 1e-14
    assert lm.hermite_fn(1, 0.0) == 0.0
    x, w = quad.real_gauss_rule(60)
    for m in range(9):
        for n in range(9):
            vals = [lm.hermite_fn(m, xi) * lm.hermite_fn(n, xi) for xi in x]
            got = float(np.sum(w * vals))
            assert abs(got - (1.0 if m == n else 0.0)) < 1e-10


def _dense_modes(ncut: int) -> tuple[np.ndarray, np.ndarray]:
    """The two-mode lowering operators as dense Kronecker products: the
    independent reference for the banded ones."""
    a, eye = lm.ladder(ncut), np.eye(ncut)
    return np.kron(a, eye), np.kron(eye, a)


@pytest.mark.parametrize("ncut", (5, 6))
def test_banded_ops_match_dense_kron_references(ncut):
    cut = lm.ModeCut(ncut)
    ax, ay = lm.mode_ops(cut)
    dx, dy = _dense_modes(ncut)
    assert np.array_equal(ax.toarray(), dx)
    assert np.array_equal(ay.toarray(), dy)
    op = 0.75 * (ax - 1j * ay) - 0.25 * (ax.dag() - 1j * ay.dag())
    dense = 0.75 * (dx - 1j * dy) - 0.25 * (dx.conj().T - 1j * dy.conj().T)
    assert np.allclose(op.toarray(), dense, rtol=0, atol=1e-15)
    assert np.array_equal(op.dag().toarray(), op.toarray().conj().T)
    assert np.array_equal(op.conj().toarray(), op.toarray().conj())
    assert np.array_equal((-op / 2).toarray(), -op.toarray() / 2)
    cols = np.array([0, 3, cut.dim - 1])
    assert np.array_equal(op.columns(cols), op.toarray()[:, cols])
    v = SplitMix64(ncut).complex_matrix(ncut).reshape(-1)
    assert np.allclose(op @ v, dense @ v, rtol=0, atol=1e-13)
    for left, right in ((op, op.dag()), (op.dag(), op), (ay, ay.dag()), (ax @ ay, op)):
        assert np.allclose((left @ right).toarray(), left.toarray() @ right.toarray(),
                           rtol=0, atol=1e-13)
    assert lm.build_A_pm(cut).a_plus.toarray() == pytest.approx(dense, abs=1e-15)


def test_banded_rows_at_the_cut_edge_do_not_wrap():
    # a_y shifts the joint index by 1, so the row n_y = ncut - 1 of one x block
    # sits next to n_y = 0 of the next block; the banded diagonal must hold a
    # zero there, and the products must keep it
    ncut = 5
    cut = lm.ModeCut(ncut)
    ax, ay = lm.mode_ops(cut)
    nx, ny = np.divmod(np.arange(cut.dim), ncut)
    assert not ay.toarray()[ny == ncut - 1].any()
    assert not ax.toarray()[nx == ncut - 1].any()
    n_y = (ay.dag() @ ay).toarray()
    assert np.allclose(n_y, np.diag(ny), rtol=0, atol=1e-15)
    # a_y a_y* = N_y + 1 except on the top row of each block, where it is 0
    top = (ay @ ay.dag()).toarray()
    assert np.allclose(top, np.diag(np.where(ny < ncut - 1, ny + 1.0, 0.0)),
                       rtol=0, atol=1e-15)
    assert not top[ny == ncut - 1].any()
    assert np.array_equal(top, np.diag(np.diag(top)))
    v = np.ones(cut.dim)
    assert np.array_equal(ay @ v, np.where(ny < ncut - 1, np.sqrt(ny + 1.0), 0.0))
    with pytest.raises(ValueError, match="does not match"):
        ay @ np.ones(cut.dim + 1)


def test_interior_deviation_takes_banded_or_dense_operands():
    cut = lm.ModeCut(8)
    mask = lm.interior_mask(cut)
    h = lm.hamiltonians(cut)
    dense = h.h_up.toarray()
    target = np.diag(np.arange(cut.dim, dtype=float))
    got = lm.interior_deviation(h.h_up, target, mask)
    assert got == lm.interior_deviation(dense, target, mask)
    banded_target = lm.BandedOp(cut.dim, {0: np.diag(target)})
    assert got == lm.interior_deviation(dense, banded_target, mask)
    assert got > 0


def test_ccr_on_interior():
    cut = lm.ModeCut(16)
    mask = lm.interior_mask(cut)
    ops = lm.build_A_pm(cut)
    eye = np.eye(cut.dim)
    for p, q, target in [
        (ops.a_plus, ops.a_plus_dag, eye),
        (ops.a_minus, ops.a_minus_dag, eye),
        (ops.a_plus, ops.a_minus, 0 * eye),
        (ops.a_plus, ops.a_minus_dag, 0 * eye),
        (ops.a_plus_dag, ops.a_minus, 0 * eye),
        (ops.a_plus_dag, ops.a_minus_dag, 0 * eye),
    ]:
        comm = p @ q - q @ p
        assert lm.interior_deviation(comm, target, mask) < 1e-12


def test_literal_variant_breaks_ccr():
    cut = lm.ModeCut(12)
    mask = lm.interior_mask(cut)
    lit = lm.build_A_pm(cut, literal=True)
    good = lm.build_A_pm(cut)
    comm = lit.a_plus @ good.a_minus_dag - good.a_minus_dag @ lit.a_plus
    assert lm.interior_deviation(comm, -0.125 * np.eye(cut.dim), mask) < 1e-12


def test_two_constructions_agree():
    cut = lm.ModeCut(10)
    a = lm.build_A_pm(cut)
    b = lm.build_A_pm_from_qp(cut)
    assert np.max(np.abs((a.a_plus - b.a_plus).toarray())) < 1e-12
    assert np.max(np.abs((a.a_minus - b.a_minus).toarray())) < 1e-12


def test_ladders_built_once_per_cut():
    cut = lm.ModeCut(24)
    assert lm.build_A_pm(cut) is lm.build_A_pm(lm.ModeCut(24))
    # the covariant-momentum route stays a separate build each time
    assert lm.build_A_pm_from_qp(cut) is not lm.build_A_pm_from_qp(cut)


def test_hamiltonian_relations():
    cut = lm.ModeCut(12)
    mask = lm.interior_mask(cut)
    h = lm.hamiltonians(cut)
    assert lm.interior_deviation(h.h_up, h.h0 + h.hint_up, mask) < 1e-12
    assert lm.interior_deviation(h.h_down, h.h0 + h.hint_down, mask) < 1e-12
    comm = h.h_up @ h.h_down - h.h_down @ h.h_up
    assert lm.interior_deviation(comm, 0 * comm, mask) < 1e-12


def test_interior_spectrum_is_half_integers():
    cut = lm.ModeCut(12)
    mask = lm.interior_mask(cut)
    h = lm.hamiltonians(cut)
    sub = h.h_up.toarray()[np.ix_(mask, mask)]
    vals = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
    # the operator is a compressed N + 1/2 with N positive semidefinite, so
    # the spectrum sits above 1/2; the bottom eigenvalue approaches 1/2 as
    # the cut grows (edge compression pollutes the higher clusters)
    assert vals[0] > 0.5 - 1e-12
    assert abs(vals[0] - 0.5) < 1e-3
    cut = lm.ModeCut(20)
    mask = lm.interior_mask(cut)
    h = lm.hamiltonians(cut)
    sub = h.h_up.toarray()[np.ix_(mask, mask)]
    vals = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
    assert abs(vals[0] - 0.5) < 1e-6


def test_conjugation_intertwines_exactly():
    h = lm.hamiltonians(lm.ModeCut(10))
    assert np.max(np.abs((h.h_up.conj() - h.h_down).toarray())) == 0.0


def test_fock_label_validation():
    cut = lm.ModeCut(8)
    with pytest.raises(ValueError):
        lm.fock_psi(cut, 4, 3)
    with pytest.raises(ValueError):
        lm.fock_psi(cut, -1, 0)


def test_ground_state_residual_converges_with_cut():
    residuals = []
    for ncut in (16, 28):
        cut = lm.ModeCut(ncut)
        ops = lm.build_A_pm(cut)
        psi = lm.ground_state(cut)
        residuals.append(float(np.linalg.norm(ops.a_minus @ psi)))
    assert residuals[1] < residuals[0] / 10
    assert residuals[1] < 1e-4


def test_squeezed_vacuum_matches_eigensolve():
    # two independent routes to the joint vacuum: the closed-form squeezed
    # state and the eigensolved kernel of N+ + N-
    cut = lm.ModeCut(24)
    overlap = abs(np.vdot(lm.squeezed_vacuum(cut), lm.ground_state(cut)))
    assert overlap >= 1 - 1e-9
    residuals = []
    for ncut in (16, 24, 32):
        cut = lm.ModeCut(ncut)
        ops = lm.build_A_pm(cut)
        psi = lm.squeezed_vacuum(cut)
        residuals.append(max(float(np.linalg.norm(ops.a_plus @ psi)),
                             float(np.linalg.norm(ops.a_minus @ psi))))
    assert residuals[1] < residuals[0] / 10
    assert residuals[2] < residuals[1] / 10
    assert residuals[2] < 1e-7


def test_fock_eigenvalue_residual_converges_with_cut():
    residuals = []
    for ncut in (16, 28):
        cut = lm.ModeCut(ncut)
        h = lm.hamiltonians(cut)
        psi = lm.fock_psi(cut, 2, 1)
        residuals.append(float(np.linalg.norm(h.h_up @ psi - 1.5 * psi)))
    assert residuals[1] < residuals[0] / 10
    assert residuals[1] < 1e-3


def test_degenerate_level_structure():
    cut = lm.ModeCut(16)
    h = lm.hamiltonians(cut)
    tol = 1e-1  # limited by the truncation of the closed-form vacuum at this cut
    states = [lm.fock_psi(cut, n, 1) for n in range(3)]
    for n, psi in enumerate(states):
        assert np.linalg.norm(h.h_up @ psi - 1.5 * psi) < tol
        assert np.linalg.norm(h.h_down @ psi - (n + 0.5) * psi) < tol
    for a in range(3):
        for b in range(3):
            got = abs(np.vdot(states[a], states[b]))
            assert abs(got - (1.0 if a == b else 0.0)) < tol


def test_wigner_origin_and_vacuum():
    from landau_modular.hs_space import matrix_unit
    x00 = matrix_unit(1, 0, 0)
    got = lm.wigner_sample(x00, 0.0, 0.0, 48)
    assert abs(got - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    for x, y in ((0.5, -1.0), (2.0, 1.5)):
        expect = math.exp(-(x * x + y * y) / 4.0) / math.sqrt(2.0 * math.pi)
        assert abs(lm.wigner_sample(x00, x, y, 48) - expect) < 1e-6


def test_wigner_matches_corrected_closed_form():
    from landau_modular.hs_space import matrix_unit
    for n in range(3):
        for l in range(3):
            x_op = matrix_unit(3, n, l)
            for x, y in ((0.3, -0.7), (1.1, 0.4)):
                got = lm.wigner_sample(x_op, x, y, 48)
                assert abs(got - lm.wigner_closed_form(n, l, x, y)) < 1e-9


def test_wigner_sample_of_a_stack_matches_single_samples():
    from landau_modular.hs_space import matrix_unit
    stack = np.array([matrix_unit(3, n, l) for n in range(3) for l in range(3)])
    stack = stack + SplitMix64(5).complex_matrix(3)
    for x, y in ((0.3, -0.7), (0.0, 0.0)):
        got = lm.wigner_sample(stack, x, y, 24)
        assert got.shape == (9,)
        assert all(got[i] == lm.wigner_sample(op, x, y, 24)
                   for i, op in enumerate(stack))
    for bad in (np.zeros((2, 2, 3)), np.zeros((1, 2, 2, 2)), np.zeros((2, 5, 5))):
        with pytest.raises(ValueError, match="incompatible"):
            lm.wigner_sample(bad, 0.1, 0.2, 4)


def test_wigner_suite_forms_one_block_per_grid_point(monkeypatch):
    from landau_modular.suites import SuiteConfig, run_suite
    sizes = []
    block = lm.displacement_block
    monkeypatch.setattr(lm, "displacement_block",
                        lambda ncut, x, y, n: sizes.append(n) or block(ncut, x, y, n))
    run_suite("wigner", SuiteConfig())
    # 25 grid points for the 16 matrix units, the origin, 25 for the vacuum
    # and 8 full-size rotations against the direct route
    assert len(sizes) == 59
    assert (sizes.count(4), sizes.count(1), sizes.count(64)) == (25, 26, 8)


def test_wigner_rotation_matches_direct_displacement():
    # off-grid points, the negative x axis (atan2 = pi), the negative y axis
    # and the origin
    points = ((0.3, -0.7), (-1.3, 2.2), (-1.7, 0.0), (0.0, -0.9), (0.0, 0.0))
    for ncut in (16, 48):
        for n in (1, 4, ncut):
            for x, y in points:
                direct = lm.displacement(ncut, x, y)[:n, :n]
                rotated = lm.displacement_block(ncut, x, y, n)
                assert rotated.shape == (n, n)
                assert np.max(np.abs(rotated - direct)) < 1e-12


def test_position_eigensystem_built_once_per_cut(monkeypatch):
    from landau_modular.hs_space import matrix_unit
    calls = []
    solve = lm.hermitian_eig
    monkeypatch.setattr(lm, "_POSITION", {})
    monkeypatch.setattr(lm, "hermitian_eig",
                        lambda a: calls.append(a.shape) or solve(a))
    for x, y in ((0.5, -1.0), (2.0, 1.5), (-1.0, 0.0)):
        for n, l in ((0, 0), (1, 2)):
            lm.wigner_sample(matrix_unit(3, n, l), x, y, 40)
    lm.wigner_sample(matrix_unit(2, 1, 1), 0.2, 0.1, 24)
    assert calls == [(40, 40), (24, 24)]


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_coordinates_rejected(bad):
    from landau_modular.hs_space import matrix_unit
    x00 = matrix_unit(1, 0, 0)
    for name, x, y in (("x", bad, 0.5), ("y", 0.5, bad)):
        with pytest.raises(ValueError, match=f"coordinate {name}"):
            lm.wigner_sample(x00, x, y, 16)
        with pytest.raises(ValueError, match=f"coordinate {name}"):
            lm.displacement(16, x, y)
        with pytest.raises(ValueError, match=f"coordinate {name}"):
            lm.displacement_block(16, x, y, 4)
