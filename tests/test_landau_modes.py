import math

import numpy as np
import pytest

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
    # the 60-point Gauss-Hermite rule, with the weight e^(-x^2) divided out,
    # is a reference independent of the suite's trapezoidal rule
    x, w = np.polynomial.hermite.hermgauss(60)
    w = w * np.exp(x ** 2)
    for m in range(9):
        for n in range(9):
            vals = [lm.hermite_fn(m, xi) * lm.hermite_fn(n, xi) for xi in x]
            got = float(np.sum(w * vals))
            assert abs(got - (1.0 if m == n else 0.0)) < 1e-10


def test_hermite_fn_of_an_array_matches_the_scalar_calls():
    x = 0.25 * np.arange(-40.0, 41.0)
    # np.exp and math.exp may differ in the last place of e^(-x^2/2)
    e = np.exp(-x * x / 2.0)
    ref = np.array([math.exp(-t * t / 2.0) for t in x])
    assert np.all(np.abs(e - ref) <= np.spacing(ref))
    same = e == ref
    assert same.mean() > 0.5
    for n in range(9):
        got = lm.hermite_fn(n, x)
        want = np.array([lm.hermite_fn(n, float(t)) for t in x])
        assert got.shape == x.shape
        # from one starting value the array recurrence is the scalar one
        assert np.array_equal(got[same], want[same])
        assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))
        assert type(lm.hermite_fn(n, 0.75)) is float


def _dense_modes(ncut: int) -> tuple[np.ndarray, np.ndarray]:
    """The two-mode lowering operators as dense Kronecker products: the
    independent reference for the banded ones."""
    a, eye = lm.ladder(ncut), np.eye(ncut)
    return np.kron(a, eye), np.kron(eye, a)


def _dense(op: lm.BandedOp) -> np.ndarray:
    """The full matrix of a banded operator, as its principal block on every
    index."""
    return op.block(np.arange(op.dim))


@pytest.mark.parametrize("ncut", (5, 6))
def test_banded_ops_match_dense_kron_references(ncut):
    cut = lm.ModeCut(ncut)
    ax, ay = lm.mode_ops(cut)
    dx, dy = _dense_modes(ncut)
    assert np.array_equal(_dense(ax), dx)
    assert np.array_equal(_dense(ay), dy)
    op = 0.75 * (ax - 1j * ay) - 0.25 * (ax.dag() - 1j * ay.dag())
    dense = 0.75 * (dx - 1j * dy) - 0.25 * (dx.conj().T - 1j * dy.conj().T)
    assert np.allclose(_dense(op), dense, rtol=0, atol=1e-15)
    assert np.array_equal(_dense(op.dag()), _dense(op).conj().T)
    assert np.array_equal(_dense(op.conj()), _dense(op).conj())
    assert np.array_equal(_dense(-op / 2), -_dense(op) / 2)
    idx = np.array([0, 3, ncut, ncut + 1, cut.dim - 1])
    assert np.array_equal(op.block(idx), _dense(op)[np.ix_(idx, idx)])
    v = SplitMix64(ncut).complex_matrix(ncut).reshape(-1)
    assert np.allclose(op @ v, dense @ v, rtol=0, atol=1e-13)
    for left, right in ((op, op.dag()), (op.dag(), op), (ay, ay.dag()), (ax @ ay, op)):
        assert np.allclose(_dense(left @ right), _dense(left) @ _dense(right),
                           rtol=0, atol=1e-13)
    assert _dense(lm.build_A_pm(cut).a_plus) == pytest.approx(dense, abs=1e-15)


@pytest.mark.parametrize("ncut", (3, 5))
def test_banded_matvec_matches_dense_for_each_offset(ncut):
    # offsets 0 and +-1 (the x ladders on the joint index) and +-ncut (the y
    # ladders): each diagonal adds into the rows whose column is inside
    dim = ncut * ncut
    rng = SplitMix64(ncut)
    v = rng.complex_matrix(ncut).reshape(-1)
    for offsets in ((0,), (1,), (-1,), (ncut,), (-ncut,), (-ncut, -1, 0, 1, ncut)):
        op = lm.BandedOp(dim, {k: rng.complex_matrix(ncut).reshape(-1)
                               for k in offsets})
        assert np.allclose(op @ v, _dense(op) @ v, rtol=0, atol=1e-14)
        real = lm.BandedOp(dim, {k: d.real for k, d in op.diags.items()})
        assert np.allclose(real @ v.real, _dense(real) @ v.real, rtol=0, atol=1e-14)
        assert (real @ v.real).dtype == float


@pytest.mark.parametrize("ncut", (3, 4))
def test_smallest_banded_products_match_dense(ncut):
    # at cuts of 4 and below, h_up @ h_down pairs offsets whose sum lies
    # outside the matrix; the product keeps no such diagonal
    cut = lm.ModeCut(ncut)
    h = lm.hamiltonians(cut)
    ops = lm.build_A_pm(cut)
    for left, right in ((h.h_up, h.h_down), (ops.a_plus, ops.a_minus_dag)):
        product = left @ right
        assert max(abs(k) for k in product.diags) < cut.dim
        assert np.allclose(_dense(product), _dense(left) @ _dense(right),
                           rtol=0, atol=1e-13)


def test_banded_rows_at_the_cut_edge_do_not_wrap():
    # a_y shifts the joint index by 1, so the row n_y = ncut - 1 of one x block
    # sits next to n_y = 0 of the next block; the banded diagonal must hold a
    # zero there, and the products must keep it
    ncut = 5
    cut = lm.ModeCut(ncut)
    ax, ay = lm.mode_ops(cut)
    nx, ny = np.divmod(np.arange(cut.dim), ncut)
    assert not _dense(ay)[ny == ncut - 1].any()
    assert not _dense(ax)[nx == ncut - 1].any()
    n_y = _dense(ay.dag() @ ay)
    assert np.allclose(n_y, np.diag(ny), rtol=0, atol=1e-15)
    # a_y a_y* = N_y + 1 except on the top row of each block, where it is 0
    top = _dense(ay @ ay.dag())
    assert np.allclose(top, np.diag(np.where(ny < ncut - 1, ny + 1.0, 0.0)),
                       rtol=0, atol=1e-15)
    assert not top[ny == ncut - 1].any()
    assert np.array_equal(top, np.diag(np.diag(top)))
    v = np.ones(cut.dim)
    assert np.array_equal(ay @ v, np.where(ny < ncut - 1, np.sqrt(ny + 1.0), 0.0))
    with pytest.raises(ValueError, match="does not match"):
        ay @ np.ones(cut.dim + 1)


def _dense(op: lm.BandedOp) -> np.ndarray:
    """op as a sum of dense np.diag matrices, independent of BandedOp.block."""
    out = np.zeros((op.dim, op.dim), dtype=complex)
    for k, d in op.diags.items():
        out += np.diag(d[max(-k, 0):op.dim - max(k, 0)], k)
    return out


def _dense_interior_deviation(op, target, mask) -> float:
    """The column norms of the dense difference: the reference the banded
    interior_deviation must equal bit for bit."""
    return float(np.linalg.norm(_dense(op)[:, mask] - _dense(target)[:, mask],
                                axis=0).max())


@pytest.mark.parametrize("ncut", (8, 16, 24))
def test_interior_deviation_matches_dense_column_norms(ncut):
    cut = lm.ModeCut(ncut)
    mask = lm.interior_mask(cut)
    ops = lm.build_A_pm(cut)
    lit = lm.build_A_pm(cut, literal=True)
    h = lm.hamiltonians(cut)
    eye, zero = lm.BandedOp(cut.dim, {0: np.ones(cut.dim)}), lm.BandedOp(cut.dim, {})
    cases = [
        (ops.a_plus, ops.a_plus_dag, eye),
        (ops.a_minus, ops.a_minus_dag, eye),
        (ops.a_plus, ops.a_minus, zero),
        (ops.a_plus, ops.a_minus_dag, zero),
        (ops.a_plus_dag, ops.a_minus, zero),
        (ops.a_plus_dag, ops.a_minus_dag, zero),
        (lit.a_plus, ops.a_minus_dag, -0.125 * eye),
        (h.h_up, h.h_down, zero),
    ]
    for p, q, target in cases:
        comm = p @ q - q @ p
        assert lm.interior_deviation(comm, target, mask) \
            == _dense_interior_deviation(comm, target, mask)
    # a deviation far from zero, against a target with its own diagonal
    target = lm.BandedOp(cut.dim, {0: np.arange(cut.dim, dtype=float)})
    got = lm.interior_deviation(h.h_up, target, mask)
    assert got == _dense_interior_deviation(h.h_up, target, mask)
    assert got > 0
    # seven diagonals of mixed magnitudes, where the order of the column sum
    # shows in the last bits
    rng = SplitMix64(ncut)
    op = lm.BandedOp(cut.dim, {k: rng.complex_matrix(ncut).reshape(-1) * 10.0 ** (k % 5)
                               for k in (-ncut - 1, -ncut, -1, 0, 1, ncut, ncut + 1)})
    assert lm.interior_deviation(op, zero, mask) \
        == _dense_interior_deviation(op, zero, mask)


def test_ground_state_block_matches_dense_slice(monkeypatch):
    cut = lm.ModeCut(16)
    mask = lm.interior_mask(cut)
    h = lm.hamiltonians(cut)
    dense = _dense(h.n_plus + h.n_minus)[np.ix_(mask, mask)]
    seen, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or eigh(a))
    lm.ground_state(cut)
    assert len(seen) == 1 and seen[0].shape == (91, 91)
    assert np.array_equal(seen[0], 0.5 * (dense + dense.conj().T))


def test_ladders_built_once_per_cut():
    cut = lm.ModeCut(24)
    assert lm.build_A_pm(cut) is lm.build_A_pm(lm.ModeCut(24))
    # the covariant-momentum route stays a separate build each time
    assert lm.build_A_pm_from_qp(cut) is not lm.build_A_pm_from_qp(cut)


def test_equal_cuts_share_one_ladder_build():
    # two separately made ModeCut(16) are one cache key: equal, with equal
    # hashes; a cut of 17 is not (BUILDS in test_builds.py counts the builds)
    first, second = lm.ModeCut(16), lm.ModeCut(16)
    assert first is not second and first == second and hash(first) == hash(second)
    assert lm.ModeCut(17) != first
    assert lm.build_A_pm(first) is lm.build_A_pm(second)


def test_interior_spectrum_is_half_integers():
    cut = lm.ModeCut(12)
    mask = lm.interior_mask(cut)
    h = lm.hamiltonians(cut)
    sub = _dense(h.h_up)[np.ix_(mask, mask)]
    vals = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
    # the operator is a compressed N + 1/2 with N positive semidefinite, so
    # the spectrum sits above 1/2; the bottom eigenvalue approaches 1/2 as
    # the cut grows (edge compression pollutes the higher clusters)
    assert vals[0] > 0.5 - 1e-12
    assert abs(vals[0] - 0.5) < 1e-3
    cut = lm.ModeCut(20)
    mask = lm.interior_mask(cut)
    h = lm.hamiltonians(cut)
    sub = _dense(h.h_up)[np.ix_(mask, mask)]
    vals = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
    assert abs(vals[0] - 0.5) < 1e-6


def test_conjugation_intertwines_exactly():
    h = lm.hamiltonians(lm.ModeCut(10))
    assert np.max(np.abs(_dense(h.h_up.conj() - h.h_down))) == 0.0


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


def test_fock_states_at_one_cut_build_one_vacuum():
    # one closed-form vacuum per cut, shared and read-only (BUILDS in
    # test_builds.py counts the builds)
    vacuum = lm.squeezed_vacuum(lm.ModeCut(24))
    assert lm.squeezed_vacuum(lm.ModeCut(24)) is vacuum
    assert np.array_equal(lm.fock_psi(lm.ModeCut(24), 0, 0), vacuum)
    with pytest.raises(ValueError):
        vacuum[0] = 0


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

