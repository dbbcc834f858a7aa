import math
import tracemalloc

import numpy as np
import pytest

from landau_modular import landau_modes as lm
from landau_modular import phase_space as ps
from landau_modular.dense_linalg import adjoint
from landau_modular.rng import SplitMix64


def test_wigner_origin_and_vacuum():
    from landau_modular.hs_space import matrix_unit
    x00 = matrix_unit(1, 0, 0)
    got = ps.wigner_sample(x00, 0.0, 0.0, 48)
    assert abs(got - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    for x, y in ((0.5, -1.0), (2.0, 1.5)):
        expect = math.exp(-(x * x + y * y) / 4.0) / math.sqrt(2.0 * math.pi)
        assert abs(ps.wigner_sample(x00, x, y, 48) - expect) < 1e-6


def test_wigner_matches_corrected_closed_form():
    from landau_modular.hs_space import matrix_unit
    for n in range(3):
        for l in range(3):
            x_op = matrix_unit(3, n, l)
            for x, y in ((0.3, -0.7), (1.1, 0.4)):
                got = ps.wigner_sample(x_op, x, y, 48)
                assert abs(got - ps.wigner_closed_form([(n, l)], x, y)[1][0]) < 1e-9


def test_wigner_sample_of_a_stack_matches_single_samples():
    from landau_modular.hs_space import matrix_unit
    stack = np.array([matrix_unit(3, n, l) for n in range(3) for l in range(3)])
    stack = stack + SplitMix64(5).complex_matrix(3)
    for x, y in ((0.3, -0.7), (0.0, 0.0)):
        got = ps.wigner_sample(stack, x, y, 24)
        assert got.shape == (9,)
        assert all(got[i] == ps.wigner_sample(op, x, y, 24)
                   for i, op in enumerate(stack))
    for bad in (np.zeros((2, 2, 3)), np.zeros((1, 2, 2, 2)), np.zeros((2, 5, 5))):
        with pytest.raises(ValueError, match="incompatible"):
            ps.wigner_sample(bad, 0.1, 0.2, 4)


def _dense_generator(ncut, x, y):
    # xQ + yP as the dense sum of ladder matrices, the reference for the
    # generator written on its band
    a = lm.ladder(ncut)
    ad = a.conj().T
    return x * ((a + ad) / math.sqrt(2.0)) + y * ((a - ad) / (1j * math.sqrt(2.0)))


@pytest.mark.parametrize("ncut", (8, 64, 128, 257))
def test_banded_generator_has_the_bits_of_the_dense_sum(ncut):
    # the origin, both axes on both sides, every quadrant (in the third,
    # the entries off the band are -0.0 in the dense sum)
    points = ((0.0, 0.0), (1.5, 0.0), (-1.5, 0.0), (0.0, 0.7), (0.0, -0.7),
              (1.3, 0.4), (-0.3, 2.2), (-2.0, -2.0), (0.6, -1.7))
    for x, y in points:
        got, want = ps._generator(ncut, x, y), _dense_generator(ncut, x, y)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (x, y)


@pytest.mark.parametrize("ncut", (8, 64, 128, 257))
def test_position_operator_has_the_bits_of_the_ladder_sum(ncut):
    # phase_space writes out the ladder's expression, since importing
    # landau_modes.ladder would load the two-mode layer; the copy must not
    # drift from it
    a = lm.ladder(ncut)
    got, want = ps._position(ncut), (a + adjoint(a)) / math.sqrt(2.0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _closed_form_per_label(n, l, x, y, literal):
    # each label from a basis table of its own degree max(n, l)
    from landau_modular.cgauss_quad import basis_values
    z = (x - 1j * y) / math.sqrt(2.0)
    a, b = (n, l) if literal else (l, n)
    val = basis_values(z, max(n, l))[a, b]
    phase = 1.0 if literal else 1j ** (n + l)
    return phase * np.exp(-np.abs(z) ** 2 / 2.0) * val / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("literal", (True, False))
def test_closed_forms_from_one_table_have_the_bits_of_per_label_tables(literal):
    # the wigner suite's 16 labels at its 25 grid points; the printed form
    # is the first of the pair, the corrected one the second
    grid = np.linspace(-2.0, 2.0, 5)
    xs, ys = np.repeat(grid, 5), np.tile(grid, 5)
    labels = [(n, l) for n in range(4) for l in range(4)]
    got = ps.wigner_closed_form(labels, xs, ys)[0 if literal else 1]
    want = np.array([_closed_form_per_label(n, l, xs, ys, literal) for n, l in labels])
    assert got.dtype == want.dtype and got.shape == want.shape == (16, 25)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ncut", (16, 64))
def test_mirrored_displacement_is_the_adjoint(ncut):
    # U(-x, -y) = exp(i(xQ + yP)) = U(x, y)*, the identity that lets the
    # wigner suite's rotation check share one direct eigensolve per pair +-p
    for x, y in ((-2.0, -2.0), (-2.0, 0.0), (-2.0, 2.0), (0.0, -2.0)):
        u = ps.displacement(ncut, x, y)
        assert np.max(np.abs(ps.displacement(ncut, -x, -y) - u.conj().T)) < 1e-13


def test_displacement_frees_its_generator_before_the_product():
    ncut = 256
    ps.displacement(ncut, 2.0, 2.0)  # first-call allocations stay outside
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ps.displacement(ncut, 2.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the eigenvectors, their scaled copy, their adjoint and the product are
    # 4 ncut^2 complex arrays; a generator held through the product made 5
    assert peak <= 4.5 * ncut * ncut * 16

def test_wigner_rotation_matches_direct_displacement():
    # off-grid points, the negative x axis (atan2 = pi), the negative y axis
    # and the origin
    points = ((0.3, -0.7), (-1.3, 2.2), (-1.7, 0.0), (0.0, -0.9), (0.0, 0.0))
    for ncut in (16, 48):
        for n in (1, 4, ncut):
            for x, y in points:
                direct = ps.displacement(ncut, x, y)[:n, :n]
                rotated = ps.displacement_block(ncut, x, y, n)
                assert rotated.shape == (n, n)
                assert np.max(np.abs(rotated - direct)) < 1e-12


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_coordinates_rejected(bad):
    from landau_modular.hs_space import matrix_unit
    x00 = matrix_unit(1, 0, 0)
    for name, x, y in (("x", bad, 0.5), ("y", 0.5, bad)):
        with pytest.raises(ValueError, match=f"coordinate {name}"):
            ps.wigner_sample(x00, x, y, 16)
        with pytest.raises(ValueError, match=f"coordinate {name}"):
            ps.displacement(16, x, y)
        with pytest.raises(ValueError, match=f"coordinate {name}"):
            ps.displacement_block(16, x, y, 4)
