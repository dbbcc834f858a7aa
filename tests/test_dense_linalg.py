import os
import subprocess
import sys

import numpy as np
import pytest

from landau_modular.dense_linalg import (
    adjoint,
    frob,
    hermitian_eig,
    hermitian_function,
)
from landau_modular.rng import SplitMix64


def test_frob_is_the_frobenius_norm():
    a = SplitMix64(3).complex_matrix(7)
    assert frob(np.array([[3.0, 0.0], [0.0, 4.0]])) == 5.0
    assert frob(np.array([[3j, 4]])) == 5.0
    assert frob(np.zeros((2, 2))) == 0.0
    assert abs(frob(a) - np.linalg.norm(a)) <= 4e-16 * np.linalg.norm(a)


def test_frob_bits_do_not_depend_on_the_blas_thread_count():
    # fresh processes, since the thread count is read when numpy loads; at
    # dim 256 a BLAS dot (np.linalg.norm) is split across two threads, and
    # frob, a pairwise np.sum, must not be
    code = ("from landau_modular.dense_linalg import frob\n"
            "from landau_modular.rng import SplitMix64\n"
            "print(frob(SplitMix64(42).complex_matrix(256)).hex())\n")
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        bits.append(proc.stdout)
    assert bits[0] == bits[1]


def test_adjoint_identity_and_unit():
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))
    assert np.array_equal(adjoint(np.array([[0, 1], [0, 0]])),
                          np.array([[0, 0], [1, 0]]))


def test_adjoint_involution():
    a = SplitMix64(1).complex_matrix(5)
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_hermitian_eig_simple_spectra():
    e = hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(e.eigenvalues, [1.0, 2.0])
    e = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(e.eigenvalues, [-1.0, 1.0])


def test_hermitian_eig_reconstruction():
    a = SplitMix64(4).hermitian_matrix(8)
    e = hermitian_eig(a)
    recon = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.conj().T
    assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)
    gram = e.eigenvectors.conj().T @ e.eigenvectors
    assert np.linalg.norm(gram - np.eye(8)) <= 1e-12 * 8


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_func_calculus_identity_and_phases():
    a = SplitMix64(5).hermitian_matrix(6)
    assert np.allclose(hermitian_function(a, lambda x: x), a, atol=1e-12)
    d = np.diag([0.3, 1.7])
    t = 2.1
    out = hermitian_function(d, lambda lam: np.exp(1j * lam * t))
    assert np.allclose(out, np.diag(np.exp(1j * np.diag(d) * t)), atol=1e-14)


def test_func_calculus_exp_inverse_pair():
    rng = SplitMix64(6)
    for _ in range(3):
        a = rng.hermitian_matrix(6)
        # keep the spectral radius moderate: the product e^A e^(-A) amplifies
        # rounding by exp(spectral spread)
        a *= 5.0 / np.linalg.norm(a, 2)
        prod = hermitian_function(a, np.exp) @ hermitian_function(a, lambda x: np.exp(-x))
        assert np.linalg.norm(prod - np.eye(6)) <= 1e-10


def test_func_calculus_reports_bad_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        hermitian_function(np.diag([0.0, 1.0]),
                           lambda lam: 1.0 / lam if lam else float("inf"))
