import numpy as np
import pytest

from landau_modular.rng import SplitMix64


def reference_matrix(rng: SplitMix64, n: int) -> np.ndarray:
    """The matrix drawn one scalar uniform() at a time, real part first."""
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            re = rng.uniform()
            im = rng.uniform()
            m[i, j] = complex(re, im)
    return m


@pytest.mark.parametrize("seed", [0, 42, 123456789, 2**63, 2**64 - 1])
def test_complex_matrix_matches_scalar_stream(seed):
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    for n in (1, 2, 5, 40):
        got = fast.complex_matrix(n)
        expect = reference_matrix(ref, n)
        assert got.shape == (n, n) and got.dtype == np.complex128
        assert got.tobytes() == expect.tobytes()
        assert fast.state == ref.state
        # scalar draws between matrices continue the same stream
        assert fast.uniform() == ref.uniform()
        assert fast.state == ref.state


def test_known_first_values():
    # splitmix64 from seed 0: first output 0xE220A8397B1DCDAF
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    m = SplitMix64(0).complex_matrix(1)
    assert m[0, 0].real == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
