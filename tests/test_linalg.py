"""Dense linear algebra: linalg's helpers, and the Hermitian
eigendecomposition and step exponential of _kernels on single matrices."""

import numpy as np
import pytest

from circulant_qft import _kernels
from circulant_qft.errors import PhysicsError
from circulant_qft.linalg import (
    CLUSTER_GAP_RTOL,
    dagger,
    frobenius,
    is_degenerate,
    require_hermitian,
    unitarity_defect,
)

from helpers import complex_form, random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
ONE = np.ones(1)
ZERO = np.zeros(1)


def eigh_one(m):
    """(w, v) of one matrix through the batched grid eigensolver."""
    w, v = _kernels.eigh_grid(m, np.zeros_like(m), ONE, ZERO)
    return w[0], v[0]


def step_exp(h, dt):
    """exp(-i H dt) as the propagator's step exponential computes it."""
    h = np.asarray(h, dtype=complex)
    taylor = _kernels._taylor(h, np.zeros_like(h), ONE, ZERO, np.array([dt]))
    return complex_form(_kernels._step_matrices(*taylor,
                                                _kernels._Scratch())[0, 0])


def test_identity_eigenvalues():
    w, v = eigh_one(np.eye(4, dtype=complex))
    assert np.allclose(w, [1, 1, 1, 1])
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_pauli_x_eigenvalues():
    w, _ = eigh_one(PAULI_X)
    assert np.allclose(w, [-1, 1], atol=1e-14)


def test_ring_coupling_eigenvalues_match_phased_sums():
    # first column (0, V*, 0, V) has spectrum 2*Re(V * i^n); for
    # V = 1 + i/3 that multiset is {2, -2/3, -2, 2/3}
    v = 1 + 1j / 3
    h = np.array(
        [[0, v, 0, np.conj(v)],
         [np.conj(v), 0, v, 0],
         [0, np.conj(v), 0, v],
         [v, 0, np.conj(v), 0]]
    )
    expected = sorted(2 * np.real(v * 1j**n) for n in range(4))
    w, _ = eigh_one(h)
    assert np.allclose(w, expected, atol=1e-12)
    assert np.allclose(w, [-2, -2 / 3, 2 / 3, 2], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_eigen_reconstruction_and_residuals(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        m = random_hermitian(rng, n)
        scale = frobenius(m)
        w, v = eigh_one(m)
        assert np.all(np.diff(w) >= 0)
        assert frobenius(v @ np.diag(w) @ dagger(v) - m) <= 1e-9 * scale
        assert frobenius(dagger(v) @ v - np.eye(n)) <= 1e-10
        assert frobenius(m @ v - v * w) <= 1e-10 * scale


def test_non_hermitian_rejected():
    m = np.array([[0, 1], [0.5, 0]], dtype=complex)
    with pytest.raises(PhysicsError, match="not Hermitian"):
        require_hermitian(m)


def test_degeneracy_is_relative_to_the_largest_magnitude():
    # the gap may sit anywhere in unsorted values; a gap of exactly the
    # tolerance counts as degenerate, the next float above does not
    gap = CLUSTER_GAP_RTOL * 4.0
    assert is_degenerate([4.0, 0.0, gap, -2.0])
    assert not is_degenerate([4.0, 0.0, np.nextafter(gap, 1.0), -2.0])
    assert is_degenerate(1e-300 * np.array([4.0, 0.0, CLUSTER_GAP_RTOL]))
    assert not is_degenerate(1e-300 * np.array([4.0, 0.0, 1.0]))
    assert is_degenerate(np.zeros(3))


def test_exp_of_zero_is_identity():
    assert np.allclose(step_exp(np.zeros((3, 3)), 0.7), np.eye(3), atol=1e-14)


def test_exp_diagonal_case():
    omega = np.array([0.3, -1.2, 4.0])
    dt = 0.57
    u = step_exp(np.diag(omega).astype(complex), dt)
    assert np.allclose(u, np.diag(np.exp(-1j * omega * dt)), atol=1e-14)


def test_exp_pauli_x_quarter_period():
    u = step_exp(PAULI_X, np.pi / 2)
    assert np.allclose(u, -1j * PAULI_X, atol=1e-14)


def test_exp_semigroup_and_unitarity():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 5)
    a, b = 0.31, 1.7
    prod = step_exp(h, a) @ step_exp(h, b)
    assert frobenius(prod - step_exp(h, a + b)) <= 1e-10
    assert unitarity_defect(step_exp(h, 2.3)) <= 1e-12
