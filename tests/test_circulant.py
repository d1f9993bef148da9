import numpy as np
import pytest

from circulant_qft.circulant import (
    circulant_eigenvalues,
    dft_matrix,
    materialize,
    phase_equivalent_circulant,
)
from circulant_qft.errors import PhysicsError
from circulant_qft.linalg import dagger, frobenius, hermiticity_defect
from circulant_qft.models import build_six_level

from helpers import random_hermitian_circulant_column


def test_materialize_identity():
    column = np.array([1, 0, 0, 0], dtype=complex)
    assert np.array_equal(materialize(column), np.eye(4, dtype=complex))


def test_materialize_ring_coupling_layout():
    v = 1 + 1j / 3
    column = np.array([0, np.conj(v), 0, v])
    expected = np.array(
        [[0, v, 0, np.conj(v)],
         [np.conj(v), 0, v, 0],
         [0, np.conj(v), 0, v],
         [v, 0, np.conj(v), 0]]
    )
    assert np.array_equal(materialize(column), expected)


def test_materialize_three_by_three_unrolled():
    c0, c1, c2 = 1.0, 2.0 + 1j, -0.5j
    column = np.array([c0, c1, c2])
    expected = np.array([[c0, c2, c1], [c1, c0, c2], [c2, c1, c0]])
    assert np.array_equal(materialize(column), expected)


def test_eigenvalues_identity_spec():
    column = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(circulant_eigenvalues(column), np.ones(4), atol=1e-14)


def test_eigenvalues_ring_coupling_in_index_order():
    e = 2.5
    v = e * (1 + 1j / 3)
    column = np.array([0, np.conj(v), 0, v])
    lam = circulant_eigenvalues(column)
    # lambda_n = 2 Re(V i^n): (2E, -2E/3, -2E, 2E/3)
    assert np.allclose(lam.real, [2 * e, -2 * e / 3, -2 * e, 2 * e / 3], atol=1e-12)
    assert np.abs(lam.imag).max() <= 1e-12


def test_eigenvalues_match_dense_solver_n8():
    rng = np.random.default_rng(42)
    c = random_hermitian_circulant_column(rng, 8)
    assert hermiticity_defect(materialize(c)) <= 1e-12
    lam = np.sort(circulant_eigenvalues(c).real)
    dense = np.linalg.eigvalsh(materialize(c))
    assert np.abs(lam - dense).max() <= 1e-10


@pytest.mark.parametrize("n", range(2, 65, 6))
def test_eigenvalue_multiset_property(n):
    rng = np.random.default_rng(n)
    column = random_hermitian_circulant_column(rng, n)
    lam = np.sort(circulant_eigenvalues(column).real)
    dense = np.linalg.eigvalsh(materialize(column))
    assert np.abs(lam - dense).max() <= 1e-10


def test_dft_matrix_n2():
    f = dft_matrix(2)
    assert np.allclose(f, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_dft_matrix_n4_entry():
    f = dft_matrix(4)
    assert np.allclose(f[1, 1], 0.5j, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 64])
def test_dft_unitarity(n):
    f = dft_matrix(n)
    assert frobenius(f @ f.conj().T - np.eye(n)) <= 1e-12


def off_diagonal_mass(column):
    """Frobenius norm of the off-diagonal part of F' C F, after checking
    that its diagonal is circulant_eigenvalues in index order."""
    c = materialize(column)
    f = dft_matrix(len(column))
    d = dagger(f) @ c @ f
    mismatch = np.abs(np.diag(d) - circulant_eigenvalues(column)).max()
    assert mismatch <= 1e-10 * max(1.0, frobenius(c))
    return frobenius(d - np.diag(np.diag(d)))


def test_diagonalization_identity_spec():
    column = np.array([1, 0, 0, 0], dtype=complex)
    assert off_diagonal_mass(column) <= 1e-14


def test_diagonalization_ring_spec():
    v = 1 + 1j / 3
    column = np.array([0, np.conj(v), 0, v])
    assert off_diagonal_mass(column) <= 1e-12


def test_diagonalization_random_n64():
    rng = np.random.default_rng(64)
    column = random_hermitian_circulant_column(rng, 64)
    assert off_diagonal_mass(column) <= 1e-10


def test_diagonalization_convention_column_pairing():
    # column n of the DFT must be the eigenvector for lambda_n, not some
    # permutation of it
    rng = np.random.default_rng(5)
    column = random_hermitian_circulant_column(rng, 6)
    c = materialize(column)
    f = dft_matrix(6)
    lam = circulant_eigenvalues(column)
    for n in range(6):
        assert np.abs(c @ f[:, n] - lam[n] * f[:, n]).max() <= 1e-10


class TestPhaseEquivalent:
    def test_already_circulant_recovers_spec(self):
        v = 1 + 1j / 3
        h = materialize(np.array([0, np.conj(v), 0, v]))
        beta, column, residual = phase_equivalent_circulant(h)
        assert np.allclose(beta, 0.0, atol=1e-12)
        assert np.allclose(column, [0, np.conj(v), 0, v], atol=1e-12)
        assert residual <= 1e-12

    def test_six_level_equal_rabi(self):
        omega = 2.0
        h = build_six_level(omega, omega)
        # cyclic subdiagonal is (-1, 1, 1, -1, 1, -1) * omega / 2 by hand
        sub = h[(np.arange(6) + 1) % 6, np.arange(6)]
        assert np.allclose(sub, np.array([-1, 1, 1, -1, 1, -1]) * omega / 2)
        beta, column, residual = phase_equivalent_circulant(h)
        # loop product is -(omega/2)^6, principal sixth root has argument pi/6
        assert np.allclose(column[1],
                           (omega / 2) * np.exp(1j * np.pi / 6), atol=1e-12)
        assert residual <= 1e-12

    def test_modulus_mismatch_rejected(self):
        h = build_six_level(1.0, 2.0)
        with pytest.raises(PhysicsError, match="unequal moduli"):
            phase_equivalent_circulant(h)

    def test_similarity_identity_and_gauge_invariance(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 6, 9):
            # random ring: equal moduli, random phases, equal real diagonal
            phases = rng.uniform(-np.pi, np.pi, n)
            mod = rng.uniform(0.5, 2.0)
            d0 = rng.standard_normal()
            h = np.zeros((n, n), dtype=complex)
            for k in range(n):
                h[(k + 1) % n, k] = mod * np.exp(1j * phases[k])
                h[k, (k + 1) % n] = np.conj(h[(k + 1) % n, k])
                h[k, k] = d0
            beta, column, residual = phase_equivalent_circulant(h)
            assert residual <= 1e-12
            d = np.diag(np.exp(1j * beta))
            assert frobenius(d @ h @ d.conj().T - materialize(column)) <= 1e-12
            lam = np.sort(circulant_eigenvalues(column).real)
            dense = np.linalg.eigvalsh(h)
            assert np.abs(lam - dense).max() <= 1e-10

    def test_six_level_spectrum_degenerate_for_any_phases(self):
        # the ring's loop product has phase-independent argument, so the
        # reduced circulant spectrum is doubly degenerate however the Rabi
        # frequencies are phased (documented observation, not a failure)
        rng = np.random.default_rng(3)
        for _ in range(5):
            o1 = 1.5 * np.exp(1j * rng.uniform(-np.pi, np.pi))
            o2 = 1.5 * np.exp(1j * rng.uniform(-np.pi, np.pi))
            _, column, _ = phase_equivalent_circulant(build_six_level(o1, o2))
            lam = np.sort(circulant_eigenvalues(column).real)
            gaps = np.diff(lam)
            assert (gaps < 1e-9).sum() == 3  # three degenerate pairs
