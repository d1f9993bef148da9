import numpy as np
import pytest

from circulant_qft.circulant import dft_matrix
from circulant_qft.linalg import unitarity_defect
from circulant_qft.qpe import (
    ideal_distribution,
    nearest_value,
    prepare_register_state,
    run_qpe,
)
from circulant_qft.schedule import INVERSE, Schedule

from conftest import phased_inverse_qft, phased_oracle_distribution


class TestBits:
    def test_exact_expansion_roundtrip(self):
        k, exact = nearest_value(0.75, 4)
        assert k == 3 and exact
        assert k / 4 == 0.75

    def test_nearest_for_third(self):
        k, exact = nearest_value(1 / 3, 4)
        assert k == 1
        assert not exact

    def test_nearest_is_cyclic(self):
        # phases identify 1 with 0, so 0.99 rounds to 00 not 11
        k, exact = nearest_value(0.99, 4)
        assert k == 0
        assert not exact


class TestRegisterState:
    def test_zero_phase_uniform(self):
        psi = prepare_register_state(0.0, 4)
        assert np.allclose(psi, 0.5 * np.ones(4), atol=1e-15)

    def test_three_quarters_is_dft_column_three(self):
        psi = prepare_register_state(0.75, 4)
        assert np.allclose(psi, 0.5 * np.array([1, -1j, -1, 1j]), atol=1e-14)
        assert np.allclose(psi, dft_matrix(4)[:, 3], atol=1e-14)

    def test_half_phase_single_qubit(self):
        psi = prepare_register_state(0.5, 2)
        assert np.allclose(psi, np.array([1, -1]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.1, 1 / 3, 0.9])
    def test_unit_norm(self, phi):
        assert abs(np.linalg.norm(prepare_register_state(phi, 8)) - 1) <= 1e-10


class TestIdealOracle:
    # phased_inverse_qft is the brute-force oracle that ideal_distribution
    # is checked against; these check the oracle itself
    def test_identity_case_is_inverse_dft(self):
        u = phased_inverse_qft(np.zeros(4), np.arange(4), 4)
        assert np.allclose(u, dft_matrix(4).conj().T, atol=1e-15)

    def test_unitary(self):
        rng = np.random.default_rng(0)
        u = phased_inverse_qft(rng.uniform(-np.pi, np.pi, 8),
                               rng.permutation(8), 8)
        assert unitarity_defect(u) <= 1e-14

    def test_dft_column_maps_to_point_mass(self):
        rng = np.random.default_rng(1)
        alpha = rng.uniform(-np.pi, np.pi, 4)
        sigma = rng.permutation(4)
        u = phased_inverse_qft(alpha, sigma, 4)
        for n in range(4):
            out = u @ dft_matrix(4)[:, n]
            p = np.abs(out) ** 2
            assert np.isclose(p[sigma[n]], 1.0, atol=1e-12)

    def test_composes_with_phased_forward_to_identity(self):
        # the phased transform and its inverse share one alpha vector, so
        # their product is exactly the identity
        rng = np.random.default_rng(2)
        alpha = rng.uniform(-np.pi, np.pi, 4)
        f = dft_matrix(4)
        forward = np.exp(1j * alpha)[None, :] * f
        inverse = phased_inverse_qft(alpha, np.arange(4), 4)
        assert np.abs(inverse @ forward - np.eye(4)).max() <= 1e-14

    def test_distribution_independent_of_alpha(self):
        # every phased, renumbered inverse transform gives ideal_distribution
        # once the renumbering is undone
        rng = np.random.default_rng(3)
        sigma = rng.permutation(4)
        for phi in (0.75, 1 / 3, 0.11):
            base = np.round(ideal_distribution(phi, 4), 12)
            for alpha in [np.zeros(4)] + list(rng.uniform(-np.pi, np.pi,
                                                          (10, 4))):
                p = np.round(phased_oracle_distribution(phi, 4, sigma, alpha),
                             12)
                assert np.array_equal(p, base)

    def test_exact_phase_point_mass_on_relabeled_bits(self):
        rng = np.random.default_rng(4)
        sigma = rng.permutation(4)
        p = phased_oracle_distribution(0.75, 4, sigma, np.zeros(4))
        assert np.isclose(p[3], 1.0, atol=1e-12)
        assert np.isclose(ideal_distribution(0.75, 4)[3], 1.0, atol=1e-12)


def inverse(model, pulses, **kwargs):
    h0, h1 = model
    return Schedule(pulses=pulses, h0=h0, h1=h1, direction=INVERSE, **kwargs)


class TestRunQpe:
    def test_paper_point(self, paper_model, paper_pulses):
        s = inverse(paper_model, paper_pulses)
        times, fidelity, _, relabeled = run_qpe(s, 0.75)
        assert fidelity[-1] >= 0.99
        assert np.argmax(relabeled) == 3
        assert nearest_value(0.75, 4) == (3, True)
        # the trace ends at the window end, where the register is read
        # ("tends to unity"), and its last point is the target's weight
        assert times[-1] == s.window[1]
        assert fidelity[-1] == relabeled[3]

    def test_distributions_are_permutations_of_each_other(self, paper_model,
                                                          paper_pulses):
        _, _, raw, relabeled = run_qpe(inverse(paper_model, paper_pulses),
                                       0.6)
        assert np.allclose(np.sort(raw), np.sort(relabeled), atol=0)
        assert abs(raw.sum() - 1) <= 1e-9

    def test_simulator_close_to_oracle_for_inexact_phase(self, paper_model,
                                                         paper_pulses):
        _, _, _, relabeled = run_qpe(inverse(paper_model, paper_pulses),
                                     1 / 3)
        assert not nearest_value(1 / 3, 4)[1]
        assert np.argmax(relabeled) == 1
        ideal = ideal_distribution(1 / 3, 4)
        tv = 0.5 * np.abs(ideal - relabeled).sum()
        assert tv <= 1e-2
        # nearest-bit weight from the ideal oracle: |mean of 4 unit phasors
        # at spacing 2 pi (1/3 - 1/4)|^2
        spacing = 2 * np.pi * (1 / 3 - 1 / 4)
        expected = abs(np.mean(np.exp(1j * spacing * np.arange(4)))) ** 2
        assert np.isclose(ideal[1], expected, atol=1e-12)
        assert abs(relabeled[1] - expected) <= 1e-2

    def test_integrates_steps_once(self, paper_model, paper_pulses,
                                   propagated_steps):
        # run_qpe never reads the convergence estimate, so no rerun
        run_qpe(inverse(paper_model, paper_pulses, steps=600), 0.75)
        assert propagated_steps[0] == 600
