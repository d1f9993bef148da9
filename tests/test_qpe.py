import numpy as np
import pytest

from circulant_qft.circulant import dft_matrix
from circulant_qft.linalg import unitarity_defect
from circulant_qft.qpe import (
    ideal_distribution,
    ideal_phased_inverse_qft,
    prepare_register_state,
    run_qpe,
    to_bits,
)
from circulant_qft.schedule import INVERSE, Schedule


class TestBits:
    def test_exact_expansion_roundtrip(self):
        bits, exact = to_bits(0.75, 2)
        assert bits == (1, 1) and exact
        assert int("".join(map(str, bits)), 2) / 2**2 == 0.75

    def test_nearest_for_third(self):
        bits, exact = to_bits(1 / 3, 2)
        assert bits == (0, 1)
        assert not exact

    def test_nearest_is_cyclic(self):
        # phases identify 1 with 0, so 0.99 rounds to 00 not 11
        bits, exact = to_bits(0.99, 2)
        assert bits == (0, 0)
        assert not exact

    def test_range_checks(self):
        with pytest.raises(ValueError):
            to_bits(1.0, 2)
        with pytest.raises(ValueError):
            to_bits(0.5, 0)


class TestRegisterState:
    def test_zero_phase_uniform(self):
        psi = prepare_register_state(0.0, 2)
        assert np.allclose(psi, 0.5 * np.ones(4), atol=1e-15)

    def test_three_quarters_is_dft_column_three(self):
        psi = prepare_register_state(0.75, 2)
        assert np.allclose(psi, 0.5 * np.array([1, -1j, -1, 1j]), atol=1e-14)
        assert np.allclose(psi, dft_matrix(4)[:, 3], atol=1e-14)

    def test_half_phase_single_qubit(self):
        psi = prepare_register_state(0.5, 1)
        assert np.allclose(psi, np.array([1, -1]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.1, 1 / 3, 0.9])
    def test_unit_norm(self, phi):
        assert abs(np.linalg.norm(prepare_register_state(phi, 3)) - 1) <= 1e-10


class TestIdealOracle:
    def test_identity_case_is_inverse_dft(self):
        u = ideal_phased_inverse_qft(np.zeros(4), np.arange(4), 4)
        assert np.allclose(u, dft_matrix(4).conj().T, atol=1e-15)

    def test_unitary(self):
        rng = np.random.default_rng(0)
        u = ideal_phased_inverse_qft(rng.uniform(-np.pi, np.pi, 8),
                                     rng.permutation(8), 8)
        assert unitarity_defect(u) <= 1e-14

    def test_dft_column_maps_to_point_mass(self):
        rng = np.random.default_rng(1)
        alpha = rng.uniform(-np.pi, np.pi, 4)
        sigma = rng.permutation(4)
        u = ideal_phased_inverse_qft(alpha, sigma, 4)
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
        inverse = ideal_phased_inverse_qft(alpha, np.arange(4), 4)
        assert np.abs(inverse @ forward - np.eye(4)).max() <= 1e-14

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            ideal_phased_inverse_qft(np.zeros(4), np.array([0, 0, 1, 2]), 4)

    def test_distribution_independent_of_alpha(self):
        rng = np.random.default_rng(3)
        sigma = rng.permutation(4)
        for phi in (0.75, 1 / 3, 0.11):
            base = np.round(ideal_distribution(phi, 2, sigma=sigma), 12)
            for _ in range(10):
                alpha = rng.uniform(-np.pi, np.pi, 4)
                p = np.round(ideal_distribution(phi, 2, sigma=sigma, alpha=alpha), 12)
                assert np.array_equal(p, base)

    def test_exact_phase_point_mass_on_relabeled_bits(self):
        rng = np.random.default_rng(4)
        sigma = rng.permutation(4)
        p = ideal_distribution(0.75, 2, sigma=sigma)
        assert np.isclose(p[3], 1.0, atol=1e-12)


def inverse(model, pulses, **kwargs):
    h0, h1 = model
    return Schedule(pulses=pulses, h0=h0, h1=h1, direction=INVERSE, **kwargs)


class TestRunQpe:
    def test_paper_point(self, paper_model, paper_pulses):
        result = run_qpe(inverse(paper_model, paper_pulses), 0.75, 2)
        assert result.final_fidelity >= 0.99
        assert result.top_bits == (1, 1)
        assert result.exact_expansion
        # trace endpoint is the final fidelity ("tends to unity")
        assert np.isclose(result.fidelity_trace[-1], result.final_fidelity)

    def test_distributions_are_permutations_of_each_other(self, paper_model,
                                                          paper_pulses):
        result = run_qpe(inverse(paper_model, paper_pulses), 0.6, 2)
        assert np.allclose(np.sort(result.distribution),
                           np.sort(result.relabeled_distribution), atol=0)
        assert abs(result.distribution.sum() - 1) <= 1e-9

    def test_simulator_close_to_oracle_for_inexact_phase(self, paper_model,
                                                         paper_pulses):
        result = run_qpe(inverse(paper_model, paper_pulses), 1 / 3, 2)
        assert not result.exact_expansion
        assert result.top_bits == (0, 1)
        sigma_inv = np.empty_like(result.sigma)
        sigma_inv[result.sigma] = np.arange(4)
        ideal = ideal_distribution(1 / 3, 2, sigma=sigma_inv)
        tv = 0.5 * np.abs(ideal - result.relabeled_distribution).sum()
        assert tv <= 1e-2
        # nearest-bit weight from the ideal oracle: |mean of 4 unit phasors
        # at spacing 2 pi (1/3 - 1/4)|^2
        spacing = 2 * np.pi * (1 / 3 - 1 / 4)
        expected = abs(np.mean(np.exp(1j * spacing * np.arange(4)))) ** 2
        assert np.isclose(ideal[1], expected, atol=1e-12)
        assert abs(result.relabeled_distribution[1] - expected) <= 1e-2

    def test_integrates_steps_once(self, paper_model, paper_pulses,
                                   propagated_steps):
        # run_qpe never reads the convergence estimate, so no rerun
        run_qpe(inverse(paper_model, paper_pulses, steps=600), 0.75, 2)
        assert propagated_steps[0] == 600

    def test_dimension_mismatch_rejected(self, paper_model, paper_pulses):
        with pytest.raises(ValueError):
            run_qpe(inverse(paper_model, paper_pulses), 0.5, 3)

    def test_sampled_mode_reproducible(self, paper_model, paper_pulses):
        s = inverse(paper_model, paper_pulses, steps=400)
        a = run_qpe(s, 0.75, 2, shots=500, seed=7)
        b = run_qpe(s, 0.75, 2, shots=500, seed=7)
        assert a.counts is not None
        assert a.counts.sum() == 500
        assert np.array_equal(a.counts, b.counts)

    def test_global_phase_invisible_in_probabilities(self, paper_model,
                                                     paper_pulses):
        # multiplying the final state by any phase leaves the distribution
        # untouched; the simulated run realizes this because probabilities
        # are computed from moduli only
        result = run_qpe(inverse(paper_model, paper_pulses, steps=800), 0.25, 2)
        rotated = np.exp(1j * 1.234) * result.final_state
        assert np.allclose(np.abs(rotated) ** 2, result.distribution, atol=1e-15)
