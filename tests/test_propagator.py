import itertools
from dataclasses import replace

import numpy as np
import pytest

from circulant_qft import propagator
from circulant_qft.circulant import dft_matrix, materialize
from circulant_qft.errors import IntegrationError, PhysicsError
from circulant_qft.linalg import frobenius
from circulant_qft.models import build_four_level
from circulant_qft.propagator import (
    adiabatic_phase_prediction,
    dynamical_phase_prediction,
    evolve,
    factor_phased_dft,
    final_propagators,
    predict_permutation,
)
from circulant_qft.schedule import (
    FORWARD,
    INVERSE,
    Schedule,
    SechMaskedPair,
    TanhPair,
)


class ConstantPair:
    """Frozen coefficients; any object with values(t), an attribute T
    and window_halfwidth() is a pulse pair to the propagator."""

    def __init__(self, f, g, T=1.0):
        self.f = f
        self.g = g
        self.T = T

    def values(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.f), np.full_like(t, self.g)

    def window_halfwidth(self):
        return 6.0 * self.T


def wrap(angles):
    return np.angle(np.exp(1j * np.asarray(angles)))


def final_u(s):
    """evolve's last sample, U(t_max), without the convergence rerun."""
    _, samples, _, _ = evolve(s, convergence_check=False)
    return samples[-1]


class TestEvolve:
    def test_constant_hamiltonian_matches_exponential(self, paper_model):
        h0, h1 = paper_model
        window = (0.0, 2.3)
        s = Schedule(pulses=ConstantPair(1.0, 0.0), h0=h0, h1=h1,
                     window=window, steps=400)
        _, samples, _, _ = evolve(s)
        exact = np.diag(np.exp(-1j * np.diag(h0) * 2.3))
        assert frobenius(samples[-1] - exact) <= 1e-10

    def test_zero_hamiltonian_is_identity(self, paper_model):
        h0, h1 = paper_model
        s = Schedule(pulses=ConstantPair(0.0, 0.0), h0=h0, h1=h1, steps=100)
        _, samples, _, _ = evolve(s)
        assert np.allclose(samples[-1], np.eye(4), atol=1e-14)
        assert np.allclose(samples[0], np.eye(4), atol=0)

    def test_paper_run_has_flat_moduli(self, paper_schedule):
        _, samples, _, _ = evolve(paper_schedule, convergence_check=False)
        assert np.abs(np.abs(samples[-1]) - 0.5).max() <= 1e-2

    def test_unitarity_drift_small(self, paper_schedule):
        _, _, drift, _ = evolve(paper_schedule, convergence_check=False)
        assert drift <= 1e-8

    @staticmethod
    def halving_ratio(paper_model, paper_pulses):
        h0, h1 = paper_model
        estimates = []
        for steps in (1000, 2000):
            s = Schedule(pulses=paper_pulses, h0=h0, h1=h1, steps=steps)
            _, _, _, estimate = evolve(s)
            estimates.append(estimate)
        return estimates[0] / estimates[1]

    def test_convergence_is_fourth_order(self, paper_model, paper_pulses):
        # fourth order gives 16 per halving of the interval, second order 4
        assert self.halving_ratio(paper_model, paper_pulses) >= 12

    def test_reversed_exponent_order_is_second_order(
            self, monkeypatch, paper_model, paper_pulses):
        # applying gamma-first, beta-second is only second order, so the
        # order of the two exponentials of an interval is pinned
        monkeypatch.setattr(propagator, "WEIGHTS", propagator.WEIGHTS[::-1])
        assert self.halving_ratio(paper_model, paper_pulses) < 12

    def test_samples_cover_window(self, paper_schedule):
        times, samples, _, _ = evolve(paper_schedule, convergence_check=False)
        assert times[0] == paper_schedule.window[0]
        assert times[-1] == paper_schedule.window[1]
        # the last sample is U(t_max): final_propagators multiplies the
        # same steps, grouped differently, so they agree to roundoff
        # (1.6e-15 here, 3.4e-15 on an 8-level ring; a sample short of
        # t_max is off by far more)
        [u_final], _ = final_propagators(paper_schedule, [1.0])
        assert np.abs(samples[-1] - u_final).max() <= 1e-12


class TestFinalPropagators:
    # the other direction is this one's exponentials in reverse order, on
    # the mirrored window; a direct integration of the other direction
    # rounds the mirrored nodes separately, which moves U by ~1e-14
    @pytest.mark.parametrize("pulses", [TanhPair(T=1.0),
                                        SechMaskedPair(T=1.0, tau=1.5)],
                             ids=["tanh", "sech_masked"])
    @pytest.mark.parametrize("window", [None, (-5.0, 7.5)],
                             ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("direction", [FORWARD, INVERSE])
    def test_other_direction_matches_its_own_integration(
            self, pulses, window, direction):
        h0, h1 = build_four_level(1.0, 1 + 1j / 3)
        s = Schedule(pulses=pulses, h0=h0, h1=h1, direction=direction,
                     window=window, steps=1000)
        other = replace(s, direction=INVERSE if direction == FORWARD
                        else FORWARD)
        scales = [0.5, 8.0, 20.0, 40.0]
        u, u_other = final_propagators(s, scales)
        no_samples = np.empty(0, dtype=np.int64)
        want, want_other = (propagator._integrate(sched, 500, no_samples,
                                                  scales)[1]
                            for sched in (s, other))
        assert np.array_equal(u, want)
        assert np.abs(u_other - want_other).max() <= 1e-12


class TestFactorization:
    def test_plain_dft_is_identity_fit(self):
        sigma, alpha, residual = factor_phased_dft(dft_matrix(4), FORWARD)
        assert np.array_equal(sigma, np.arange(4))
        assert np.allclose(alpha, 0.0, atol=1e-12)
        assert residual <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_synthetic_forward_roundtrip(self, n):
        rng = np.random.default_rng(n)
        sigma = rng.permutation(n)
        alpha = rng.uniform(-np.pi, np.pi, n)
        f = dft_matrix(n)
        u = np.exp(1j * alpha)[None, :] * f[:, sigma]
        fit_sigma, fit_alpha, residual = factor_phased_dft(u, FORWARD)
        assert np.array_equal(fit_sigma, sigma)
        assert np.abs(wrap(fit_alpha - alpha)).max() <= 1e-12
        assert residual <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_synthetic_inverse_roundtrip(self, n):
        rng = np.random.default_rng(10 + n)
        sigma = rng.permutation(n)
        alpha = rng.uniform(-np.pi, np.pi, n)
        f = dft_matrix(n)
        u = np.zeros((n, n), dtype=complex)
        u[sigma, :] = np.exp(-1j * alpha)[:, None] * f.conj().T
        fit_sigma, fit_alpha, residual = factor_phased_dft(u, INVERSE)
        assert np.array_equal(fit_sigma, sigma)
        assert np.abs(wrap(fit_alpha - alpha)).max() <= 1e-12
        assert residual <= 1e-12

    def test_paper_renumbering(self, paper_schedule):
        _, samples, _, _ = evolve(paper_schedule, convergence_check=False)
        sigma, _, _ = factor_phased_dft(samples[-1], FORWARD)
        assert sigma.tolist() == [2, 1, 3, 0]

    @pytest.mark.parametrize("direction", [FORWARD, INVERSE])
    def test_renumbering_is_the_best_bijection_not_the_argmax(self,
                                                              direction):
        # three real rotations of the DFT basis give overlaps |m| whose
        # columns 0 and 1 both peak in row 0; the one bijection of largest
        # total sends column 0 to row 1 and column 1 to row 0, while taking
        # the largest entry first would fix both
        m = np.eye(4)
        for i, j, angle in [(0, 1, 0.7), (0, 2, 0.4), (1, 2, 0.6)]:
            c, s = np.cos(angle), np.sin(angle)
            g = np.eye(4)
            g[[i, i, j, j], [i, j, i, j]] = [c, -s, s, c]
            m = m @ g
        w = np.abs(m)
        assert w.argmax(axis=0).tolist() == [0, 0, 2, 3]
        totals = {p: w[list(p), range(4)].sum()
                  for p in itertools.permutations(range(4))}
        best, runner_up = sorted(totals, key=totals.get, reverse=True)[:2]
        assert best == (1, 0, 2, 3)
        assert totals[best] - totals[runner_up] > 0.09
        f = dft_matrix(4)
        # forward fits the overlaps F'U, inverse the images UF
        u = f @ m if direction == FORWARD else m @ np.conj(f).T
        sigma, _, _ = factor_phased_dft(u, direction)
        assert sigma.tolist() == [1, 0, 2, 3]

    @pytest.mark.parametrize("direction", [FORWARD, INVERSE])
    def test_identity_fits_with_residual_two(self, direction):
        # every overlap of I with a DFT column has modulus 1/2, so
        # ||e_n - exp(i a) F_m||^2 = 2 - 2 Re(exp(i a) F[n, m]) >= 1 for
        # every column of every phased-DFT fit, with equality when the
        # phase is aligned: the residual is at least 2 and the fit's is 2.
        # Every bijection ties, and the matching must still return one.
        sigma, _, residual = factor_phased_dft(np.eye(4), direction)
        assert sorted(sigma.tolist()) == [0, 1, 2, 3]
        assert abs(residual - 2.0) <= 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(IntegrationError):
            factor_phased_dft(1.5 * dft_matrix(4), FORWARD)


def assert_fits_agree(s, scales):
    """The fitted sigma of U(t_max) at each scale is predict_permutation(s)
    forward and its argsort in the other direction."""
    sigma = predict_permutation(s)
    forward, other = final_propagators(s, scales)
    for u, u_other in zip(forward, other):
        assert factor_phased_dft(u, FORWARD)[0].tolist() == sigma.tolist()
        assert factor_phased_dft(u_other, INVERSE)[0].tolist() == \
            np.argsort(sigma).tolist()


class TestPredictPermutation:
    def test_paper_model(self, paper_model):
        h0, h1 = paper_model
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1)
        assert predict_permutation(s).tolist() == [2, 1, 3, 0]

    def test_identity_when_spectrum_ascending_in_index(self):
        # first column chosen so lambda_n = (-2.5, -1, 1, 2.5), ascending
        c1 = -1.25 - 0.875j
        h1 = np.array(
            [[0, np.conj(c1), -0.75, c1],
             [c1, 0, np.conj(c1), -0.75],
             [-0.75, c1, 0, np.conj(c1)],
             [np.conj(c1), -0.75, c1, 0]]
        )
        h0 = np.diag(np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1)
        assert predict_permutation(s).tolist() == [0, 1, 2, 3]

    # the best-fit renumbering is the predicted one forward, and its
    # inverse in the other direction, on every adiabatic sweep below
    @pytest.mark.parametrize("pulses", [TanhPair(T=1.0),
                                        SechMaskedPair(T=1.0, tau=1.0)],
                             ids=["tanh", "sech_masked"])
    def test_fit_agrees_on_the_paper_model(self, pulses):
        h0, h1 = build_four_level(1.0, 1 + 1j / 3)
        s = Schedule(pulses=pulses, h0=h0, h1=h1)
        assert_fits_agree(s, [8.0, 20.0, 40.0])

    def test_fit_agrees_on_an_eight_level_ring(self):
        # the ring8_qpe benchmark's base model, E = 1, run at E*T = 40
        h0 = np.diag([-0.153, -0.345, -0.593, -1.0, 0.763, 1.0, 0.153, 0.548])
        spectrum = 2.0 * np.array([-0.675, -0.47, -0.096, 0.687, 0.807,
                                   -1.0, 0.361, 1.0])
        c = np.fft.ifft(spectrum)
        c = (c + np.conj(np.roll(c[::-1], 1))) / 2  # c[-l] = conj(c[l])
        s = Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0),
                     h0=h0.astype(complex), h1=materialize(c))
        assert_fits_agree(s, [40.0])

    def test_degenerate_diagonal_rejected(self, paper_model):
        _, h1 = paper_model
        h0 = np.diag(np.array([1.0, 1.0, 2.0, 3.0], dtype=complex))
        with pytest.raises(PhysicsError, match="pairwise distinct"):
            predict_permutation(Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1))

    def test_degenerate_circulant_rejected_by_every_rank_match(self):
        # a real V makes two circulant eigenvalues coincide; the phase
        # prediction matches end states by the same rule, so it fails too
        h0, h1 = build_four_level(10.0, 10.0)
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1)
        with pytest.raises(PhysicsError, match="H1 spectrum"):
            predict_permutation(s)
        with pytest.raises(PhysicsError, match="H1 spectrum"):
            adiabatic_phase_prediction(s)


class TestDynamicalPhases:
    def test_uncoupled_tanh_closed_form(self, paper_model):
        # with H1 = 0 each branch integrates -E_j * int f dt, and
        # int f dt = [t - T ln cosh(t/T)] / 2 in closed form
        h0, _ = paper_model
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=np.zeros_like(h0))
        t0, t1 = s.window
        antideriv = lambda t: 0.5 * (t - np.log(np.cosh(t)))
        integral = antideriv(t1) - antideriv(t0)
        expected = wrap(-np.diag(h0).real * integral)
        assert np.abs(wrap(dynamical_phase_prediction(s) - expected)).max() <= 1e-9
        # the propagator stays diagonal, so its phases are a third route
        _, samples, _, _ = evolve(s, convergence_check=False)
        measured = np.angle(np.diag(samples[-1]))
        assert np.abs(wrap(measured - expected)).max() <= 1e-6

    def test_zero_hamiltonian_gives_zero_phases(self, paper_model):
        h0, h1 = paper_model
        s = Schedule(pulses=ConstantPair(0.0, 0.0), h0=h0, h1=h1, steps=50)
        assert np.allclose(dynamical_phase_prediction(s), 0.0, atol=1e-14)

    @staticmethod
    def check_alpha_is_dynamical_plus_geometric(pulses, direction):
        energy = 40.0
        h0, h1 = build_four_level(energy, energy * (1 + 1j / 3))
        s = Schedule(pulses=pulses, h0=h0, h1=h1, direction=direction)
        _, alpha, _ = factor_phased_dft(final_u(s), direction)
        phases = adiabatic_phase_prediction(s)
        dyn = dynamical_phase_prediction(s)
        geo = phases.geometric
        assert np.array_equal(phases.dynamical, dyn)
        assert np.abs(wrap(alpha - dyn - geo)).max() <= 0.02
        # and the geometric part really is there (largest branch ~2.04 rad)
        assert np.abs(geo).max() > 2.0

    def test_measured_alpha_is_dynamical_plus_geometric(self, paper_pulses):
        # the quasienergy integral alone misses the open-path geometric
        # phase, which for this model reaches ~2 rad and does not shrink
        # with E*T (the projector path is E-independent); the verified
        # statement is measured = dynamical + transport correction
        self.check_alpha_is_dynamical_plus_geometric(paper_pulses, FORWARD)

    def test_inverse_alpha_is_dynamical_plus_geometric(self, paper_pulses):
        # the inverse factorization reports alpha in the exp(-i alpha)
        # form, so both parts of the prediction change sign there
        self.check_alpha_is_dynamical_plus_geometric(paper_pulses, INVERSE)

    def test_branch_tracking_failure_carries_time(self):
        h0 = np.diag(np.array([-1.0, -1.0 + 1e-12, 1 / 3, 1.0], dtype=complex))
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=np.zeros_like(h0))
        # the first phase-grid point, where the branches already collide
        with pytest.raises(PhysicsError, match=r"branches collide at t = -6 "):
            dynamical_phase_prediction(s)


class TestPhaseGrid:
    @pytest.mark.parametrize("steps",
                             [1, 2, 3, 7, 8, 9, 31, 32, 33, 4000, 4001])
    def test_uniform_odd_and_spans_window(self, paper_model, steps,
                                          monkeypatch):
        h0, h1 = paper_model
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1, steps=steps,
                     window=(-6.0, 5.0))
        t = propagator._phase_grid(s)
        assert len(t) == 4 * -(-steps // 32) + 1
        # every fourth point is a grid of its own for the second level
        assert len(t) >= 5 and (len(t) - 1) % 4 == 0
        assert t[0] == -6.0 and t[-1] == 5.0
        assert np.allclose(np.diff(t), 11.0 / (len(t) - 1), rtol=1e-12,
                           atol=0.0)
        # the prediction decomposes exactly this grid
        points = []
        original = propagator._kernels.eigh_grid

        def counting(h0, h1, a, b):
            points.append(len(a))
            return original(h0, h1, a, b)

        monkeypatch.setattr(propagator._kernels, "eigh_grid", counting)
        adiabatic_phase_prediction(s)
        assert points == [len(t)]


class TestPredictionOrder:
    """The prediction converges at sixth order in the grid spacing."""

    @staticmethod
    def moves(model, direction, steps, window=None):
        """Largest wrapped change of the dynamical and the geometric part
        between each pair of consecutive step counts."""
        h0, h1 = model
        parts = [adiabatic_phase_prediction(Schedule(
            pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0, h1=h1,
            direction=direction, steps=n, window=window)) for n in steps]
        return [(np.abs(wrap(b.dynamical - a.dynamical)).max(),
                 np.abs(wrap(b.geometric - a.geometric)).max())
                for a, b in zip(parts, parts[1:])]

    @pytest.mark.parametrize("direction", [FORWARD, INVERSE])
    def test_moves_shrink_sixtyfourfold_per_doubling(self, paper_model,
                                                     direction):
        # fourth order would shrink them 16x; sixth order 64x.  The leading
        # error terms are odd derivatives at the window ends, which the
        # default +-6 T window flattens until the moves near roundoff
        # (~1e-13 for the dynamical part by 4000 steps); cut at +-2 T, the
        # moves are 1e-10 to 1e-8 rad on grids of 65, 129 and 253 points
        coarse, fine = self.moves(paper_model, direction, (500, 1000, 2000),
                                  window=(-2.0, 2.0))
        for part, before, after in zip(("dynamical", "geometric"),
                                       coarse, fine):
            assert before >= 40.0 * after, (part, before, after)

    def test_default_steps_are_converged(self, paper_model):
        # doubling the default 4000 steps moves each part by at most
        # ~7e-11 rad; a second-order rule moves the geometric part ~1e-6
        [moved] = self.moves(paper_model, FORWARD, (4000, 8000))
        assert max(moved) <= 1e-7, moved


class TestAdiabaticLimit:
    def test_residual_monotone_in_et(self, paper_pulses):
        residuals = []
        for et in (5.0, 10.0, 20.0, 40.0):
            h0, h1 = build_four_level(et, et * (1 + 1j / 3))
            s = Schedule(pulses=paper_pulses, h0=h0, h1=h1)
            _, _, residual = factor_phased_dft(final_u(s), FORWARD)
            residuals.append(residual)
        for worse, better in zip(residuals, residuals[1:]):
            assert better <= 1.1 * worse

    def test_wide_mask_keeps_its_law_on_the_default_window(self):
        # the residual of a sech mask of width tau falls as (E*T)^(-2 tau/T);
        # at tau = 2 T and E*T = 80 that reaches ~3e-9, while a window cut
        # at +-6 T, where the mask is still sech(3) ~ 0.10, stalls at ~2e-5
        h0, h1 = build_four_level(80.0, 80.0 * (1 + 1j / 3))
        s = Schedule(pulses=SechMaskedPair(T=1.0, tau=2.0), h0=h0, h1=h1,
                     steps=16000)
        _, _, residual = factor_phased_dft(final_u(s), FORWARD)
        assert residual <= 1e-6

    def test_round_trip_composes_to_diagonal_phases(self, paper_model,
                                                    paper_pulses):
        # inverse-after-forward leaves only diagonal phases plus physical
        # nonadiabatic leakage; at E*T = 10 the leakage sits at ~2e-2
        # (the same scale as the factorization residual), dropping to the
        # 1e-2 level by E*T = 20
        h0, h1 = paper_model
        u_f = final_u(Schedule(pulses=paper_pulses, h0=h0, h1=h1,
                               direction=FORWARD))
        u_i = final_u(Schedule(pulses=paper_pulses, h0=h0, h1=h1,
                               direction=INVERSE))
        prod = u_i @ u_f
        off = prod - np.diag(np.diag(prod))
        assert np.abs(off).max() <= 0.03
        assert np.abs(np.abs(np.diag(prod)) - 1).max() <= 1e-2

        energy = 20.0
        h0b, h1b = build_four_level(energy, energy * (1 + 1j / 3))
        u_f = final_u(Schedule(pulses=paper_pulses, h0=h0b, h1=h1b,
                               direction=FORWARD))
        u_i = final_u(Schedule(pulses=paper_pulses, h0=h0b, h1=h1b,
                               direction=INVERSE))
        prod = u_i @ u_f
        assert np.abs(np.abs(prod) - np.eye(4)).max() <= 1e-2

    def test_mirrored_runs_share_dynamical_phases(self):
        # tanh schedules mirror exactly, so the quasienergy integrals of a
        # forward run and its inverse cancel in alpha_inv[sigma(j)] +
        # alpha_fwd[j], leaving twice the geometric phase; that combination
        # is also E*T independent
        def mirror_sum(et):
            h0, h1 = build_four_level(et, et * (1 + 1j / 3))
            fwd = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1,
                           direction=FORWARD)
            inv = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1,
                           direction=INVERSE)
            sigma, alpha_fwd, _ = factor_phased_dft(final_u(fwd), FORWARD)
            _, alpha_inv, _ = factor_phased_dft(final_u(inv), INVERSE)
            return wrap(alpha_inv[sigma] + alpha_fwd), sigma, fwd

        sum20, sigma, sched = mirror_sum(20.0)
        sum40, _, _ = mirror_sum(40.0)
        assert np.abs(wrap(sum20 - sum40)).max() <= 0.02
        assert sigma.tolist() == predict_permutation(sched).tolist()
        geo = adiabatic_phase_prediction(sched).geometric
        assert np.abs(wrap(sum40 - 2 * geo)).max() <= 0.02
