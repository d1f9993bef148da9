from fractions import Fraction

import numpy as np
import pytest

from circulant_qft.circulant import circulant_eigenvalues, materialize
from circulant_qft.models import (
    DegenerateSpectrumWarning,
    build_four_level,
    build_six_level,
    solve_level_shifts,
)


class TestFourLevel:
    def test_layout(self):
        v = 1 + 1j / 3
        h0, h1 = build_four_level(1.0, v)
        assert np.allclose(np.diag(h0), [-1, -1 / 3, 1 / 3, 1])
        assert h1[0, 1] == v
        assert h1[1, 0] == np.conj(v)

    def test_coupling_matrix_is_the_materialized_circulant(self):
        v = 0.7 - 2.1j
        _, h1 = build_four_level(3.0, v)
        assert np.array_equal(h1, materialize(np.array([0, np.conj(v), 0, v])))

    def test_spectrum(self):
        e = 4.0
        _, h1 = build_four_level(e, e * (1 + 1j / 3))
        lam = circulant_eigenvalues(h1[:, 0]).real
        assert np.allclose(lam, [2 * e, -2 * e / 3, -2 * e, 2 * e / 3], atol=1e-12)

    def test_real_coupling_warns_degenerate(self):
        # 2 Re(V i^n) vanishes for odd n when V is real
        with pytest.warns(DegenerateSpectrumWarning):
            build_four_level(1.0, 1.0)

    def test_zero_coupling_warns(self):
        with pytest.warns(DegenerateSpectrumWarning):
            build_four_level(1.0, 0.0)


class TestLevelShifts:
    def test_scaled_solution(self):
        assert solve_level_shifts(3.0) == (2.0, -2.0, 2.0)

    def test_zero_energy(self):
        assert solve_level_shifts(0.0) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("energy", [3.0, 1.0, 0.1, 7.25, 1e6, -2.0])
    def test_all_four_equations_exact(self, energy):
        # the exact rational solution satisfies the four level equations
        # -E_Z/2 + E_gS = -E, E_Z/2 + E_gS = -E/3, -E_Z/2 + E_eS = E/3 and
        # E_Z/2 + E_eS = E with zero residual, and the solver returns the
        # float nearest each of its values, bit for bit
        e = Fraction(energy)
        ez, gs, es = Fraction(2, 3) * e, Fraction(-2, 3) * e, Fraction(2, 3) * e
        half = Fraction(1, 2)
        assert (-half * ez + gs + e, half * ez + gs + e / 3,
                -half * ez + es - e / 3, half * ez + es - e) == (0, 0, 0, 0)
        shifts = solve_level_shifts(energy)
        assert [x.hex() for x in shifts] == [float(x).hex() for x in (ez, gs, es)]

    def test_first_equation_reproduced(self):
        energy = 0.37
        ez, gs, _ = solve_level_shifts(energy)
        assert abs(-0.5 * ez + gs + energy) <= 1e-15 * abs(energy)

    def test_paper_ratios(self):
        ez, gs, es = solve_level_shifts(1.0)
        assert ez == es == -gs
        assert abs(ez - 2 / 3) <= 1e-15


class TestSixLevel:
    def test_corner_and_adjacent_entries(self):
        o1 = 1.2 + 0.5j
        o2 = -0.3 + 2.2j
        h = build_six_level(o1, o2)
        assert h[0, 1] == -o1 / 2
        assert h[1, 0] == -np.conj(o1) / 2
        assert h[0, 5] == -o2 / 2
        assert h[5, 0] == -np.conj(o2) / 2

    def test_dipole_forbidden_zero_pattern(self):
        h = build_six_level(1.0 + 1j, 2.0 - 1j)
        assert h[0, 2] == 0 and h[1, 3] == 0 and h[2, 4] == 0

    def test_hermitian(self):
        h = build_six_level(0.4 - 1.1j, 2.0 + 0.2j)
        assert np.allclose(h, h.conj().T, atol=0)

    def test_only_ring_couplings(self):
        h = build_six_level(1.0 + 1j, 2.0)
        mask = np.zeros((6, 6), dtype=bool)
        for k in range(6):
            mask[k, (k + 1) % 6] = mask[(k + 1) % 6, k] = True
        assert np.all(h[~mask] == 0)
