"""Concrete Hamiltonian builders for the supported atomic level schemes.

Three systems are covered: the four-level ladder with ring coupling
(diagonal H0 = diag(-E, -E/3, E/3, E) plus the Hermitian circulant H1
with first column (0, V*, 0, V)), the Zeeman/Stark level-shift solver
that realizes that H0 in a J=1/2 <-> J=1/2 manifold, and the six-level
J=1 <-> J=1 ring whose circulant symmetry appears after a gauge
transformation (see circulant.phase_equivalent_circulant).

Basis orderings are frozen as documented on each builder; reorderings
are the caller's business.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circulant import CirculantSpec, circulant_eigenvalues, materialize


class DegenerateSpectrumWarning(UserWarning):
    """The built coupling matrix has (near-)degenerate eigenvalues."""


def build_four_level(energy, coupling):
    """(H0, H1) for the four-level ring system.

    Energy scale E and complex ring coupling V; the interaction energy
    relates to a Rabi frequency via V = hbar*Omega/2 (hbar = 1 throughout,
    energies in units of 1/T).  Basis order is frozen as the ascending
    levels of H0 = diag(-E, -E/3, E/3, E); H1 is circulant with first
    column (0, V*, 0, V), so its spectrum is 2*Re(V * i**n).  Warns when
    that spectrum is degenerate (V = 0, or V real/imaginary collapsing a
    pair), since degenerate eigenvalues break the adiabatic protocol.
    """
    if not energy > 0:
        raise ValueError(f"energy scale must be positive, got {energy}")
    e = float(energy)
    v = complex(coupling)
    spec = CirculantSpec(np.array([0, np.conj(v), 0, v], dtype=np.complex128))
    lam = np.sort(circulant_eigenvalues(spec).real)
    gaps = np.diff(lam)
    scale = max(abs(v), np.finfo(float).tiny)
    if gaps.size == 0 or gaps.min() < 1e-9 * scale or v == 0:
        warnings.warn(
            "four-level coupling spectrum is degenerate "
            f"(V = {coupling}); adiabatic rank tracking will fail",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    h0 = np.diag(np.array([-e, -e / 3, e / 3, e], dtype=np.complex128))
    return h0, materialize(spec)


@dataclass(frozen=True)
class ShiftSolution:
    """Zeeman splitting and Stark shifts realizing the four-level H0.

    Fields are exact rationals so the defining equations are satisfied
    with zero residual whenever the input energy is representable
    (every int and float is); use as_floats() for numerics.
    """

    e_zeeman: Fraction
    e_ground_stark: Fraction
    e_excited_stark: Fraction
    energy: Fraction

    def as_floats(self):
        return (
            float(self.e_zeeman),
            float(self.e_ground_stark),
            float(self.e_excited_stark),
        )

    def equation_residuals(self):
        """Residuals of the four level-position constraints, in order:

        -E_Z/2 + E_gS - (-E),   +E_Z/2 + E_gS - (-E/3),
        -E_Z/2 + E_eS - (+E/3), +E_Z/2 + E_eS - (+E).
        """
        ez, gs, es, e = (
            self.e_zeeman,
            self.e_ground_stark,
            self.e_excited_stark,
            self.energy,
        )
        half = Fraction(1, 2)
        residuals = (
            -half * ez + gs - (-e),
            half * ez + gs - (-e * Fraction(1, 3)),
            -half * ez + es - e * Fraction(1, 3),
            half * ez + es - e,
        )
        return tuple(float(r) for r in residuals)


def solve_level_shifts(energy):
    """Field shifts producing diag(-E, -E/3, E/3, E) level positions.

    Solves the linear system pinning the four sublevel energies via a
    common Zeeman splitting E_Z and per-level Stark shifts: the unique
    solution is E_Z = 2E/3, E_gS = -2E/3, E_eS = 2E/3.
    """
    if not np.isfinite(float(energy)):
        raise ValueError(f"energy must be finite, got {energy}")
    try:
        e = Fraction(energy)
    except (TypeError, ValueError):
        e = Fraction(float(energy))
    two_thirds = Fraction(2, 3)
    return ShiftSolution(
        e_zeeman=two_thirds * e,
        e_ground_stark=-two_thirds * e,
        e_excited_stark=two_thirds * e,
        energy=e,
    )


def build_six_level(omega1, omega2):
    """Six-level J=1 <-> J=1 ring Hamiltonian with complex Rabi frequencies.

    omega1 couples sublevels of different m, omega2 sublevels of equal m
    (Clebsch-Gordan factors absorbed into both).  Matrix entries carry
    the hbar/2 prefactor with hbar = 1.  Basis order is frozen as
    |m'=-1>, |m''=0>, |m'=1>, |m''=1>, |m'=0>, |m''=-1>.  The m'=0 <->
    m''=0 gap in the linkage (a dipole-forbidden transition) is what
    closes the ring.
    """
    o1 = complex(omega1)
    o2 = complex(omega2)
    c1 = np.conj(o1)
    c2 = np.conj(o2)
    h = np.array(
        [
            [0, -o1, 0, 0, 0, -o2],
            [-c1, 0, c1, 0, 0, 0],
            [0, o1, 0, o2, 0, 0],
            [0, 0, c2, 0, -c1, 0],
            [0, 0, 0, -o1, 0, o1],
            [-c2, 0, 0, 0, c1, 0],
        ],
        dtype=np.complex128,
    )
    return 0.5 * h
