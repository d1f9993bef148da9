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

import numpy as np

from .circulant import circulant_eigenvalues, materialize


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
    The caller passes E > 0.
    """
    e = float(energy)
    v = complex(coupling)
    column = np.array([0, np.conj(v), 0, v], dtype=np.complex128)
    lam = np.sort(circulant_eigenvalues(column).real)
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
    return h0, materialize(column)


def solve_level_shifts(energy):
    """Field shifts (E_Z, E_gS, E_eS) producing diag(-E, -E/3, E/3, E)
    level positions.

    Solves the linear system pinning the four sublevel energies via a
    common Zeeman splitting E_Z and per-level Stark shifts: the unique
    solution is E_Z = 2E/3, E_gS = -2E/3, E_eS = 2E/3.  For a float E
    with 2E finite, 2E is exact and the division by 3 is correctly
    rounded, so each shift is the float nearest its exact value.
    """
    two_thirds = 2 * energy / 3
    return two_thirds, -two_thirds, two_thirds


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
