"""Adiabatic synthesis of phased quantum Fourier transforms.

Circulant Hamiltonians are diagonalized by the DFT whatever their
entries, so sweeping slowly from a non-degenerate diagonal Hamiltonian
into a circulant one performs a Fourier transform in a single
interaction step, up to per-state phases and a basis renumbering.  This
package simulates that protocol, verifies the resulting transform
against its analytic structure, and runs phase estimation on top of it.
"""

__version__ = "0.1.0"
