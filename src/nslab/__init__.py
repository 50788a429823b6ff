"""Pseudospectral periodic Navier-Stokes laboratory.

Operator calculus on the torus, a mild-solution solver with Picard
iteration, the symmetry group of the equations, localisation estimate
harnesses, divergence-free truncation, and the oscillatory-data growth
study, plus a batch experiment runner.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    bumps,
    divfree,
    estimates,
    packet,
    solver,
    spaces,
    spectral,
    symmetry,
)
