"""Shared grids, field builders, and a small cached solver run."""

import numpy as np
import pytest

from nslab import spectral as sp
from nslab.solver import SolverConfig, evolve, with_diagnostics, with_pressures
from nslab.spaces import DataTriple


def random_vector(grid, seed=0, kmax=None, slope=-2.0):
    """Seeded smooth random vector field (not divergence-free)."""
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.shape
    coeffs = sp.hermitian_half(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    kk = np.sqrt(grid.k_squared())
    kmax = grid.N / 3.0 if kmax is None else kmax
    weight = np.where((kk > 0) & (kk <= kmax), np.maximum(kk, 1.0) ** slope, 0.0)
    return sp.vector_from_coeffs(grid, coeffs * weight)


def random_divfree(grid, seed=0, kmax=None, slope=-2.0, amplitude=1.0):
    """Seeded mean-zero divergence-free field, normalised in L2."""
    u = sp.leray_project(random_vector(grid, seed, kmax, slope))
    c = u.coeffs.copy()
    c[:, 0, 0, 0] = 0.0
    nrm = sp.l2_norm(sp.vector_from_coeffs(grid, c))
    return sp.vector_from_coeffs(grid, c * (amplitude / nrm))


def random_scalar(grid, seed=0, kmax=None, slope=-2.0):
    rng = np.random.default_rng(seed)
    coeffs = sp.hermitian_half(
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    kk = np.sqrt(grid.k_squared())
    kmax = grid.N / 3.0 if kmax is None else kmax
    weight = np.where(kk <= kmax, (1.0 + kk) ** slope, 0.0)
    return sp.scalar_from_coeffs(grid, coeffs * weight)


def states(traj):
    """The (t, u) of each stored state of traj, as the reductions read
    them."""
    return zip(traj.times, traj.velocities)


@pytest.fixture(scope="session")
def grid8():
    return sp.make_grid(1.0, 8)


@pytest.fixture(scope="session")
def grid16():
    return sp.make_grid(1.0, 16)


@pytest.fixture(scope="session")
def grid32():
    return sp.make_grid(1.0, 32)


@pytest.fixture(scope="session")
def short_run(grid16):
    """One small trajectory, with its pressures and diagnostics, reused by
    the diagnostics-oriented tests."""
    data = DataTriple(random_divfree(grid16, seed=7, kmax=3), [], 0.02)
    cfg = SolverConfig(dt=5e-4)
    return data, cfg, with_diagnostics(with_pressures(evolve(data, cfg), data),
                                       data)
