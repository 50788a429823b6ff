"""Problem data, trajectories, and the norms/functionals built on them.

Sobolev norms use the Fourier definition on the integer wavenumber lattice,
with weights (1 + |k|^2)^s, scaled so that s = 0 matches the quadrature L^2
norm.  The X^1 distance between trajectories uses the trapezoid rule on
their own sample times; the cumulative trapezoid and Simpson integrals over
those times live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import spectral as sp
from .spectral import SpectralGrid, VectorField

__all__ = [
    "DataTriple",
    "Trajectory",
    "DiagnosticsTable",
    "sobolev_norm",
    "xs_distance",
    "energy",
    "h1_data_norm",
    "cumulative_trapezoid",
    "cumulative_simpson",
]

DIV_TOL = 1e-12


@dataclass(frozen=True)
class DataTriple:
    """Problem data (u0, f, T, L): divergence-free initial velocity, a
    time-sampled forcing on a uniform grid over [0, T] (empty = homogeneous),
    and the horizon T."""

    u0: VectorField
    f: Sequence[VectorField]
    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        div = sp.l2_norm(sp.divergence(self.u0))
        scale = sp.l2_norm(self.u0)
        if scale > 0 and div > DIV_TOL * max(scale, 1.0) * self.u0.grid.N:
            raise ValueError("u0 is not divergence-free to tolerance")
        for fk in self.f:
            if fk.grid != self.u0.grid:
                raise ValueError("forcing samples must share u0's grid")

    @property
    def grid(self) -> SpectralGrid:
        return self.u0.grid

    @property
    def L(self) -> float:
        return self.u0.grid.L

    def f_times(self):
        return np.linspace(0.0, self.T, len(self.f))

    def f_integral(self, norm) -> float:
        """The integral over [0, T] of norm(f(t)): the trapezoid rule over
        the sample times, and T norm(f[0]) for one sample, which f_at
        applies over all of [0, T]."""
        if len(self.f) == 1:
            return float(self.T * norm(self.f[0]))
        prof = np.array([norm(fk) for fk in self.f])
        return float(np.trapezoid(prof, self.f_times()))

    def f_at(self, t: float) -> VectorField:
        """Forcing at time t by linear interpolation of the samples."""
        n = len(self.f)
        if n == 0:
            return sp.zero_vector(self.grid)
        if n == 1:
            return self.f[0]
        s = np.clip(t / self.T * (n - 1), 0.0, n - 1)
        i = min(int(np.floor(s)), n - 2)
        w = s - i
        coeffs = (1.0 - w) * self.f[i].coeffs + w * self.f[i + 1].coeffs
        return VectorField(self.grid, coeffs)


@dataclass
class DiagnosticsTable:
    """Scalar diagnostics, one row per stored state of a trajectory.

    Every column is a sum over the stored coefficients, so a row costs no
    transform; the oversampled sup norm is left to the readers that need
    it (total_speed, enstrophy_localisation, the solve experiment's CSV).
    """

    t: np.ndarray
    energy: np.ndarray       # (1/2) ||u||_L2^2
    grad_sq: np.ndarray      # ||grad u||_L2^2
    lap_sq: np.ndarray       # ||Delta u||_L2^2 (hyperdissipation budget)
    enstrophy: np.ndarray    # (1/2) ||curl u||_L2^2
    f_inner: np.ndarray      # <u, f>_L2

    def to_csv(self, path, sup, residual=None):
        """Write t, energy, enstrophy, the given sup-norm profile and, when
        given, the residual (NaN where it has no value)."""
        cols = [self.t, self.energy, self.enstrophy, sup]
        header = "t,energy,enstrophy,sup_norm"
        if residual is not None:
            res = np.full_like(self.t, np.nan)
            res[: len(residual)] = residual
            cols.append(res)
            header += ",residual"
        np.savetxt(path, np.column_stack(cols), delimiter=",",
                   header=header, comments="")


@dataclass
class Trajectory:
    """Stored velocity samples of a held solve: a Picard fixed point, or
    the march's states held by solver.evolve.

    ``times`` are the stored sample times (strictly increasing, starting at
    the initial time), one per velocity in ``velocities``.  A trajectory
    holds no pressure and no diagnostic row: the readers that need them
    make them from a stream of states as it passes (solver.pressured,
    solver.recording_rows).  ``meta`` holds the step dt, and for a Picard
    fixed point its iteration count and contraction factor.
    """

    times: np.ndarray
    velocities: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.velocities):
            raise ValueError("times/velocities length mismatch")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def pressures(self) -> list:
        """Always empty: no trajectory holds pressures."""
        return []

    @property
    def diagnostics(self) -> None:
        """Always None: no trajectory holds diagnostic rows."""
        return None

    def __len__(self):
        return len(self.times)


def sobolev_norm(f, s: float) -> float:
    """H^s norm with the lattice weights (1 + |k|^2)^s."""
    grid = f.grid
    coeffs = f.coeffs if isinstance(f, VectorField) else f.coeffs[np.newaxis]
    weight = (1.0 + grid.k_squared()) ** s
    weight *= grid.hermitian_weight()
    total = np.sum(weight[np.newaxis] * np.abs(coeffs) ** 2)
    return float(np.sqrt(grid.L**3 * total))


def xs_distance(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """X^1 distance between two trajectories on the same time grid: the
    L^inf_t H^1 plus the L^2_t H^2 norm (trapezoid rule) of their
    difference."""
    if len(traj_a) != len(traj_b):
        raise ValueError("trajectories must share a time grid")
    h1, h2 = [], []
    for ua, ub in zip(traj_a.velocities, traj_b.velocities):
        d = VectorField(ua.grid, ua.coeffs - ub.coeffs)
        h1.append(sobolev_norm(d, 1.0))
        h2.append(sobolev_norm(d, 2.0))
    return (float(np.max(h1))
            + float(np.trapezoid(np.array(h2) ** 2, traj_a.times) ** (1.0 / 2)))


def energy(data: DataTriple) -> float:
    """Total energy E(u0, f, T) = (1/2)(||u0||_L2 + ||f||_{L1_t L2_x})^2."""
    return 0.5 * (sp.l2_norm(data.u0) + data.f_integral(sp.l2_norm)) ** 2


def h1_data_norm(data: DataTriple) -> float:
    """H^1 size of the data: ||u0||_H1 plus the L^1_t H^1 norm of the
    forcing."""
    return sobolev_norm(data.u0, 1.0) + data.f_integral(
        lambda fk: sobolev_norm(fk, 1.0))


def _widths(t, ndim):
    """The intervals of the sample times t, shaped to broadcast along axis 0
    of an ndim-dimensional profile."""
    d = np.diff(np.asarray(t, dtype=float))
    return d.reshape((-1,) + (1,) * (ndim - 1))


def cumulative_trapezoid(y, t) -> np.ndarray:
    """Cumulative trapezoid integrals of y over the sample times t, along
    axis 0 and starting from 0; the arithmetic of scipy.integrate's
    cumulative_trapezoid(y, t, axis=0, initial=0)."""
    y = np.asarray(y, dtype=float)
    d = _widths(t, y.ndim)
    res = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate((np.zeros((1,) + y.shape[1:]), res))


def _simpson_first_halves(y, h):
    """Simpson integrals over the first interval of each pair of adjacent
    intervals of widths h[:-1], h[1:]; reversed inputs give the second."""
    x21 = h[:-1]
    x32 = h[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def cumulative_simpson(y, t) -> np.ndarray:
    """Cumulative Simpson integrals of y over the sample times t, along
    axis 0 and starting from 0, with the unequal-interval formula on each
    interval; the arithmetic of scipy.integrate's
    cumulative_simpson(y, x=t, axis=0, initial=0).  Below three samples it
    is the trapezoid rule."""
    y = np.asarray(y, dtype=float)
    if len(y) < 3:
        return cumulative_trapezoid(y, t)
    h = _widths(t, y.ndim)
    first = _simpson_first_halves(y, h)
    second = _simpson_first_halves(y[::-1], h[::-1])[::-1]
    sub = np.empty((len(y) - 1,) + y.shape[1:])
    sub[:-1:2] = first[::2]
    sub[1::2] = second[::2]
    # only the second-half formula reaches the last interval
    sub[-1] = second[-1]
    res = np.cumsum(sub, axis=0)
    return np.concatenate((np.zeros((1,) + y.shape[1:]), res))
