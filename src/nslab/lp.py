"""Dyadic (Littlewood-Paley) frequency projections and Bernstein ratios.

Frequencies are measured as |k|/L on the integer lattice, so a dyadic band N
collects modes with |k|/L between roughly N/2 and 2N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import spectral as sp
from .bumps import lp_profile
from .spectral import SpectralGrid, VectorField

__all__ = [
    "LPBumpProfile",
    "DyadicBand",
    "lp_project",
    "bernstein_check",
    "dyadic_bands",
    "covering_bands",
]


@dataclass(frozen=True)
class LPBumpProfile:
    """Radial profile phi: 1 on [0,1], supported in [0,2], monotone.

    psi(r) = phi(r) - phi(2r) gives the band multiplier.
    """

    phi: Callable = field(default=lp_profile)

    def psi(self, r):
        return self.phi(r) - self.phi(2.0 * np.asarray(r, dtype=float))


@dataclass(frozen=True)
class DyadicBand:
    """A dyadic frequency 2^j, j integer (possibly negative)."""

    N: float

    def __post_init__(self):
        j = np.log2(self.N)
        if not np.isclose(j, np.round(j)):
            raise ValueError(f"{self.N} is not a power of two")

    @property
    def j(self) -> int:
        return int(np.round(np.log2(self.N)))


def _as_band(N) -> DyadicBand:
    return N if isinstance(N, DyadicBand) else DyadicBand(float(N))


def lp_project(f, N, kind: str = "at"):
    """Apply P_N ('at'), P_{<=N} ('at_most') or P_{>N} ('above')."""
    band = _as_band(N)
    grid = f.grid
    profile = LPBumpProfile()
    xi = np.sqrt(grid.k_squared()) / grid.L
    if kind == "at":
        mult = profile.psi(xi / band.N)
    elif kind == "at_most":
        mult = profile.phi(xi / band.N)
    elif kind == "above":
        mult = 1.0 - profile.phi(xi / band.N)
    else:
        raise ValueError(f"unknown projection kind {kind!r}")
    return sp.apply_multiplier(f, mult)


def dyadic_bands(grid: SpectralGrid):
    """The standard working range 2 <= N <= resolution/3 (dealias bound)."""
    out = []
    N = 2.0
    while N <= grid.N / 3.0:
        out.append(DyadicBand(N))
        N *= 2.0
    return out


def covering_bands(grid: SpectralGrid):
    """Dyadic range wide enough that mean + sum_N P_N reproduces any field."""
    xi_min = 1.0 / grid.L
    xi_max = np.sqrt(3.0) * (grid.N / 2.0) / grid.L
    j_lo = int(np.floor(np.log2(xi_min)))
    j_hi = int(np.ceil(np.log2(xi_max)))
    return [DyadicBand(2.0**j) for j in range(j_lo, j_hi + 1)]


def bernstein_check(f, N, p, q):
    """Measured Bernstein ratios for a field band-limited to the N-annulus.

    Returns a dict with the gradient ratio ||grad P_N f||_p / (N ||P_N f||_p)
    and the embedding ratio ||P_N f||_q / (N^{3/p-3/q} ||P_N f||_p); callers
    compare against frozen baselines.  A zero projection is flagged empty.
    """
    band = _as_band(N)
    pf = lp_project(f, band, "at")
    base = sp.lp_norm(pf, p)
    if base == 0.0 or not np.any(np.abs(pf.coeffs) > 0):
        return {"empty": True}
    if isinstance(pf, VectorField):
        # 9-component gradient magnitude sqrt(sum_ij |d_j u_i|^2) at nodes
        mags_sq = sum(
            sp.gradient(pf.component(i)).samples() ** 2 for i in range(3)
        )
        mags = np.sqrt(np.sum(mags_sq, axis=0))
        if p == np.inf:
            grad_norm = float(np.max(mags))
        else:
            grad_norm = float((np.sum(mags**p) * pf.grid.cell_volume) ** (1.0 / p))
    else:
        grad_norm = sp.lp_norm(sp.gradient(pf), p)
    ratio_grad = grad_norm / (band.N * base)
    qnorm = sp.lp_norm(pf, q)
    ratio_embed = qnorm / (band.N ** (3.0 / p - 3.0 / q) * base)
    return {
        "empty": False,
        "gradient_ratio": ratio_grad,
        "embedding_ratio": ratio_embed,
        "N": band.N,
        "p": p,
        "q": q,
    }
