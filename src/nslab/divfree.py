"""Divergence-free truncation of vector fields to an annulus.

A field is analysed in spherical polar coordinates about the annulus
center: the radial component is expanded in spherical harmonics per
radius, the tangential component is split into spheroidal (surface
gradient) and toroidal (surface-rotation) families.  The divergence-free
constraint ties the spheroidal coefficients to the radial derivative of
the radial ones, so cutting off the radial component with a smooth eta(r)
and regenerating the spheroidal part from the derivative formula yields a
field that agrees with the input on the inner annulus, vanishes on the
outer one, and stays exactly divergence-free in the continuum sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import sph_harm_y_all

from . import spectral as sp
from .bumps import smoothstep
from .spectral import VectorField

__all__ = [
    "AnnulusSpec",
    "SphericalField",
    "flux_check",
    "localize_divfree",
    "spectral_sampler",
    "to_torus_field",
]


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus R1 < R2 < R3 < R4 about a center, with a radial cutoff that
    is 1 on [R1, R2] and 0 on [R3, R4]."""

    R1: float
    R2: float
    R3: float
    R4: float
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (0.0 < self.R1 < self.R2 < self.R3 < self.R4):
            raise ValueError("annulus radii must satisfy 0 < R1 < R2 < R3 < R4")
        if len(self.center) != 3:
            raise ValueError("center must have three components")

    def eta(self, r):
        return smoothstep((self.R3 - np.asarray(r, dtype=float))
                          / (self.R3 - self.R2))


def _harmonics(l_max: int, theta, phi):
    """Y_lm(theta, phi) for every pair (l, m), l <= l_max, |m| <= l, in the
    order l = 0, 1, ..., m = -l, ..., l (rows), and the ladder term
    A_lm Y_{l-1,m} of each pair (zero where |m| > l - 1), from one sweep
    of sph_harm_y_all.

    The ladder identity sin(t) dY_lm/dt = l cos(t) Y_lm - A_lm Y_{l-1,m}
    gives the theta-derivative from the two."""
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(l_max + 1)])
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(l_max + 1)])
    width = 2 * l_max + 1
    table = sph_harm_y_all(l_max, l_max, theta, phi).reshape(
        (l_max + 1) * width, -1)
    Y = table[ls * width + ms % width]
    has_below = np.abs(ms) <= ls - 1
    ladder = np.zeros_like(Y)
    ladder[has_below] = table[((ls - 1) * width + ms % width)[has_below]]
    del table
    ladder *= np.sqrt((2.0 * ls + 1.0) / np.maximum(2.0 * ls - 1.0, 1.0)
                      * (ls * ls - ms * ms))[:, np.newaxis]
    return ls, ms, Y, ladder


# points per chunk of SphericalField.evaluate
_EVAL_CHUNK = 2048


@lru_cache(maxsize=8)
class _SphereBasis:
    """Spherical-harmonic analysis tables on a Gauss-Legendre (latitude)
    by uniform (longitude) grid."""

    def __init__(self, l_max: int, n_theta: int, n_phi: int):
        self.l_max = l_max
        x, w = np.polynomial.legendre.leggauss(n_theta)
        self.theta = np.arccos(x)
        self.w = w
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.n_phi = n_phi
        # theta parts: Y_lm(theta, 0) and the theta-derivative
        self.ls, self.ms, Y0, ladder = _harmonics(l_max, self.theta, 0.0)
        self.pairs = list(zip(self.ls.tolist(), self.ms.tolist()))
        sin_t = np.sin(self.theta)
        cos_t = np.cos(self.theta)
        dY0 = (self.ls[:, np.newaxis] * cos_t * Y0 - ladder) / sin_t
        # the conjugated tables the analyses integrate against, and the
        # longitude index of each pair's m
        self.Y0_conj = np.conj(Y0)
        self.dY0_conj = np.conj(dY0)
        self.mY0_conj = np.conj(1j * self.ms[:, np.newaxis] * Y0 / sin_t)
        self.m_idx = self.ms % n_phi

    def analyze(self, f):
        """Scalar samples (n_theta, n_phi) -> coefficients per (l, m)."""
        fm = np.fft.fft(f, axis=1) * (2.0 * np.pi / self.n_phi)
        integrand = self.Y0_conj * fm[:, self.m_idx].T
        return integrand @ self.w

    def analyze_tangent(self, u_theta, u_phi):
        """Split tangential samples into spheroidal/toroidal coefficients.

        Returns (B, C) with u_t = sum B_lm grad1 Y_lm + C_lm rhat x grad1 Y_lm.
        """
        ft = np.fft.fft(u_theta, axis=1) * (2.0 * np.pi / self.n_phi)
        fp = np.fft.fft(u_phi, axis=1) * (2.0 * np.pi / self.n_phi)
        ft_m = ft[:, self.m_idx].T
        fp_m = fp[:, self.m_idx].T
        dY = self.dY0_conj
        mY = self.mY0_conj
        ll = self.ls * (self.ls + 1.0)
        ll_safe = np.where(ll > 0, ll, 1.0)
        B = ((dY * ft_m + mY * fp_m) @ self.w) / ll_safe
        C = ((dY * fp_m - mY * ft_m) @ self.w) / ll_safe
        B[ll == 0] = 0.0
        C[ll == 0] = 0.0
        return B, C


def _cheb_nodes_matrix(n: int, a: float, b: float):
    """Chebyshev-Lobatto nodes on [a, b] (increasing) and the spectral
    differentiation matrix acting on samples at those nodes."""
    if n < 2:
        raise ValueError("need at least two radial nodes")
    N = n - 1
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    # x runs 1 -> -1 with node index, so r = a + (b-a)(1-x)/2 is already
    # increasing; only the chain-rule factor is needed
    r = a + (b - a) * (1.0 - x) / 2.0
    D_r = D * (-2.0 / (b - a))
    return r, D_r


def _barycentric_weights(n: int):
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _barycentric_interp(r_nodes, values, r_query):
    """Barycentric interpolation of profiles sampled at Chebyshev-Lobatto
    nodes; values has shape (n_nodes, ...)."""
    w = _barycentric_weights(len(r_nodes))
    r_query = np.asarray(r_query, dtype=float)
    out = np.zeros(r_query.shape + values.shape[1:], dtype=values.dtype)
    diff = r_query[..., np.newaxis] - r_nodes
    exact = np.isclose(diff, 0.0, atol=1e-14)
    safe = np.where(exact, 1.0, diff)
    terms = w / safe
    denom = np.sum(terms, axis=-1)
    num = terms @ values.reshape(len(r_nodes), -1)
    interp = (num / denom[..., np.newaxis]).reshape(out.shape)
    hit = np.any(exact, axis=-1)
    if np.any(hit):
        idx = np.argmax(exact, axis=-1)
        interp[hit] = values[idx[hit]]
    return interp


@dataclass
class SphericalField:
    """Vector field on an annulus in radial/spheroidal/toroidal form.

    a[i, :] are the spherical-harmonic coefficients of the radial
    component at radius r_nodes[i]; B and C are the spheroidal and
    toroidal tangential coefficients.  Fields evaluate to zero outside
    [r_nodes[0], r_nodes[-1]].
    """

    center: np.ndarray
    r_nodes: np.ndarray
    l_max: int
    a: np.ndarray
    B: np.ndarray
    C: np.ndarray
    basis: object = field(repr=False, default=None)

    def __post_init__(self):
        flux_coeff = np.max(np.abs(self.a[:, 0])) if self.a.size else 0.0
        scale = max(float(np.max(np.abs(self.a))) if self.a.size else 0.0, 1e-300)
        self.flux_fraction = float(flux_coeff / scale)

    def divergence_defect(self) -> float:
        """Native divergence size: the defect of the constraint tying the
        spheroidal coefficients to the radial derivative, relative to the
        coefficient scale."""
        _, D = _cheb_nodes_matrix(len(self.r_nodes), self.r_nodes[0],
                                  self.r_nodes[-1])
        ll = self.basis.ls * (self.basis.ls + 1.0)
        live = ll > 0
        expected = np.zeros_like(self.B)
        expected[:, live] = (D @ (self.r_nodes[:, np.newaxis] ** 2 * self.a)
                             )[:, live] / (ll[live] * self.r_nodes[:, np.newaxis])
        scale = max(float(np.max(np.abs(self.a))),
                    float(np.max(np.abs(self.B))), 1e-300)
        return float(np.max(np.abs(expected - self.B)) / scale)

    def tail_fraction(self) -> float:
        """Energy fraction carried by the top spherical-harmonic degree."""
        ls = self.basis.ls
        total = (np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.B) ** 2)
                 + np.sum(np.abs(self.C) ** 2))
        if total == 0.0:
            return 0.0
        top = ls == self.l_max
        tail = (np.sum(np.abs(self.a[:, top]) ** 2)
                + np.sum(np.abs(self.B[:, top]) ** 2)
                + np.sum(np.abs(self.C[:, top]) ** 2))
        return float(tail / total)

    def evaluate(self, points) -> np.ndarray:
        """Exact synthesis at arbitrary points (n, 3) -> (n, 3).

        The points inside the annulus are synthesised in chunks of
        _EVAL_CHUNK, which bounds the size of the per-pair tables."""
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        r = np.linalg.norm(pts, axis=1)
        out = np.zeros_like(pts)
        live = np.nonzero((r >= self.r_nodes[0] - 1e-14)
                          & (r <= self.r_nodes[-1] + 1e-14))[0]
        for start in range(0, len(live), _EVAL_CHUNK):
            sel = live[start:start + _EVAL_CHUNK]
            out[sel] = self._synthesize(pts[sel], r[sel])
        return out if np.asarray(points).ndim > 1 else out[0]

    def _synthesize(self, p, r):
        """The field at offsets p from the center, at distances r inside
        the annulus."""
        rl = np.clip(r, self.r_nodes[0], self.r_nodes[-1])
        theta = np.arccos(np.clip(p[:, 2] / rl, -1.0, 1.0))
        phi = np.arctan2(p[:, 1], p[:, 0])
        a_q = _barycentric_interp(self.r_nodes, self.a, rl)
        B_q = _barycentric_interp(self.r_nodes, self.B, rl)
        C_q = _barycentric_interp(self.r_nodes, self.C, rl)
        sin_t = np.sin(theta)
        cos_t = np.cos(theta)
        u_r = np.zeros(len(p), dtype=complex)
        u_t = np.zeros(len(p), dtype=complex)
        u_p = np.zeros(len(p), dtype=complex)
        ls, ms, Y, ladder = _harmonics(self.l_max, theta, phi)
        sin_safe = np.where(sin_t > 1e-12, sin_t, 1.0)
        dY = (ls[:, np.newaxis] * cos_t * Y - ladder) / sin_safe
        del ladder
        mY = 1j * ms[:, np.newaxis] * Y / sin_safe
        # summed pair by pair, in the basis order
        for i in range(len(ls)):
            u_r += a_q[:, i] * Y[i]
            u_t += B_q[:, i] * dY[i] - C_q[:, i] * mY[i]
            u_p += B_q[:, i] * mY[i] + C_q[:, i] * dY[i]
        rhat = np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])
        that = np.column_stack([cos_t * np.cos(phi), cos_t * np.sin(phi), -sin_t])
        phat = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
        vec = (np.real(u_r)[:, np.newaxis] * rhat
               + np.real(u_t)[:, np.newaxis] * that
               + np.real(u_p)[:, np.newaxis] * phat)
        return vec


def _sphere_points(center, r, basis):
    theta = basis.theta
    phi = basis.phi
    st = np.sin(theta)[:, np.newaxis]
    ct = np.cos(theta)[:, np.newaxis]
    cp = np.cos(phi)[np.newaxis, :]
    sps = np.sin(phi)[np.newaxis, :]
    x = np.stack([r * st * cp, r * st * sps,
                  r * ct * np.ones_like(cp)], axis=-1)
    return x + np.asarray(center, dtype=float)


def flux_check(u: Callable, r: float, center=(0.0, 0.0, 0.0),
               l_max: int = 32) -> float:
    """Surface integral of u . n over the sphere of radius r.

    u is a point evaluator (n, 3) -> (n, 3); quadrature is Gauss-Legendre
    in latitude, uniform in longitude, with the r^2 area factor.
    """
    if r <= 0:
        raise ValueError("flux radius must be positive")
    basis = _SphereBasis(l_max, l_max + 1, 2 * l_max + 2)
    pts = _sphere_points(center, r, basis)
    vals = u(pts.reshape(-1, 3)).reshape(pts.shape)
    normals = (pts - np.asarray(center, dtype=float)) / r
    u_n = np.sum(vals * normals, axis=-1)
    return float(
        r**2 * (2.0 * np.pi / basis.n_phi) * np.dot(basis.w, u_n.sum(axis=1))
    )


def localize_divfree(u: Callable, spec: AnnulusSpec, l_max: int = 32,
                     n_r: int = 288) -> SphericalField:
    """Truncate a divergence-free field to the annulus of spec.

    The output agrees with u on [R1, R2], vanishes on [R3, R4], and is
    divergence-free by construction: the radial component is eta(r) u_r,
    the spheroidal tangential coefficients are regenerated from the
    radial derivative identity, and the toroidal part (the per-radius
    divergence-free remainder v(r)) is cut off directly.  Rejects input
    whose flux or divergence defect exceeds 1e-8 of its largest sample,
    and output whose top degree carries more than 1e-6 of the energy.
    """
    basis = _SphereBasis(l_max, l_max + 1, 2 * l_max + 2)
    r_nodes, D = _cheb_nodes_matrix(n_r, spec.R1, spec.R4)
    n_pairs = len(basis.pairs)
    a = np.zeros((n_r, n_pairs), dtype=complex)
    B = np.zeros_like(a)
    C = np.zeros_like(a)
    theta = basis.theta
    phi = basis.phi
    st = np.sin(theta)[:, np.newaxis]
    ct = np.cos(theta)[:, np.newaxis]
    cp = np.cos(phi)[np.newaxis, :]
    sps = np.sin(phi)[np.newaxis, :]
    rhat = np.stack([st * cp, st * sps, ct * np.ones_like(cp)], axis=-1)
    that = np.stack([ct * cp, ct * sps, -st * np.ones_like(cp)], axis=-1)
    phat = np.stack([-sps * np.ones_like(ct), cp * np.ones_like(ct),
                     np.zeros_like(st * cp)], axis=-1)
    scale = 0.0
    for i, r in enumerate(r_nodes):
        pts = _sphere_points(spec.center, r, basis)
        vals = u(pts.reshape(-1, 3)).reshape(pts.shape)
        scale = max(scale, float(np.max(np.abs(vals))))
        a[i] = basis.analyze(np.sum(vals * rhat, axis=-1))
        B[i], C[i] = basis.analyze_tangent(
            np.sum(vals * that, axis=-1), np.sum(vals * phat, axis=-1)
        )

    # hypothesis checks: zero flux and the divergence constraint linking
    # the spheroidal coefficients to the radial profile derivative
    flux_size = float(np.max(np.abs(a[:, 0])) * np.sqrt(4.0 * np.pi)
                      * np.max(r_nodes) ** 2)
    if flux_size > 1e-8 * max(scale, 1e-300):
        raise ValueError(
            f"flux through spheres is {flux_size:.3e}, not divergence-free"
        )
    ll = basis.ls * (basis.ls + 1.0)
    dr_r2a = D @ (r_nodes[:, np.newaxis] ** 2 * a)
    expected_B = np.zeros_like(B)
    live = ll > 0
    expected_B[:, live] = dr_r2a[:, live] / (ll[live] * r_nodes[:, np.newaxis])
    div_size = float(np.max(np.abs(expected_B - B)))
    if div_size > 1e-8 * max(scale, 1e-300):
        raise ValueError(
            f"input field is not divergence-free on the annulus "
            f"(constraint defect {div_size:.3e})"
        )

    eta = spec.eta(r_nodes)[:, np.newaxis]
    a_new = eta * a
    B_new = np.zeros_like(B)
    dr_new = D @ (r_nodes[:, np.newaxis] ** 2 * a_new)
    B_new[:, live] = dr_new[:, live] / (ll[live] * r_nodes[:, np.newaxis])
    C_new = eta * C
    out = SphericalField(np.asarray(spec.center, dtype=float), r_nodes,
                         l_max, a_new, B_new, C_new, basis)
    tail = out.tail_fraction()
    if tail > 1e-6:
        raise ValueError(
            f"spherical-harmonic tail fraction {tail:.3e} exceeds "
            "1.0e-06; raise l_max"
        )
    return out


def spectral_sampler(u: VectorField) -> Callable:
    """Exact point evaluator that sums the Fourier series of u directly.

    Modes below 1e-14 of the largest coefficient are skipped, so the cost
    scales with the number of live modes.
    """
    grid = u.grid
    kx, ky, kz = grid.wavenumbers()
    mags = np.max(np.abs(u.coeffs), axis=0).ravel()
    live = mags > 1e-14 * max(float(np.max(mags)), 1e-300)
    kvec = np.stack(
        [kx.ravel()[live], ky.ravel()[live], kz.ravel()[live]], axis=1)
    # the real part of the Hermitian-weighted sum over the stored half is
    # the sum over all modes, since the term at -k conjugates the one at k
    cmat = (u.coeffs * grid.hermitian_weight()).reshape(3, -1)[:, live]

    def sample(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((len(pts), 3))
        for s in range(0, len(pts), 256):
            ph = np.exp((2.0j * np.pi / grid.L) * (pts[s:s + 256] @ kvec.T))
            out[s:s + 256] = np.real(ph @ cmat.T)
        return out

    return sample


def to_torus_field(sph: SphericalField, grid) -> VectorField:
    """Evaluate an annulus field at the torus nodes (zero outside its
    support) and return the corresponding periodic field."""
    nodes = np.stack(grid.nodes(), axis=-1).reshape(-1, 3)
    vals = sph.evaluate(nodes)
    samples = vals.T.reshape((3,) + grid.shape)
    return sp.vector_from_samples(grid, samples)
