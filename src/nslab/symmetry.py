"""Symmetry group of the periodic Navier-Stokes system.

Each transform acts on problem data (apply) and on the states of a stream
(state_map), one state at a time.  Spatial shifts by arbitrary (non-grid)
offsets are Fourier phase factors, exact for band-limited fields.  The
Galilean family tracks the non-periodic pressure part x . a(t) as the
linear pressure vector a of each state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .spaces import DataTriple, cumulative_trapezoid
from .spectral import ScalarField, VectorField

__all__ = [
    "SpaceTranslate",
    "TimeTranslate",
    "Scale",
    "PressureShift",
    "Galilean",
    "Forcing",
    "apply",
    "state_map",
    "weak_pairing_decay",
    "DecayTable",
]


@dataclass(frozen=True)
class SpaceTranslate:
    x0: tuple

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(c) for c in self.x0))
        if len(self.x0) != 3:
            raise ValueError("translation offset must have three components")


@dataclass(frozen=True)
class TimeTranslate:
    t0: float


@dataclass(frozen=True)
class Scale:
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("scaling factor must be positive")


@dataclass(frozen=True)
class PressureShift:
    """Adds the constants C(t) (sampled on the subject's time grid) to the
    pressure."""

    C: tuple

    def __post_init__(self):
        object.__setattr__(self, "C", tuple(float(c) for c in np.atleast_1d(self.C)))


class Galilean:
    """Moving-frame change u -> u(x - int v) + v with the non-periodic
    pressure correction -x . v'(t).  v, and v' when given, are samples
    evenly spaced over the subject's time span; one sample is a constant."""

    def __init__(self, v, v_dot=None):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        if v.shape[1] != 3:
            raise ValueError("velocity path must have three components")
        self.v = v
        self.v_dot = None if v_dot is None else np.atleast_2d(
            np.asarray(v_dot, dtype=float)
        )

    def on_times(self, times):
        """Samples of v, its path integral and derivative on a time grid."""
        times = np.asarray(times, dtype=float)
        if len(self.v) == 1:
            v = np.broadcast_to(self.v, (len(times), 3)).copy()
        elif len(self.v) == len(times):
            v = self.v
        else:
            own = np.linspace(times[0], times[-1], len(self.v))
            v = np.column_stack(
                [np.interp(times, own, self.v[:, i]) for i in range(3)]
            )
        X = cumulative_trapezoid(v, times)
        vd = np.gradient(v, times, axis=0)
        if self.v_dot is not None:
            if len(self.v_dot) == 1:
                vd = np.broadcast_to(self.v_dot, (len(times), 3)).copy()
            else:
                own = np.linspace(times[0], times[-1], len(self.v_dot))
                vd = np.column_stack(
                    [np.interp(times, own, self.v_dot[:, i]) for i in range(3)]
                )
        return v, X, vd


@dataclass(frozen=True)
class Forcing:
    """Adds a gradient forcing grad q and the matching pressure q; q is a
    list of scalar fields on the subject's forcing/stored time grid, or
    one field, constant in time."""

    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        if not self.q:
            raise ValueError("forcing shift needs at least one sample")


def _phase_shift(field, x0):
    """field(x) -> field(x - x0), exact on coefficients."""
    grid = field.grid
    kx, ky, kz = grid.wavenumbers()
    phase = np.exp(
        -2j * np.pi * (kx * x0[0] + ky * x0[1] + kz * x0[2]) / grid.L
    )
    return sp.apply_multiplier(field, phase)


def _add_mean(u: VectorField, vec) -> VectorField:
    coeffs = u.coeffs.copy()
    coeffs[:, 0, 0, 0] += np.asarray(vec, dtype=complex)
    return VectorField(u.grid, coeffs)


def apply(tr, data: DataTriple) -> DataTriple:
    """The problem data transformed by a symmetry transform (one of the
    classes above)."""
    if isinstance(tr, SpaceTranslate):
        return DataTriple(
            _phase_shift(data.u0, tr.x0),
            [_phase_shift(fk, tr.x0) for fk in data.f],
            data.T,
        )
    if isinstance(tr, TimeTranslate):
        raise ValueError(
            "time translation acts on states (state_map); problem data "
            "has no past"
        )
    if isinstance(tr, Scale):
        lam = tr.lam
        g2 = sp.make_grid(lam * data.L, data.grid.N)
        u0 = VectorField(g2, data.u0.coeffs / lam)
        f = [VectorField(g2, fk.coeffs / lam**3) for fk in data.f]
        return DataTriple(u0, f, lam**2 * data.T)
    if isinstance(tr, PressureShift):
        return data
    if isinstance(tr, Galilean):
        times = data.f_times() if len(data.f) >= 2 else np.array([0.0, data.T])
        v, X, _ = tr.on_times(times)
        return DataTriple(
            _add_mean(data.u0, v[0]),
            [_phase_shift(fk, X[j]) for j, fk in enumerate(data.f)],
            data.T,
        )
    if isinstance(tr, Forcing):
        grads = [sp.gradient(qk) for qk in tr.q]
        if not data.f:
            return DataTriple(data.u0, grads, data.T)
        if len(grads) == 1:
            grads *= len(data.f)
        if len(grads) != len(data.f):
            raise ValueError("forcing shift samples must match f grid")
        return DataTriple(data.u0, [
            VectorField(fk.grid, fk.coeffs + gk.coeffs)
            for fk, gk in zip(data.f, grads)], data.T)
    raise TypeError(f"unknown transform {type(tr).__name__}")


def state_map(tr, times):
    """The action of a symmetry transform on the states of a stream stored
    at the given times, which are known before its first state arrives.

    Returns a function of (j, t, u, p, a), the j-th state with its pressure
    p and linear pressure vector a(t) (or None), that gives the image
    (t, u, p, a); for a time translation it gives None for the states
    before the new origin, and the image stream is the tail.
    """
    times = np.asarray(times, dtype=float)
    if isinstance(tr, SpaceTranslate):
        return lambda j, t, u, p, a: (t, _phase_shift(u, tr.x0),
                                      _phase_shift(p, tr.x0), a)
    if isinstance(tr, TimeTranslate):
        T = float(times[-1])
        if not (0.0 <= tr.t0 <= T + 1e-12 * max(T, 1.0)):
            raise ValueError(f"time shift {tr.t0} outside [0, {T}]")
        keep = times >= tr.t0 - 1e-12 * max(T, 1.0)
        if not np.any(keep):
            raise ValueError("time shift leaves no samples")
        first = int(np.argmax(keep))
        return lambda j, t, u, p, a: (
            None if j < first else (t - tr.t0, u, p, a))
    if isinstance(tr, Scale):
        lam = tr.lam

        def image(j, t, u, p, a):
            g2 = sp.make_grid(lam * u.grid.L, u.grid.N)
            return (t * lam**2, VectorField(g2, u.coeffs / lam),
                    ScalarField(g2, p.coeffs / lam**2),
                    None if a is None else a / lam**3)
        return image
    if isinstance(tr, PressureShift):
        C = np.asarray(tr.C, dtype=float)
        if len(C) == 1:
            C = np.full(len(times), C[0])
        if len(C) != len(times):
            raise ValueError("pressure shift samples must match stored times")

        def image(j, t, u, p, a):
            coeffs = p.coeffs.copy()
            coeffs[0, 0, 0] += C[j]
            return t, u, ScalarField(p.grid, coeffs), a
        return image
    if isinstance(tr, Galilean):
        v, X, vd = tr.on_times(times)
        return lambda j, t, u, p, a: (
            t, _add_mean(_phase_shift(u, X[j]), v[j]), _phase_shift(p, X[j]),
            (np.zeros(3) if a is None else a) - vd[j])
    if isinstance(tr, Forcing):
        q = tr.q * len(times) if len(tr.q) == 1 else tr.q
        if len(q) != len(times):
            raise ValueError("forcing shift samples must match stored times")
        return lambda j, t, u, p, a: (
            t, u, ScalarField(p.grid, p.coeffs + q[j].coeffs), a)
    raise TypeError(f"unknown transform {type(tr).__name__}")


@dataclass
class DecayTable:
    """|pairing| against the modulation parameter lambda, with the minimum
    fractional part of k . alpha seen over the active modes."""

    lambdas: np.ndarray
    values: np.ndarray
    min_phase: float

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.lambdas, self.values]),
                   delimiter=",", header="lambda,abs_pairing", comments="")


def _coeff_stack(samples):
    """(n_t, 3or1, N, N, N/2+1) coefficient array from field samples."""
    return np.array([s.coeffs.reshape((-1,) + s.grid.spectral_shape)
                     for s in samples])


def weak_pairing_decay(f, phi, alpha, lambdas, T: float):
    """Space-time pairing of the quadratically shifted forcing with a test
    field, for each modulation strength lambda.

    The shift direction alpha enters through the fractional part of
    k . alpha nearest zero for every active mode k; modes where that
    fractional part vanishes contribute a non-oscillating term, which is
    exactly what makes rational directions fail to decay.
    """
    if not f or not phi:
        raise ValueError("need at least one forcing and one test sample")
    alpha = np.asarray(alpha, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    grid = f[0].grid
    fc = _coeff_stack(f)
    pc = _coeff_stack(phi)
    if fc.shape[1] != pc.shape[1]:
        raise ValueError("forcing and test field component counts differ")
    mean_size = np.max(np.abs(fc[:, :, 0, 0, 0]))
    if mean_size > 1e-12 * max(np.max(np.abs(fc)), 1.0):
        raise ValueError("forcing must be mean-zero in x for each time")

    kx, ky, kz = grid.wavenumbers()
    n_t = fc.shape[0]
    coarse = np.linspace(0.0, T, n_t) if n_t > 1 else np.array([0.0])
    # g_k(t) = sum_components f_hat(t, k) * phi_hat(t, -k), where
    # phi_hat(-k) = conj(phi_hat(k)), kept only for modes whose product is
    # above numerical noise.  The term at -k is the conjugate of the term
    # at k, so the real part of the Hermitian-weighted sum over the stored
    # half equals the sum over all modes.
    g_half = np.einsum("tcijl,tcijl->tijl", fc, np.conj(pc))
    peak = np.max(np.abs(g_half), axis=0)
    peak[0, 0, 0] = 0.0
    cut = 1e-13 * max(float(np.max(peak)), 1e-300)
    ii, jj, ll = np.nonzero(peak > cut)
    kvec = np.column_stack([kx[ii, jj, ll], ky[ii, jj, ll], kz[ii, jj, ll]])
    ka = kvec @ alpha
    theta = ka - np.round(ka)
    min_phase = float(np.min(np.abs(theta))) if len(theta) else np.inf
    g = g_half[:, ii, jj, ll] * grid.hermitian_weight()[ll]

    values = np.empty(len(lambdas))
    theta_max = float(np.max(np.abs(theta))) if len(theta) else 0.0
    for i, lam in enumerate(lambdas):
        # resolve the chirp e^{-2 pi i lam theta t^2}: ~40 nodes per cycle
        cycles = abs(lam) * theta_max * T**2
        n = int(min(max(4001, 40 * cycles), 2_000_000)) + 1
        fine = np.linspace(0.0, T, n)
        if len(theta) == 0:
            values[i] = 0.0
            continue
        if n_t == 1:
            g_fine = np.broadcast_to(g, (n, g.shape[1]))
        else:
            g_fine = np.empty((n, g.shape[1]), dtype=complex)
            for m in range(g.shape[1]):
                g_fine[:, m] = np.interp(fine, coarse, g[:, m].real) \
                    + 1j * np.interp(fine, coarse, g[:, m].imag)
        phase = np.exp(-2j * np.pi * lam * np.outer(fine**2, theta))
        values[i] = np.abs(grid.L**3 * np.real(
            np.trapezoid(np.sum(phase * g_fine, axis=1), fine)
        ))
    return DecayTable(lambdas, values, min_phase)
