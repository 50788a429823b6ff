"""Mild-solution engine for the periodic Navier-Stokes system.

The state is advanced by an integrating-factor midpoint rule: the linear
part (Laplacian plus optional hyperdissipation) is treated exactly through
the heat semigroup, the projected nonlinearity PB(u,u) + Pf explicitly.
Fields are kept inside the 2/3 dealias band at all times, so quadratic
products are alias-free and the semi-discrete energy identity holds up to
time-quadrature error only.

picard_solve runs the Duhamel fixed-point iteration with the same
exponential-integrator weights, so its fixed point coincides with the
time-stepped solution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import spectral as sp
from .spaces import (
    DataTriple,
    DiagnosticsTable,
    Trajectory,
    h1_data_norm,
    sobolev_norm,
    xs_distance,
)
from .spectral import ScalarField, VectorField

__all__ = [
    "SolverConfig",
    "bilinear_B",
    "normalised_pressure",
    "picard_solve",
    "evolve",
    "march",
    "ahead",
    "stored_times",
    "recording_rows",
    "diagnostics_table",
    "pressured",
    "MomentumResidual",
    "residual",
]


@dataclass(frozen=True)
class SolverConfig:
    """Stepping and fixed-point parameters.

    smallness_c is the absolute constant in the local wellposedness window
    (H1 data norm)^4 * T <= c; calibrated so the measured contraction
    factor stays below 1/2 on random small data.
    """

    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iters: int = 100
    smallness_c: float = 1e-2
    eps: float = 0.0
    store_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.picard_tol <= 0 or self.picard_max_iters < 1:
            raise ValueError("picard controls must be positive")
        if self.eps < 0:
            raise ValueError("hyperdissipation must be nonnegative")
        if self.store_every < 1:
            raise ValueError("store_every must be a positive integer")


_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
# index into the six products of the unordered pair {i, j}
_SLOT = {
    pair: n for n, (i, j) in enumerate(_SYM_PAIRS) for pair in ((i, j), (j, i))
}


def _product_tensor(us, vs, keep):
    """Dealiased half spectra of the six products (u_i v_j + u_j v_i)/2,
    batched."""
    prods = np.empty((len(_SYM_PAIRS),) + us.shape[1:])
    for n, (i, j) in enumerate(_SYM_PAIRS):
        np.multiply(us[i], vs[j], out=prods[n])
        if vs is not us:
            prods[n] += us[j] * vs[i]
            prods[n] *= 0.5
    phat = scipy.fft.rfftn(prods, axes=(1, 2, 3), norm="forward")
    phat *= keep
    return phat


def _first_derivatives(grid):
    return [sp._axis_multiplier(grid, ax) for ax in range(3)]


def _bilinear(u: VectorField, v: VectorField):
    """Coefficients of B(u,v)."""
    us = u.samples()
    vs = v.samples() if v is not u else us
    phat = _product_tensor(us, vs, sp._keep_mask(u.grid))
    mult = _first_derivatives(u.grid)
    out = np.empty((3,) + phat.shape[1:], dtype=complex)
    for i in range(3):
        np.multiply(phat[_SLOT[i, 0]], mult[0], out=out[i])
        for j in (1, 2):
            out[i] += phat[_SLOT[i, j]] * mult[j]
    out *= -1.0
    return out


def bilinear_B(u: VectorField, v: VectorField) -> VectorField:
    """Symmetric bilinear form B(u,v)_i = -1/2 d_j (u_i v_j + u_j v_i).

    The products are formed from the samples of u and v through real
    transforms.
    """
    if u.grid != v.grid:
        raise ValueError("grid mismatch in bilinear form")
    return VectorField(u.grid, _bilinear(u, v))


def normalised_pressure(u: VectorField, f_sample: VectorField | None = None) -> ScalarField:
    """Mean-zero pressure -Delta^{-1} d_i d_j (u_i u_j) + Delta^{-1} div f."""
    grid = u.grid
    us = u.samples()
    phat = _product_tensor(us, us, sp._keep_mask(grid))
    mult = _first_derivatives(grid)
    acc = np.zeros(phat.shape[1:], dtype=complex)
    for n, (i, j) in enumerate(_SYM_PAIRS):
        weight = 1.0 if i == j else 2.0
        acc += weight * (phat[n] * mult[i] * mult[j])
    acc *= -sp._inverse_laplace_symbol(grid)
    p = ScalarField(grid, acc)
    if f_sample is not None:
        p = ScalarField(
            grid, p.coeffs + sp.inverse_laplacian(sp.divergence(f_sample)).coeffs
        )
    return p


def _nonlinear(u: VectorField, f_sample: VectorField | None) -> VectorField:
    """PB(u,u) + Pf, the explicit part of the mild formulation."""
    pb = sp._leray(_bilinear(u, u), *sp._deriv_modes(u.grid.N))
    n = VectorField(u.grid, pb)
    if f_sample is not None:
        pf = sp.leray_project(sp.dealias(f_sample))
        n = VectorField(u.grid, n.coeffs + pf.coeffs)
    return n


def _diag_row(u: VectorField, f_sample: VectorField | None):
    """Energy, ||grad u||^2, ||Delta u||^2, enstrophy and <u, f>: sums over
    the coefficients, with no transform."""
    grid = u.grid
    sym = grid.laplace_symbol()
    mag2 = grid.hermitian_weight() * np.sum(np.abs(u.coeffs) ** 2, axis=0)
    l2_sq = grid.L**3 * float(np.sum(mag2))
    grad_sq = grid.L**3 * float(np.sum(-sym * mag2))
    lap_sq = grid.L**3 * float(np.sum(sym**2 * mag2))
    ens = 0.5 * sp.l2_norm(sp.curl(u)) ** 2
    fi = sp.l2_inner(u, f_sample) if f_sample is not None else 0.0
    return 0.5 * l2_sq, grad_sq, lap_sq, ens, fi


def _steps_for(T: float, dt: float) -> int:
    return max(1, int(round(T / dt)))


def _check_finite(u: VectorField, step: int):
    if not np.all(np.isfinite(u.coeffs)):
        raise FloatingPointError(f"non-finite velocity at step {step}")


def _stored_steps(n_steps: int, store_every: int) -> list:
    """Every store_every-th step index, and always the last one."""
    steps = list(range(0, n_steps + 1, store_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _f_sample(data: DataTriple, t):
    return data.f_at(t) if data.f else None


def _time_grid(data: DataTriple, cfg: SolverConfig):
    """(n_steps, dt): the steps over [0, T] and their size; the march's
    last stored time is n_steps * dt."""
    n_steps = _steps_for(data.T, cfg.dt)
    return n_steps, data.T / n_steps


def _step_setup(data: DataTriple, cfg: SolverConfig):
    """(n_steps, dt, half, full): the steps over [0, T], their size, and the
    integrating factors over half a step and over a whole one."""
    n_steps, dt = _time_grid(data, cfg)
    half = np.exp(0.5 * dt * _stiff_symbol(data.grid, cfg.eps))
    return n_steps, dt, half, half * half


def _sweep(data: DataTriple, cfg: SolverConfig, picard_source):
    """Integrating-factor midpoint march over [0, T].

    Yields (n, t, u) for the data (n = 0) and after every step n, with
    t = n * dt.  When picard_source (a list of per-step states) is given,
    the midpoint predictor is built from those states instead of the
    evolving solution, which turns the march into one application of the
    Picard map.
    """
    grid = data.grid
    n_steps, dt, half, full = _step_setup(data, cfg)
    u = sp.dealias(data.u0)
    yield 0, 0.0, u
    for n in range(n_steps):
        t = n * dt
        f_now = _f_sample(data, t)
        f_mid = _f_sample(data, t + 0.5 * dt)
        base = picard_source[n] if picard_source is not None else u
        stage = VectorField(
            grid,
            half * (base.coeffs + 0.5 * dt * _nonlinear(base, f_now).coeffs),
        )
        u = VectorField(
            grid,
            full * u.coeffs + dt * half * _nonlinear(stage, f_mid).coeffs,
        )
        _check_finite(u, n + 1)
        yield n + 1, (n + 1) * dt, u


def march(data: DataTriple, cfg: SolverConfig):
    """Yields (t, u) at the stored steps of the march over [0, T]: every
    cfg.store_every-th step and the last one.  A reader that needs one
    number per state can reduce each as it arrives and hold none."""
    keep = set(_stored_steps(_time_grid(data, cfg)[0], cfg.store_every))
    for n, t, u in _sweep(data, cfg, None):
        if n in keep:
            yield t, u


def ahead(fn, states):
    """Yields (t, u, fn(u)) for each (t, u) of states, in their order.

    fn runs on one worker thread: while it reduces one state, the calling
    thread draws the next, which marches the next steps (the transforms
    and numpy's large kernels release the interpreter lock).  At most two
    states are in flight; the worker is joined when the stream ends, when
    the reader stops early and when either side raises, whose exception
    reaches the reader.  fn should return numbers, not sample arrays, so
    that the two states in flight are all it holds.
    """
    with ThreadPoolExecutor(1) as pool:
        flight = []
        for t, u in states:
            flight.append((t, u, pool.submit(fn, u)))
            if len(flight) == 2:
                t, u, reduced = flight.pop(0)
                yield t, u, reduced.result()
        for t, u, reduced in flight:
            yield t, u, reduced.result()


def stored_times(data: DataTriple, cfg: SolverConfig) -> np.ndarray:
    """The times of the states that march yields and picard_solve returns,
    known before the march starts."""
    n_steps, dt = _time_grid(data, cfg)
    return np.array([n * dt for n in _stored_steps(n_steps, cfg.store_every)])


def diagnostics_table(rows) -> DiagnosticsTable:
    """The DiagnosticsTable of rows made by recording_rows."""
    return DiagnosticsTable(*(np.array(c) for c in zip(*rows)))


def recording_rows(states, data: DataTriple, rows: list):
    """Passes each (t, u) of states on, after appending its diagnostic row
    under the forcing of data at t to rows, so that one pass over a march
    serves both the rows and another reduction."""
    for t, u in states:
        rows.append((t, *_diag_row(u, _f_sample(data, t))))
        yield t, u


def pressured(states, data: DataTriple):
    """Passes each (t, u) of states on as the state (t, u, p, None, f) that
    residual reads: f is the forcing of data at t (None when data is
    unforced), p the normalised pressure of u under f, made as the state
    arrives, and there is no linear pressure part."""
    for t, u in states:
        f = _f_sample(data, t)
        yield t, u, normalised_pressure(u, f), None, f


def _stiff_symbol(grid, eps):
    sym = grid.laplace_symbol()
    if eps:
        sym = sym - eps * sym**2
    return sym


def evolve(data: DataTriple, cfg: SolverConfig) -> Trajectory:
    """Long-time stepping of the (hyper)dissipative system; no smallness
    assumption: the stored states of march, held.  The experiments read
    march; tests hold solves with this."""
    times, states = [], []
    for t, u in march(data, cfg):
        times.append(t)
        states.append(u)
    return Trajectory(np.array(times), states,
                      meta={"dt": _time_grid(data, cfg)[1]})


def picard_solve(data: DataTriple, cfg: SolverConfig) -> Trajectory:
    """Duhamel fixed-point iteration on the discrete time grid.

    Iterates u -> e^{t Delta}u0 + quadrature of e^{(t-t')Delta}(PB(u,u)+Pf)
    with the same exponential-integrator weights as evolve, measures the
    contraction factor in the X^1 norm, and returns the fixed point (with
    the factor and iteration count in traj.meta).
    """
    size = h1_data_norm(data)
    if size**4 * data.T > cfg.smallness_c:
        raise ValueError(
            "smallness condition violated: "
            f"(H1 data norm)^4 * T = {size**4 * data.T:.3e} "
            f"> {cfg.smallness_c:.3e}"
        )
    grid = data.grid
    n_steps, dt, half, full = _step_setup(data, cfg)
    u0 = sp.dealias(data.u0)

    # zeroth iterate: the forced heat flow (nonlinearity off)
    current = [u0]
    for n in range(n_steps):
        f_mid = _f_sample(data, (n + 0.5) * dt)
        forced = (
            dt * half * sp.leray_project(sp.dealias(f_mid)).coeffs
            if f_mid is not None
            else 0.0
        )
        current.append(VectorField(grid, full * current[-1].coeffs + forced))

    factors = []
    prev_dist = None
    times = np.arange(n_steps + 1) * dt
    scale = max(1.0, sobolev_norm(u0, 1.0))
    for it in range(cfg.picard_max_iters):
        nxt = [u for _, _, u in _sweep(data, cfg, current)]
        dist = xs_distance(Trajectory(times, current), Trajectory(times, nxt))
        if prev_dist is not None and prev_dist > 0:
            factor = dist / prev_dist
            factors.append(factor)
            if factor >= 1.0:
                raise RuntimeError(
                    f"Picard iteration is not contracting (factor {factor:.3f})"
                )
        current = nxt
        if dist < cfg.picard_tol * scale:
            steps = _stored_steps(n_steps, cfg.store_every)
            traj = Trajectory(stored_times(data, cfg), [nxt[n] for n in steps],
                              meta={"dt": dt})
            traj.meta["picard_iterations"] = it + 1
            traj.meta["contraction_factor"] = max(factors) if factors else 0.0
            return traj
        prev_dist = dist
    raise RuntimeError(
        f"Picard iteration did not converge in {cfg.picard_max_iters} steps "
        f"(last X^1 increment {dist:.3e})"
    )


class MomentumResidual:
    """The reduction of residual, fed one state at a time, so that one
    march can feed several streams: push each state (t, u, p, a, f) of a
    stream in order, then read result().  It keeps the last three states;
    each push from the third on adds the defect at the middle one."""

    def __init__(self, eps: float):
        self.eps = eps
        self.window = []
        self.defects = []

    def push(self, state):
        self.window = self.window[-2:] + [state]
        if len(self.window) == 3:
            self.defects.append(self._defect())

    def _defect(self):
        (t_prev, u_prev, *_), (t, u, p, a, f), (t_next, u_next, *_) = \
            self.window
        grid = u.grid
        dtc = t_next - t_prev
        du = (u_next.coeffs - u_prev.coeffs) / dtc
        defect = (
            du
            - sp.laplacian(u).coeffs
            - bilinear_B(u, u).coeffs
        )
        if self.eps:
            defect += self.eps * sp.laplacian(sp.laplacian(u)).coeffs
        defect += sp.gradient(p).coeffs
        if f is not None:
            defect -= sp.dealias(f).coeffs
        res_field = VectorField(grid, defect)
        val_sq = sp.l2_norm(res_field) ** 2
        if a is not None:
            # the constant vector a(t) is the gradient of x . a(t); it is
            # orthogonal to every mean-zero mode, so it adds in quadrature
            val_sq += grid.L**3 * float(
                np.sum((np.real(res_field.mean()) + a) ** 2)
                - np.sum(np.real(res_field.mean()) ** 2)
            )
        return np.sqrt(max(val_sq, 0.0))

    def result(self) -> np.ndarray:
        """The defect at each interior state pushed so far."""
        if not self.defects:
            raise ValueError("residual needs at least three time samples")
        return np.array(self.defects)


def residual(states, eps: float) -> np.ndarray:
    """L^2 defect of the momentum equation at the interior states of a
    stream of (t, u, p, a, f), such as pressured(march(...)): a velocity,
    its pressure, the vector a(t) of a linear pressure part x . a(t) or
    None, and the forcing at t or None.  It uses central differences in
    time and the hyperdissipation coefficient eps.  Each state is reduced
    as it arrives; three are held."""
    reduction = MomentumResidual(eps)
    for state in states:
        reduction.push(state)
    return reduction.result()
