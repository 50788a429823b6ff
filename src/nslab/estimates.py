"""Quantitative diagnostics on solver runs.

Implements the localisation machinery: the global energy identity, the
local energy budget on the regions of a static annulus cutoff, the
shrinking Lipschitz cutoff driven by the accumulated sup-norm for
enstrophy localisation, and the bounded-total-speed ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .solver import ahead
from .spaces import DataTriple, DiagnosticsTable, cumulative_simpson, energy
from .spectral import VectorField

__all__ = [
    "StaticCutoff",
    "ShrinkingCutoff",
    "EnstrophyReport",
    "HypothesisError",
    "ENERGY_REGIONS",
    "energy_identity",
    "energy_budget",
    "total_speed",
    "enstrophy_hypotheses",
    "enstrophy_localisation",
]

# where energy_budget measures: in B(x0, R-r), or outside B(x0, R+r)
ENERGY_REGIONS = ("ball", "exterior")


def periodic_distance(grid, x0):
    """Minimum-image distance from x0 on the torus, sampled at the nodes."""
    x0 = np.asarray(x0, dtype=float)
    nodes = grid.nodes()
    d2 = np.zeros(grid.shape)
    for i in range(3):
        diff = np.abs(nodes[i] - x0[i] % grid.L)
        diff = np.minimum(diff, grid.L - diff)
        d2 += diff**2
    return np.sqrt(d2)


@dataclass(frozen=True)
class StaticCutoff:
    """A radial cutoff about x0, 1 on B(x0, R-r) and 0 outside B(x0, R):
    the centre and radii energy_budget measures with."""

    center: tuple
    R: float
    r: float

    def __post_init__(self):
        if not (0.0 < self.r < self.R / 2.0):
            raise ValueError(f"need 0 < r < R/2, got r={self.r}, R={self.R}")


@dataclass(frozen=True)
class ShrinkingCutoff:
    """Lipschitz weight min(max(0, c^{-0.1} delta^2 (R'(t) - |x|)), 1).

    R'(t) decreases from its initial value at 1/c times the solution's
    sup-norm, so the support recedes faster than anything can be
    transported towards it.
    """

    center: tuple
    R_prime0: float
    delta: float
    c: float

    def __post_init__(self):
        if self.delta <= 0 or self.c <= 0:
            raise ValueError("delta and c must be positive")

    @property
    def slope(self) -> float:
        return self.c**-0.1 * self.delta**2

    def eta_at(self, d, R_prime_t: float):
        """The weight at points at distance d from the center."""
        return np.clip(self.slope * (R_prime_t - d), 0.0, 1.0)


@dataclass
class EnstrophyReport:
    """Shrinking-cutoff enstrophy trace and the conclusion data."""

    times: np.ndarray
    W: np.ndarray
    conclusion_ratio: float      # conclusion lhs / delta
    tax_violation: float
    radius_path: np.ndarray

    def __post_init__(self):
        if np.any(self.W < -1e-14):
            raise ValueError("localised enstrophy must be nonnegative")


class HypothesisError(ValueError):
    """A hypothesis of the enstrophy localisation that fails, by its
    inequality tag; ``measured`` holds the hypothesis values measured up to and
    including it, by tag."""

    def __init__(self, tag, detail, measured):
        super().__init__(f"({tag}): {detail}")
        self.tag = tag
        self.measured = measured


def _masked_l2(u: VectorField, mask) -> float:
    return _masked_l2_of(np.real(u.samples()) ** 2, mask, u.grid)


def _masked_l2_of(sq, mask, grid) -> float:
    """L^2 norm on a mask, from the squared samples."""
    return float(np.sqrt(np.sum(sq * mask) * grid.cell_volume))


def _grad_samples_sq(u: VectorField):
    out = np.zeros(u.grid.shape)
    for i in range(3):
        gi = sp.gradient(u.component(i)).samples()
        out += np.sum(np.real(gi) ** 2, axis=0)
    return out


def _data_energy(data: DataTriple) -> float:
    """E of the data with the forcing Leray-projected."""
    return energy(DataTriple(data.u0, [sp.leray_project(fk) for fk in data.f],
                             data.T))


def energy_identity(d: DiagnosticsTable, eps: float,
                    data: DataTriple) -> tuple:
    """(defect, ratio) of the global energy identity, in units of E.

    From the diagnostic rows d of a run with hyperdissipation coefficient
    eps, lhs(t) = energy + the integrated dissipation - the integrated
    work of the forcing; the defect is its largest drift from lhs(0), the
    ratio its largest value.
    """
    E = _data_energy(data)
    lhs = (d.energy + cumulative_simpson(d.grad_sq, d.t)
           - cumulative_simpson(d.f_inner, d.t))
    if eps:
        # the hyperdissipation drains eps ||Delta u||^2 as well
        lhs += eps * cumulative_simpson(d.lap_sq, d.t)
    if E <= 0:
        return 0.0, 0.0
    return float(np.max(np.abs(lhs - lhs[0])) / E), float(np.max(lhs) / E)


def energy_budget(states, cutoff: StaticCutoff, data: DataTriple,
                  region: str = "ball") -> float:
    """Local energy budget of a run: the ratio of sup_t ||u||_L2 +
    ||grad u||_L2L2 in the inner region B(x0, R-r) (or, with
    region="exterior", outside B(x0, R+r)) to the data-plus-energy bound
    with the r-dependent leakage terms.

    states is an iterable of (t, u), such as solver.march; each state is
    reduced on solver.ahead's worker thread as the next one is drawn, and
    at most two are held.
    """
    if region not in ENERGY_REGIONS:
        raise ValueError(f"unknown region {region!r}")
    E = _data_energy(data)
    grid = data.grid
    d_grid = periodic_distance(grid, cutoff.center)
    if region == "ball":
        inner = d_grid <= cutoff.R - cutoff.r
        outer = d_grid <= cutoff.R
    else:
        inner = d_grid >= cutoff.R + cutoff.r
        outer = d_grid >= cutoff.R

    def reduce(u):
        return (_masked_l2(u, inner),
                np.sum(_grad_samples_sq(u) * inner) * grid.cell_volume)

    times, inner_l2, grad_prof = [], [], []
    for t, _, (l2, grad) in ahead(reduce, states):
        times.append(t)
        inner_l2.append(l2)
        grad_prof.append(grad)
    times = np.array(times)
    T = times[-1] - times[0]
    lhs = max(inner_l2) + float(np.sqrt(np.trapezoid(grad_prof, times)))
    # summed from 0 in this order (data, forcing, the two leakage terms),
    # the order the local ratio's recorded bits come from
    rhs = sum((_masked_l2(data.u0, outer),
               data.f_integral(lambda fk: _masked_l2(fk, outer)),
               np.sqrt(E * T) / cutoff.r, np.sqrt(E**3 * T) / cutoff.r**2))
    return float(lhs / rhs) if rhs > 0 else 0.0


def total_speed(states, data: DataTriple):
    """Accumulated sup-norm and its ratio to E^{1/2} T^{1/4} + E.

    states is an iterable of (t, u), such as solver.march; the oversampled
    sup norm of each state is taken on solver.ahead's worker thread as the
    next state is drawn, and integrated over the stored times.  Requires
    T <= L^2 (the regime where the bound is meaningful), checked before
    the first state is drawn.
    """
    grid = data.grid
    if data.T > grid.L**2 * (1.0 + 1e-12):
        raise ValueError(
            f"total speed bound needs T <= L^2; got T={data.T}, "
            f"L^2={grid.L ** 2}"
        )
    times, prof = [], []
    for t, _, sup in ahead(sp.sup_norm, states):
        times.append(t)
        prof.append(sup)
    times = np.array(times)
    T = times[-1] - times[0]
    value = float(np.trapezoid(np.array(prof), times))
    E = energy(data)
    bound = np.sqrt(E) * T**0.25 + E
    ratio = value / bound if bound > 0 else 0.0
    return value, float(ratio)


def enstrophy_hypotheses(ball, delta: float, c: float, r: float,
                         data: DataTriple, T: float) -> dict:
    """The hypotheses of the enstrophy localisation over [0, T], measured
    by inequality tag: small vorticity of the data in the ball (eeta);
    smallness of delta^4 T + delta^5 E^{1/2} T (delta-4); the lower bound
    on r (r-large); and the geometric conditions T <= L^2 and R <= L.

    They depend on the data and the horizon only, so a run checks them
    before it solves.  Raises HypothesisError at the first that fails.
    """
    x0, R = ball
    grid = data.grid
    E = energy(data)

    measured = {}
    if not (0.0 < r < R / 2.0):
        raise HypothesisError("r-large", f"need 0 < r < R/2, got r={r}, R={R}",
                              measured)
    if R > grid.L * (1 + 1e-12):
        raise HypothesisError(
            "r-large", f"ball radius R={R} exceeds the period {grid.L}",
            measured)
    if T > grid.L**2 * (1 + 1e-12):
        raise HypothesisError(
            "l1x", f"total speed bound needs T <= L^2, got T={T}", measured)

    omega0 = sp.curl(data.u0)
    ball_mask = periodic_distance(grid, x0) <= R
    hyp = _masked_l2(omega0, ball_mask)
    hyp += data.f_integral(lambda fk: _masked_l2(sp.curl(fk), ball_mask))
    measured["eeta"] = hyp
    if hyp > delta * (1 + 1e-12):
        raise HypothesisError(
            "eeta", f"vorticity size of the data in the ball is {hyp:.6g} "
            f"> delta = {delta}", measured)
    small = delta**4 * T + delta**5 * np.sqrt(E) * T
    measured["delta-4"] = float(small)
    if small > c * (1 + 1e-12):
        raise HypothesisError(
            "delta-4", f"delta^4 T + delta^5 E^(1/2) T = {small:.6g} > c = {c}",
            measured)
    r_cond = E + np.sqrt(E) * T**0.25 + delta**-2
    measured["r-large"] = float(r_cond)
    if r <= r_cond:
        raise HypothesisError("r-large", f"r = {r} must exceed {r_cond:.6g}",
                              measured)
    return measured


def enstrophy_localisation(states, ball, delta: float, c: float,
                           r: float) -> EnstrophyReport:
    """Shrinking-cutoff enstrophy tracking inside a ball.

    Tracks the localised enstrophy W(t), checks the recession inequality
    for the cutoff, and measures the conclusion in units of delta.  states
    is an iterable of (t, u), such as solver.march; each state is reduced
    as it arrives, with its sup norm taken on solver.ahead's worker thread
    as the next one is drawn, and at most two are held.  The caller checks
    the hypotheses first, with enstrophy_hypotheses.
    """
    x0, R = ball
    cutoff = ShrinkingCutoff(tuple(x0), R - r / 8.0, delta, c)
    times, W, radii, grad_prof = [], [], [], []
    inner_max = tax_violation = 0.0
    for t, u, sup in ahead(sp.sup_norm, states):
        if not times:
            grid = u.grid
            d_grid = periodic_distance(grid, x0)
            inner = d_grid <= R - r
            acc = 0.0
        else:
            # R'(t) recedes by 1/c times the trapezoid integral of the sup
            # profile, extended by one interval per state
            dt = t - times[-1]
            acc_prev, acc = acc, acc + dt * (sup + sup_prev) / 2.0
        radii.append(cutoff.R_prime0 - acc / c)
        eta = cutoff.eta_at(d_grid, radii[-1])
        if times:
            # recession check, in per-step integrated form: the change of
            # the weight over a step must not exceed
            # -(1/c) int ||u||_inf |grad eta|.  The weight is piecewise
            # linear in |x|, so the sharp comparison is made at points that
            # stay strictly inside the ramp over the step (where
            # |grad eta| is the constant slope); elsewhere the weight must
            # simply not increase.
            deta = (eta - eta_prev) / dt
            ramp = ((eta_prev > 0.0) & (eta_prev < 1.0)
                    & (eta > 0.0) & (eta < 1.0))
            sup_avg = (acc - acc_prev) / dt
            tax_violation = max(tax_violation, float(np.max(np.where(
                ramp, deta + sup_avg * cutoff.slope / c, deta))))
        # each vorticity and its samples are made once and serve W and
        # both conclusion profiles
        om = sp.curl(u)
        sq = np.real(om.samples()) ** 2
        W.append(0.5 * np.sum(np.sum(sq, axis=0) * eta) * grid.cell_volume)
        inner_max = max(inner_max, _masked_l2_of(sq, inner, grid))
        grad_prof.append(
            np.sum(_grad_samples_sq(om) * inner) * grid.cell_volume)
        times.append(t)
        sup_prev, eta_prev = sup, eta

    lhs = inner_max + float(np.sqrt(np.trapezoid(grad_prof, times)))
    return EnstrophyReport(
        times=np.array(times),
        W=np.array(W),
        conclusion_ratio=lhs / delta,
        tax_violation=tax_violation,
        radius_path=np.array(radii),
    )
