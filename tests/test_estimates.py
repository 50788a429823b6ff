"""Trajectory diagnostics: cutoff geometry, energy accounting, the total
speed ratio, and the shrinking-cutoff enstrophy harness."""

import numpy as np
import pytest

from nslab import spectral as sp
from nslab.estimates import (
    ShrinkingCutoff,
    StaticCutoff,
    energy_budget,
    energy_identity,
    enstrophy_localisation,
    periodic_distance,
    total_speed,
)
from nslab.solver import SolverConfig, evolve, with_diagnostics
from nslab.spaces import DataTriple, Trajectory

from conftest import random_divfree


# ---------------------------------------------------------------------------
# cutoff geometry


def test_periodic_distance_wraps_around(grid16):
    d = periodic_distance(grid16, (0.95, 0.0, 0.0))
    # the node at x=0 is only 0.05 away through the boundary
    assert np.isclose(d[0, 0, 0], 0.05)


def test_static_cutoff_validates_radii():
    with pytest.raises(ValueError):
        StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.2)
    with pytest.raises(ValueError):
        StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.0)


def test_shrinking_cutoff_slope():
    cut = ShrinkingCutoff((0.0, 0.0, 0.0), R_prime0=0.4, delta=2.0, c=0.01)
    assert np.isclose(cut.slope, 0.01**-0.1 * 4.0)


def test_shrinking_cutoff_radius_never_grows():
    cut = ShrinkingCutoff((0.0, 0.0, 0.0), R_prime0=0.4, delta=2.0, c=0.01)
    t = np.linspace(0.0, 1.0, 50)
    sup = 0.5 + 0.1 * np.sin(20.0 * t) ** 2
    radii = cut.radius_path(t, sup, t)
    assert radii[0] == 0.4
    assert np.all(np.diff(radii) < 0.0)


# ---------------------------------------------------------------------------
# energy accounting


def test_global_energy_identity_holds(short_run):
    data, _, traj = short_run
    defect, ratio = energy_identity(traj, data)
    assert defect <= 1e-4
    # unforced, the balance starts at the data's energy and keeps it
    assert abs(ratio - 1.0) <= 1e-4


@pytest.mark.parametrize("eps", [1e-4, 1e-3])
def test_global_energy_identity_counts_the_hyperdissipation(grid16, eps):
    # without the eps ||Delta u||^2 term the defect reads 7e-3 and 6e-2
    data = DataTriple(random_divfree(grid16, seed=14, kmax=3), [], 0.01)
    traj = with_diagnostics(evolve(data, SolverConfig(dt=1e-4, eps=eps)), data)
    defect, ratio = energy_identity(traj, data)
    assert defect <= 1e-6
    assert ratio <= 1.0 + 1e-4


def test_global_energy_identity_needs_diagnostics(grid16):
    u = random_divfree(grid16, seed=1)
    traj = Trajectory(np.array([0.0, 0.1]), [u, u], [])
    with pytest.raises(ValueError, match="with_diagnostics"):
        energy_identity(traj, DataTriple(u, [], 0.1))


def test_local_energy_stays_below_the_budget(short_run):
    data, _, traj = short_run
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.1)
    ratio = energy_budget(traj, cut, data)
    assert 0.0 < ratio <= 1.0


def test_exterior_region_budget(short_run):
    data, _, traj = short_run
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.25, r=0.1)
    ratio = energy_budget(traj, cut, data, region="exterior")
    assert 0.0 < ratio <= 1.0


def test_unknown_region_raises(short_run):
    data, _, traj = short_run
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.1)
    with pytest.raises(ValueError):
        energy_budget(traj, cut, data, region="shell")


def test_local_budget_is_monotone_in_the_data(grid16):
    # doubling the data about doubles the solution's local size and
    # doubles the data term, but multiplies the leakage terms by 2 and 8,
    # so the ratio falls
    data = DataTriple(random_divfree(grid16, seed=2, kmax=3), [], 0.01)
    cfg = SolverConfig(dt=1e-3)
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.1)
    small = energy_budget(evolve(data, cfg), cut, data)
    big_data = DataTriple(
        sp.vector_from_coeffs(grid16, 2.0 * data.u0.coeffs), [], 0.01)
    big = energy_budget(evolve(big_data, cfg), cut, big_data)
    assert 0.0 < big < small


# ---------------------------------------------------------------------------
# total speed


def test_total_speed_ratio_is_positive_and_modest(short_run):
    data, _, traj = short_run
    value, ratio = total_speed(traj, data)
    assert value > 0.0
    assert 0.0 < ratio < 1.0


def test_total_speed_rejects_long_horizons(grid8):
    u = random_divfree(grid8, seed=3, kmax=2, amplitude=0.1)
    data = DataTriple(u, [], 1.5)  # T > L^2 on the unit box
    traj = evolve(data, SolverConfig(dt=5e-2))
    with pytest.raises(ValueError, match="T <= L"):
        total_speed(traj, data)


def test_total_speed_rejects_unnormalised_pressure(short_run):
    data, _, traj = short_run
    p = traj.pressures[0]
    c = p.coeffs.copy()
    c[0, 0, 0] = 1.0
    bad = Trajectory(traj.times, list(traj.velocities),
                     [sp.scalar_from_coeffs(p.grid, c)
                      for p in traj.pressures],
                     diagnostics=traj.diagnostics)
    with pytest.raises(ValueError, match="pressure"):
        total_speed(bad, data)


# ---------------------------------------------------------------------------
# enstrophy localisation harness


def tiny_vortex_run(grid, amp=0.05, T=1e-4, dt=5e-6):
    data = DataTriple(random_divfree(grid, seed=4, kmax=3, amplitude=amp),
                      [], T)
    return data, evolve(data, SolverConfig(dt=dt))


def test_enstrophy_hypothesis_small_vorticity_enforced(grid16):
    data, traj = tiny_vortex_run(grid16)
    with pytest.raises(ValueError, match=r"\(eeta\)"):
        enstrophy_localisation(traj, ((0.5, 0.5, 0.5), 0.4),
                               delta=1e-6, c=0.01, r=0.15, data=data)


def test_enstrophy_hypothesis_smallness_enforced(grid16):
    data, traj = tiny_vortex_run(grid16)
    with pytest.raises(ValueError, match=r"\(delta-4\)"):
        enstrophy_localisation(traj, ((0.5, 0.5, 0.5), 0.4),
                               delta=1e4, c=0.01, r=0.15, data=data)


def test_enstrophy_hypothesis_r_window_enforced(grid16):
    data, traj = tiny_vortex_run(grid16)
    with pytest.raises(ValueError, match=r"\(r-large\)"):
        enstrophy_localisation(traj, ((0.5, 0.5, 0.5), 0.4),
                               delta=3.0, c=0.01, r=0.3, data=data)


def test_enstrophy_report_on_admissible_scenario(grid16):
    data, traj = tiny_vortex_run(grid16)
    delta = 3.0
    rep = enstrophy_localisation(traj, ((0.5, 0.5, 0.5), 0.4),
                                 delta=delta, c=0.01, r=0.15, data=data)
    assert rep.hypothesis_value <= delta
    assert rep.smallness_value <= 0.01
    assert rep.r_condition_value < 0.15
    assert np.all(np.diff(rep.radius_path) <= 0.0)
    assert rep.conclusion_ratio < 1.0
    assert np.all(rep.W <= delta**2)
    assert rep.tax_violation <= 1e-6
