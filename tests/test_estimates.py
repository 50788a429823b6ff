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
    enstrophy_hypotheses,
    enstrophy_localisation,
    periodic_distance,
    total_speed,
)
from nslab.solver import SolverConfig, evolve, march
from nslab.spaces import DataTriple, cumulative_trapezoid

from conftest import random_divfree, rows_of, states


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


def test_shrinking_cutoff_radius_never_grows(grid8):
    # R'(t) starts at R - r/8 and recedes by 1/c times the trapezoid
    # integral of the sup profile, accumulated one state at a time
    u = random_divfree(grid8, seed=2, kmax=2)
    t = np.linspace(0.0, 1.0, 50)
    amp = 0.5 + 0.1 * np.sin(20.0 * t) ** 2
    fields = [sp.vector_from_coeffs(grid8, a * u.coeffs) for a in amp]
    rep = enstrophy_localisation(zip(t, fields), ((0.0, 0.0, 0.0), 0.45),
                                 delta=2.0, c=0.01, r=0.2)
    sup = [sp.sup_norm(f) for f in fields]
    assert rep.radius_path[0] == 0.45 - 0.2 / 8.0
    assert np.all(np.diff(rep.radius_path) < 0.0)
    assert np.array_equal(rep.radius_path, 0.45 - 0.2 / 8.0
                          - cumulative_trapezoid(sup, t) / 0.01)


# ---------------------------------------------------------------------------
# energy accounting


def test_global_energy_identity_holds(short_run):
    data, cfg, _, rows = short_run
    defect, ratio = energy_identity(rows, cfg.eps, data)
    assert defect <= 1e-4
    # unforced, the balance starts at the data's energy and keeps it
    assert abs(ratio - 1.0) <= 1e-4


@pytest.mark.parametrize("eps", [1e-4, 1e-3])
def test_global_energy_identity_counts_the_hyperdissipation(grid16, eps):
    # without the eps ||Delta u||^2 term the defect reads 7e-3 and 6e-2
    data = DataTriple(random_divfree(grid16, seed=14, kmax=3), [], 0.01)
    rows = rows_of(march(data, SolverConfig(dt=1e-4, eps=eps)), data)
    defect, ratio = energy_identity(rows, eps, data)
    assert defect <= 1e-6
    assert ratio <= 1.0 + 1e-4


def test_local_energy_stays_below_the_budget(short_run):
    data, _, traj, _ = short_run
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.1)
    ratio = energy_budget(states(traj), cut, data)
    assert 0.0 < ratio <= 1.0


def test_exterior_region_budget(short_run):
    data, _, traj, _ = short_run
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.25, r=0.1)
    ratio = energy_budget(states(traj), cut, data, region="exterior")
    assert 0.0 < ratio <= 1.0


def test_unknown_region_raises(short_run):
    data, _, traj, _ = short_run
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.1)
    with pytest.raises(ValueError):
        energy_budget(states(traj), cut, data, region="shell")


def test_local_budget_is_monotone_in_the_data(grid16):
    # doubling the data about doubles the solution's local size and
    # doubles the data term, but multiplies the leakage terms by 2 and 8,
    # so the ratio falls
    data = DataTriple(random_divfree(grid16, seed=2, kmax=3), [], 0.01)
    cfg = SolverConfig(dt=1e-3)
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.1)
    small = energy_budget(march(data, cfg), cut, data)
    big_data = DataTriple(
        sp.vector_from_coeffs(grid16, 2.0 * data.u0.coeffs), [], 0.01)
    big = energy_budget(march(big_data, cfg), cut, big_data)
    assert 0.0 < big < small


# ---------------------------------------------------------------------------
# total speed


def test_total_speed_ratio_is_positive_and_modest(short_run):
    data, _, traj, _ = short_run
    value, ratio = total_speed(states(traj), data)
    assert value > 0.0
    assert 0.0 < ratio < 1.0


def _never_drawn():
    raise AssertionError("no state may be drawn")
    yield


def test_total_speed_rejects_long_horizons(grid8):
    u = random_divfree(grid8, seed=3, kmax=2, amplitude=0.1)
    data = DataTriple(u, [], 1.5)  # T > L^2 on the unit box
    # rejected before the first state is drawn
    with pytest.raises(ValueError, match="T <= L"):
        total_speed(_never_drawn(), data)


def test_streamed_and_held_states_reduce_alike(grid16):
    # the march's states, reduced as they arrive, give the bits of the
    # same states held in evolve's trajectory
    data = DataTriple(random_divfree(grid16, seed=5, kmax=3), [], 0.01)
    cfg = SolverConfig(dt=1e-3, store_every=3)
    held = evolve(data, cfg)
    assert total_speed(march(data, cfg), data) \
        == total_speed(states(held), data)
    cut = StaticCutoff((0.5, 0.5, 0.5), R=0.3, r=0.1)
    assert energy_budget(march(data, cfg), cut, data) \
        == energy_budget(states(held), cut, data)
    ball = ((0.5, 0.5, 0.5), 0.4)
    streamed, kept = (enstrophy_localisation(s, ball, 3.0, 0.01, 0.15)
                      for s in (march(data, cfg), states(held)))
    for name in ("times", "W", "radius_path"):
        assert np.array_equal(getattr(streamed, name), getattr(kept, name))
    assert (streamed.conclusion_ratio, streamed.tax_violation) \
        == (kept.conclusion_ratio, kept.tax_violation)


# ---------------------------------------------------------------------------
# enstrophy localisation harness


def tiny_vortex_data(grid):
    return DataTriple(random_divfree(grid, seed=4, kmax=3, amplitude=0.05),
                      [], 1e-4)


def test_enstrophy_hypothesis_small_vorticity_enforced(grid16):
    data = tiny_vortex_data(grid16)
    with pytest.raises(ValueError, match=r"\(eeta\)"):
        enstrophy_hypotheses(((0.5, 0.5, 0.5), 0.4), delta=1e-6, c=0.01,
                             r=0.15, data=data, T=data.T)


def test_enstrophy_hypothesis_smallness_enforced(grid16):
    data = tiny_vortex_data(grid16)
    with pytest.raises(ValueError, match=r"\(delta-4\)"):
        enstrophy_hypotheses(((0.5, 0.5, 0.5), 0.4), delta=1e4, c=0.01,
                             r=0.15, data=data, T=data.T)


def test_enstrophy_hypothesis_r_window_enforced(grid16):
    data = tiny_vortex_data(grid16)
    with pytest.raises(ValueError, match=r"\(r-large\)"):
        enstrophy_hypotheses(((0.5, 0.5, 0.5), 0.4), delta=3.0, c=0.01,
                             r=0.3, data=data, T=data.T)


def test_enstrophy_report_on_admissible_scenario(grid16):
    data = tiny_vortex_data(grid16)
    traj = evolve(data, SolverConfig(dt=5e-6))
    delta = 3.0
    hyp = enstrophy_hypotheses(((0.5, 0.5, 0.5), 0.4), delta=delta, c=0.01,
                               r=0.15, data=data, T=traj.times[-1])
    rep = enstrophy_localisation(states(traj), ((0.5, 0.5, 0.5), 0.4),
                                 delta=delta, c=0.01, r=0.15)
    assert hyp["eeta"] <= delta
    assert hyp["delta-4"] <= 0.01
    assert hyp["r-large"] < 0.15
    assert np.all(np.diff(rep.radius_path) <= 0.0)
    assert rep.conclusion_ratio < 1.0
    assert np.all(rep.W <= delta**2)
    assert rep.tax_violation <= 1e-6
