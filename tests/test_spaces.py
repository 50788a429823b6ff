"""Norms, problem data containers, and the energy functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import spectral as sp
from nslab.spaces import (
    DataTriple,
    Trajectory,
    cumulative_simpson,
    cumulative_trapezoid,
    energy,
    h1_data_norm,
    sobolev_norm,
    xs_distance,
)
from nslab.solver import SolverConfig, march

from conftest import random_divfree, random_vector, rows_of


def single_mode(grid, k, amp=1.0):
    x = grid.nodes()[0]
    samples = np.zeros((3,) + grid.shape)
    samples[1] = amp * np.sin(2.0 * np.pi * k * x / grid.L)
    return sp.vector_from_samples(grid, samples)


# ---------------------------------------------------------------------------
# Sobolev norms


def test_sobolev_zero_order_is_l2(grid16):
    u = random_divfree(grid16, seed=1)
    assert np.isclose(sobolev_norm(u, 0.0), sp.l2_norm(u), rtol=1e-12)


def test_sobolev_single_mode_closed_form(grid16):
    k = 3
    u = single_mode(grid16, k, amp=2.0)
    # ||u||_L2 = amp sqrt(L^3/2); the H^s weight is (1 + k^2)^{s/2}
    l2 = 2.0 * np.sqrt(grid16.L**3 / 2.0)
    for s in (0.0, 1.0, 2.0):
        expect = (1.0 + k**2) ** (s / 2.0) * l2
        assert np.isclose(sobolev_norm(u, s), expect, rtol=1e-10)


def test_sobolev_orders_nest(grid16):
    u = random_divfree(grid16, seed=2)
    assert sobolev_norm(u, 0.0) <= sobolev_norm(u, 1.0) <= sobolev_norm(u, 2.0)


# ---------------------------------------------------------------------------
# data container validation


def test_data_triple_rejects_nonpositive_horizon(grid16):
    u = random_divfree(grid16, seed=3)
    with pytest.raises(ValueError):
        DataTriple(u, [], 0.0)


def test_data_triple_rejects_divergent_velocity(grid16):
    u = random_vector(grid16, seed=4)
    assert sp.l2_norm(sp.divergence(u)) > 1e-6
    with pytest.raises(ValueError):
        DataTriple(u, [], 1.0)


def test_data_triple_rejects_mismatched_forcing_grid(grid16, grid8):
    u = random_divfree(grid16, seed=5)
    f = random_divfree(grid8, seed=6)
    with pytest.raises(ValueError):
        DataTriple(u, [f], 1.0)


def test_forcing_interpolation_endpoints(grid16):
    u = random_divfree(grid16, seed=7)
    f0 = random_divfree(grid16, seed=8)
    f1 = random_divfree(grid16, seed=9)
    data = DataTriple(u, [f0, f1], 2.0)
    assert np.max(np.abs(data.f_at(0.0).coeffs - f0.coeffs)) < 1e-14
    assert np.max(np.abs(data.f_at(2.0).coeffs - f1.coeffs)) < 1e-14
    mid = data.f_at(1.0)
    assert np.max(np.abs(mid.coeffs - 0.5 * (f0.coeffs + f1.coeffs))) < 1e-14


def test_trajectory_rejects_decreasing_times(grid16):
    u = random_divfree(grid16, seed=10)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.2, 0.1]), [u, u, u])


def test_trajectory_rejects_length_mismatch(grid16):
    u = random_divfree(grid16, seed=11)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), [u])


# ---------------------------------------------------------------------------
# the X^1 distance


def make_traj(grid, n=4, seed=12):
    times = np.linspace(0.0, 0.3, n)
    vels = [random_divfree(grid, seed=seed + j) for j in range(n)]
    return Trajectory(times, vels)


def test_xs_distance_of_a_constant_difference(grid8):
    # L^inf_t H^1 is the H^1 norm, L^2_t H^2 the H^2 norm times sqrt(T)
    a = make_traj(grid8, n=5, seed=40)
    d = random_divfree(grid8, seed=60)
    b = Trajectory(a.times, [sp.vector_from_coeffs(grid8, u.coeffs - d.coeffs)
                             for u in a.velocities])
    expect = sobolev_norm(d, 1.0) + sobolev_norm(d, 2.0) * np.sqrt(a.times[-1])
    assert np.isclose(xs_distance(a, b), expect, rtol=1e-12)


def test_xs_distance_of_a_single_spike(grid8):
    # trajectories that differ at one interior sample j only: the trapezoid
    # weight of that sample is (t[j+1] - t[j-1]) / 2
    times = np.array([0.0, 0.1, 0.25, 0.3])
    a = Trajectory(times, [random_divfree(grid8, seed=70 + j)
                           for j in range(4)])
    d = random_divfree(grid8, seed=80)
    b = Trajectory(times, list(a.velocities))
    b.velocities[2] = sp.vector_from_coeffs(
        grid8, a.velocities[2].coeffs - d.coeffs)
    expect = (sobolev_norm(d, 1.0)
              + sobolev_norm(d, 2.0) * np.sqrt((0.3 - 0.1) / 2.0))
    assert np.isclose(xs_distance(a, b), expect, rtol=1e-12)


def test_xs_distance_is_sup_h1_plus_l2_h2_bit_for_bit(grid8):
    # the Picard stopping test and contraction factor read these bits
    a = make_traj(grid8, n=5, seed=40)
    b = make_traj(grid8, n=5, seed=50)
    diffs = [sp.vector_from_coeffs(grid8, ua.coeffs - ub.coeffs)
             for ua, ub in zip(a.velocities, b.velocities)]
    h1 = np.array([sobolev_norm(d, 1.0) for d in diffs])
    h2 = np.array([sobolev_norm(d, 2.0) for d in diffs])
    expect = (float(np.max(h1))
              + float(np.trapezoid(h2**2, a.times) ** (1.0 / 2)))
    assert xs_distance(a, b) == expect


def test_xs_distance_is_a_metric_on_samples(grid8):
    a = make_traj(grid8, seed=20)
    b = make_traj(grid8, seed=30)
    assert xs_distance(a, a) == 0.0
    assert xs_distance(a, b) == xs_distance(b, a)
    assert xs_distance(a, b) > 0.0


def test_xs_distance_needs_matching_time_grids(grid8):
    a = make_traj(grid8, n=4)
    b = make_traj(grid8, n=5)
    with pytest.raises(ValueError):
        xs_distance(a, b)


# ---------------------------------------------------------------------------
# cumulative quadrature in time


@pytest.mark.parametrize("n", [2, 3, 4, 50])
@pytest.mark.parametrize("spacing", ["equal", "unequal"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["1d", "n-by-3"])
def test_cumulative_quadratures_match_scipy_bit_for_bit(n, spacing, shape):
    # the helpers replace scipy.integrate at run time; the tests may load it
    import scipy.integrate

    rng = np.random.default_rng(n + 7 * len(shape))
    y = rng.standard_normal((n,) + shape)
    if spacing == "equal":
        t = np.linspace(0.0, 0.37, n)
    else:
        t = np.cumsum(rng.uniform(0.01, 1.0, n))
    cases = (
        (cumulative_trapezoid(y, t),
         scipy.integrate.cumulative_trapezoid(y, t, axis=0, initial=0.0)),
        (cumulative_simpson(y, t),
         scipy.integrate.cumulative_simpson(y, x=t, axis=0, initial=0.0)),
    )
    for got, expect in cases:
        assert got.shape == expect.shape == y.shape
        assert got.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# energy functionals


def test_energy_of_unforced_data_is_half_l2_squared(grid16):
    u = random_divfree(grid16, seed=13, amplitude=2.0)
    data = DataTriple(u, [], 1.0)
    assert np.isclose(energy(data), 0.5 * sp.l2_norm(u) ** 2, rtol=1e-12)


def test_energy_includes_integrated_forcing(grid16):
    u = random_divfree(grid16, seed=14)
    f = random_divfree(grid16, seed=15)
    T = 0.5
    expect = 0.5 * (sp.l2_norm(u) + T * sp.l2_norm(f)) ** 2
    assert np.isclose(energy(DataTriple(u, [f, f], T)), expect, rtol=1e-12)
    # one sample is the same constant forcing
    assert np.isclose(energy(DataTriple(u, [f], T)), expect, rtol=1e-12)


def test_enstrophy_of_single_mode(grid16):
    # the enstrophy column of the solver's diagnostics at t = 0
    k = 2
    u = single_mode(grid16, k)
    data = DataTriple(u, [], 1e-3)
    rows = rows_of(march(data, SolverConfig(dt=1e-3)), data)
    # curl of sin(2 pi k x) e_y has magnitude 2 pi k cos(...)
    expect = 0.5 * (2.0 * np.pi * k) ** 2 * sp.l2_norm(u) ** 2
    assert np.isclose(rows.enstrophy[0], expect, rtol=1e-10)


def test_h1_data_norm_integrated_variant(grid16):
    # the forcing enters through its L^1_t H^1 norm
    u = random_divfree(grid16, seed=16)
    f = random_divfree(grid16, seed=17)
    base = sobolev_norm(u, 1.0)
    assert h1_data_norm(DataTriple(u, [], 0.4)) == base
    # one sample is a forcing constant over [0, T], as the solver applies it
    assert h1_data_norm(DataTriple(u, [f], 0.4)) == \
        base + 0.4 * sobolev_norm(f, 1.0)
    assert np.isclose(h1_data_norm(DataTriple(u, [f, f], 0.4)),
                      base + 0.4 * sobolev_norm(f, 1.0), rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), s=st.floats(0.0, 3.0))
def test_sobolev_norm_bounds_l2_from_above(seed, s):
    grid = sp.make_grid(1.0, 8)
    u = random_divfree(grid, seed=seed)
    assert sobolev_norm(u, s) >= sp.l2_norm(u) - 1e-12
