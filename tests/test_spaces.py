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
    enstrophy,
    h1_data_norm,
    mixed_norm,
    sobolev_norm,
    xs_distance,
    xs_norm,
)

from conftest import random_divfree, random_vector


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


def test_homogeneous_sobolev_single_mode(grid16):
    k = 2
    u = single_mode(grid16, k)
    ratio = sobolev_norm(u, 1.0, homogeneous=True) / sp.l2_norm(u)
    assert np.isclose(ratio, k, rtol=1e-10)


def test_homogeneous_sobolev_rejects_nonzero_mean(grid16):
    c = np.zeros((3,) + grid16.spectral_shape, dtype=complex)
    c[0, 0, 0, 0] = 1.0
    u = sp.vector_from_coeffs(grid16, c)
    with pytest.raises(ValueError):
        sobolev_norm(u, 1.0, homogeneous=True)


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
        Trajectory(np.array([0.0, 0.2, 0.1]), [u, u, u], [])


def test_trajectory_rejects_length_mismatch(grid16):
    u = random_divfree(grid16, seed=11)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), [u], [])


# ---------------------------------------------------------------------------
# mixed and hybrid norms


def make_traj(grid, n=4, seed=12):
    times = np.linspace(0.0, 0.3, n)
    vels = [random_divfree(grid, seed=seed + j) for j in range(n)]
    return Trajectory(times, vels, [])


def test_mixed_norm_inf_is_profile_max(grid8):
    traj = make_traj(grid8)
    rep = mixed_norm(traj, np.inf, "L2")
    assert rep.value == np.max(rep.time_profile)
    assert len(rep.time_profile) == len(traj)


def test_mixed_norm_two_is_trapezoid(grid8):
    traj = make_traj(grid8)
    rep = mixed_norm(traj, 2, "L2")
    expect = np.sqrt(np.trapezoid(rep.time_profile**2, traj.times))
    assert np.isclose(rep.value, expect, rtol=1e-12)


def test_xs_norm_is_the_sum_of_its_parts(grid8):
    traj = make_traj(grid8)
    expect = (mixed_norm(traj, np.inf, ("H", 1.0)).value
              + mixed_norm(traj, 2, ("H", 2.0)).value)
    assert np.isclose(xs_norm(traj, 1.0).value, expect, rtol=1e-12)


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
    data = DataTriple(u, [f, f], T)
    expect = 0.5 * (sp.l2_norm(u) + T * sp.l2_norm(f)) ** 2
    assert np.isclose(energy(data), expect, rtol=1e-12)


def test_enstrophy_of_single_mode(grid16):
    k = 2
    u = single_mode(grid16, k)
    # curl of sin(2 pi k x) e_y has magnitude 2 pi k cos(...)
    expect = 0.5 * (2.0 * np.pi * k) ** 2 * sp.l2_norm(u) ** 2
    assert np.isclose(enstrophy(u), expect, rtol=1e-10)


def test_h1_data_norm_integrated_variant(grid16):
    u = random_divfree(grid16, seed=16)
    f = random_divfree(grid16, seed=17)
    data = DataTriple(u, [f, f], 0.4)
    base = sobolev_norm(u, 1.0)
    assert np.isclose(h1_data_norm(data), base + sobolev_norm(f, 1.0),
                      rtol=1e-12)
    assert np.isclose(h1_data_norm(data, integrated=True),
                      base + 0.4 * sobolev_norm(f, 1.0), rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), s=st.floats(0.0, 3.0))
def test_sobolev_norm_bounds_l2_from_above(seed, s):
    grid = sp.make_grid(1.0, 8)
    u = random_divfree(grid, seed=seed)
    assert sobolev_norm(u, s) >= sp.l2_norm(u) - 1e-12
