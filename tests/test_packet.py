"""Oscillatory packet construction, the curvature pairing, and the
frequency sweep bookkeeping."""

import tracemalloc

import numpy as np
import pytest

from nslab import packet
from nslab import spectral as sp
from nslab.bumps import radial_bump
from nslab.packet import (
    GrowthTable,
    WavePacketSpec,
    growth_study,
    leading_order,
    mass_one_bump,
    pairing_from_spec,
    wave_packet,
    x0_pairing,
)
from nslab.spaces import sobolev_norm


@pytest.fixture(scope="module")
def norm_grid():
    return sp.make_grid(4.5, 48)


@pytest.fixture(scope="module")
def pairing_grid():
    return sp.make_grid(9.0, 96)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        WavePacketSpec(n=0)
    with pytest.raises(ValueError):
        WavePacketSpec(n=2, xi=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        WavePacketSpec(n=2, component=5)
    with pytest.raises(ValueError, match="must be positive"):
        WavePacketSpec(n=2, psi_radius=0.0)


def test_with_n_keeps_the_rest_of_the_spec():
    spec = WavePacketSpec(n=2, psi_radius=0.5)
    other = spec.with_n(7)
    assert other.n == 7
    assert other.psi_radius == 0.5
    assert other.xi == spec.xi


def test_resolution_guard_rejects_fast_carriers(pairing_grid):
    with pytest.raises(ValueError, match="wavelength"):
        wave_packet(WavePacketSpec(n=64), pairing_grid)


def test_resolution_guard_rejects_small_boxes():
    tiny = sp.make_grid(2.0, 64)
    with pytest.raises(ValueError, match="box too small"):
        wave_packet(WavePacketSpec(n=2), tiny)


def test_pairing_needs_a_wide_box(norm_grid):
    with pytest.raises(ValueError, match="at least 8"):
        pairing_from_spec(WavePacketSpec(n=2), norm_grid)


# ---------------------------------------------------------------------------
# the packet itself


def test_packet_is_divergence_free(norm_grid):
    u = wave_packet(WavePacketSpec(n=3), norm_grid)
    assert sp.l2_norm(sp.divergence(u)) < 1e-10 * sp.l2_norm(u)


def test_leading_order_remainder_shrinks_like_n_to_minus_five_halves(
        norm_grid):
    spec = WavePacketSpec(n=2)
    scaled = []
    for n in (2, 3, 4):
        u = wave_packet(spec.with_n(n), norm_grid)
        lead = leading_order(spec.with_n(n), norm_grid)
        rem = sp.l2_norm(sp.vector_from_coeffs(norm_grid,
                                               u.coeffs - lead.coeffs))
        scaled.append(rem * float(n) ** 2.5)
    scaled = np.array(scaled)
    # the prefactor of the subleading term is n-independent
    assert np.max(scaled) / np.min(scaled) < 1.15


def test_mass_one_bump_has_unit_mass(norm_grid):
    psi = mass_one_bump(norm_grid)
    mass = float(np.real(psi.samples()).sum()) * norm_grid.cell_volume
    assert np.isclose(mass, 1.0, rtol=1e-12)
    # supported in the prescribed ball
    L = norm_grid.L
    wrapped = [(x + L / 2.0) % L - L / 2.0 for x in norm_grid.nodes()]
    r = np.sqrt(sum(x ** 2 for x in wrapped))
    vals = np.real(psi.samples())
    assert np.max(np.abs(vals[r > 0.7 + 1e-9])) < 1e-12


@pytest.mark.parametrize("center", [(1.8, 0.0, 0.0), (8.95, 4.5, 0.3)],
                         ids=["inside", "wrapping"])
def test_samples_on_the_support_box_match_the_full_grid(center):
    # the full-grid evaluation is the reference, bit for bit
    grid = sp.make_grid(9.0, 48)
    dx = packet._centered_offsets(grid, center)
    rad = np.sqrt(sum(d * d for d in dx))
    raw = radial_bump(rad / 0.7)
    raw /= np.sum(raw, dtype=np.float64) * grid.cell_volume
    assert np.array_equal(packet._bump_samples(grid, center, 0.7), raw)
    spec = WavePacketSpec(n=3, x0=center)
    full = radial_bump(rad, flat=0.0) * np.sin(
        spec.n * sum(x * d for x, d in zip(spec.xi, dx)))
    assert np.array_equal(packet._stream_samples(spec, grid), full)


# ---------------------------------------------------------------------------
# the pairing


def test_lean_pairing_matches_the_generic_one(pairing_grid):
    spec = WavePacketSpec(n=4)
    lean = pairing_from_spec(spec, pairing_grid)
    u = wave_packet(spec, pairing_grid)
    psi = mass_one_bump(pairing_grid, spec.psi_center, spec.psi_radius)
    generic = x0_pairing(u, psi, spec.component)
    assert abs(lean - generic) < 1e-5 * abs(generic)


def _traced_peak(fn, *args):
    """The traced memory peak of fn(*args) above what was held before it,
    after a first call has filled the caches of the mode lattices."""
    fn(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_pairing_holds_few_full_size_temporaries():
    # the inverses overwrite their half spectra, the last Laplacian
    # component and the last kernel are built in the spectrum they start
    # from, and the Laplace symbol is applied one x-plane at a time; in
    # units of one real N^3 float32 array, the peaks include the results
    # (three samples, six kernels)
    grid = sp.make_grid(9.0, 64)
    spec = WavePacketSpec(n=4)
    unit = 4 * grid.N ** 3
    assert _traced_peak(packet._packet_laplacian, spec, grid) <= 4.25 * unit
    assert _traced_peak(packet._bump_kernels, spec, grid) <= 7.25 * unit


def test_pairing_rejects_mismatched_grids(norm_grid, pairing_grid):
    u = wave_packet(WavePacketSpec(n=2), pairing_grid)
    psi = mass_one_bump(norm_grid)
    with pytest.raises(ValueError, match="share a grid"):
        x0_pairing(u, psi)


# ---------------------------------------------------------------------------
# the frequency sweep


def test_growth_study_rejects_degenerate_packets(norm_grid, pairing_grid):
    spec = WavePacketSpec(n=2, xi=(1.0, 0.0, 0.0), eta_dir=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="degenerate packet"):
        growth_study(spec, [2, 4], norm_grid, pairing_grid, 4)


def test_growth_study_is_consistent_with_single_runs(norm_grid, pairing_grid):
    spec = WavePacketSpec(n=2)
    table = growth_study(spec, [2, 4], norm_grid=norm_grid,
                         pairing_grid=pairing_grid, doubling_n=4)
    assert np.array_equal(table.n, [2.0, 4.0])
    u = wave_packet(spec.with_n(4), norm_grid)
    assert np.isclose(table.h1[1], sobolev_norm(u, 1.0), rtol=1e-12)
    assert np.isclose(table.h2[1], sobolev_norm(u, 2.0), rtol=1e-12)
    assert np.isclose(table.X0[1],
                      pairing_from_spec(spec.with_n(4), pairing_grid))
    expect = np.polyfit(np.log(table.n), np.log(np.abs(table.X0)), 1)[0]
    assert np.isclose(table.slope, expect)


@pytest.mark.parametrize("doubling_n", [4, 3], ids=["reused", "extra"])
def test_growth_study_pairs_like_standalone_runs(monkeypatch, norm_grid,
                                                 pairing_grid, doubling_n):
    spec = WavePacketSpec(n=2)
    doubled = sp.make_grid(2.0 * pairing_grid.L, pairing_grid.N)
    build, pair = packet._bump_kernels, packet.pairing_from_spec
    builds, pairings = [], []

    def counted_build(spec, grid):
        builds.append(grid.L)
        return build(spec, grid)

    def recorded_pair(spec, grid, kernels=None):
        pairings.append((spec.n, grid.L))
        return pair(spec, grid, kernels)

    monkeypatch.setattr(packet, "_bump_kernels", counted_build)
    monkeypatch.setattr(packet, "pairing_from_spec", recorded_pair)
    table = growth_study(spec, [2, 4], norm_grid, pairing_grid, doubling_n)
    monkeypatch.undo()
    # one kernel build per box; doubling_n is paired once on each box
    assert builds == [pairing_grid.L, doubled.L]
    extra = [(doubling_n, pairing_grid.L)] if doubling_n == 3 else []
    assert pairings == ([(2, pairing_grid.L), (4, pairing_grid.L)] + extra
                        + [(doubling_n, doubled.L)])
    for n, x0 in zip((2, 4), table.X0):
        assert x0 == pair(spec.with_n(n), pairing_grid)
    base = pair(spec.with_n(doubling_n), pairing_grid)
    other = pair(spec.with_n(doubling_n), doubled)
    assert table.doubling == abs(other - base) / abs(base)


def test_growth_table_round_trips_through_csv(tmp_path):
    table = GrowthTable(np.array([2.0, 4.0]), np.array([-1.5, -3.0]),
                        np.array([0.7, 0.5]), np.array([1.0, 1.4]),
                        slope=1.0, doubling=0.01)
    path = tmp_path / "growth.csv"
    table.to_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(back[:, 1], table.X0)
    gp = tmp_path / "growth.dat"
    table.to_gnuplot(gp)
    text = gp.read_text()
    assert "slope 1.000000" in text
    assert len(text.strip().splitlines()) == 4
