"""Dyadic frequency projections: partition of unity, band supports, and
Bernstein-type ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import spectral as sp
from nslab.lp import (
    DyadicBand,
    LPBumpProfile,
    bernstein_check,
    covering_bands,
    dyadic_bands,
    lp_project,
)

from conftest import random_divfree, random_scalar


def test_dyadic_band_accepts_negative_powers():
    assert DyadicBand(0.25).j == -2
    assert DyadicBand(8.0).j == 3


def test_dyadic_band_rejects_non_powers_of_two():
    with pytest.raises(ValueError):
        DyadicBand(3.0)


def test_profile_psi_is_supported_on_the_annulus():
    prof = LPBumpProfile()
    r = np.linspace(0.0, 4.0, 801)
    psi = prof.psi(r)
    assert np.all(psi[r <= 0.5] == 0.0)
    assert np.all(psi[r >= 2.0] == 0.0)
    assert np.max(psi) > 0.9


def test_partition_of_unity_reconstructs_fields(grid32):
    u = random_divfree(grid32, seed=1)
    total = np.zeros_like(u.coeffs)
    for band in covering_bands(grid32):
        total = total + lp_project(u, band).coeffs
    total[:, 0, 0, 0] += u.coeffs[:, 0, 0, 0]  # the mean sits below all bands
    assert np.max(np.abs(total - u.coeffs)) < 1e-10 * np.max(np.abs(u.coeffs))


def test_partition_of_unity_reconstructs_scalars(grid16):
    f = random_scalar(grid16, seed=2)
    total = np.zeros_like(f.coeffs)
    for band in covering_bands(grid16):
        total = total + lp_project(f, band).coeffs
    total[0, 0, 0] += f.coeffs[0, 0, 0]
    assert np.max(np.abs(total - f.coeffs)) < 1e-10 * np.max(np.abs(f.coeffs))


def test_at_most_plus_above_is_identity(grid16):
    u = random_divfree(grid16, seed=3)
    low = lp_project(u, 2.0, "at_most")
    high = lp_project(u, 2.0, "above")
    assert np.max(np.abs(low.coeffs + high.coeffs - u.coeffs)) < 1e-12


def test_unknown_projection_kind_raises(grid16):
    u = random_divfree(grid16, seed=4)
    with pytest.raises(ValueError):
        lp_project(u, 2.0, "sideways")


def test_band_projection_is_band_limited(grid16):
    u = random_divfree(grid16, seed=5)
    band = DyadicBand(2.0)
    pu = lp_project(u, band)
    kk = np.sqrt(grid16.k_squared()) / grid16.L
    outside = (kk < band.N / 2.0) | (kk > 2.0 * band.N)
    assert np.max(np.abs(pu.coeffs[:, outside])) == 0.0


def test_neighbouring_bands_overlap_only_once(grid16):
    # P_N and P_{4N} have disjoint supports, so their product vanishes
    u = random_divfree(grid16, seed=6)
    a = lp_project(u, 1.0)
    b = lp_project(a, 4.0)
    assert np.max(np.abs(b.coeffs)) == 0.0


def test_dyadic_bands_respect_the_dealias_bound(grid32):
    bands = dyadic_bands(grid32)
    assert bands[0].N == 2.0
    assert all(b.N <= grid32.N / 3.0 for b in bands)
    assert len(bands) >= 2


def test_bernstein_flags_empty_bands(grid16):
    x = grid16.nodes()[0]
    f = sp.scalar_from_samples(grid16, np.sin(2.0 * np.pi * x))
    out = bernstein_check(f, 64.0, 2, np.inf)
    assert out.get("empty") is True


def test_bernstein_gradient_ratio_within_band_limits(grid16):
    # a field in band N has frequencies in [N/2, 2N], so the L2 gradient
    # ratio must land in [pi, 4 pi]
    u = random_divfree(grid16, seed=7)
    out = bernstein_check(u, 2.0, 2, 2)
    assert not out.get("empty")
    assert np.pi <= out["gradient_ratio"] <= 4.0 * np.pi


def test_bernstein_embedding_ratio_is_scale_free(grid16):
    u = random_divfree(grid16, seed=8)
    out_a = bernstein_check(u, 2.0, 2, np.inf)
    v = sp.vector_from_coeffs(grid16, 5.0 * u.coeffs)
    out_b = bernstein_check(v, 2.0, 2, np.inf)
    assert np.isclose(out_a["embedding_ratio"], out_b["embedding_ratio"], rtol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500))
def test_projections_never_increase_l2(seed):
    grid = sp.make_grid(1.0, 8)
    u = random_divfree(grid, seed=seed)
    for band in dyadic_bands(grid):
        assert sp.l2_norm(lp_project(u, band)) <= sp.l2_norm(u) + 1e-12
