"""Divergence-free truncation to an annulus and the point samplers."""

import numpy as np
import pytest
from scipy.special import sph_harm_y

from nslab import divfree
from nslab import spectral as sp
from nslab.divfree import (
    AnnulusSpec,
    flux_check,
    localize_divfree,
    spectral_sampler,
    to_torus_field,
)
from nslab.spaces import sobolev_norm

from conftest import random_divfree, random_vector

CENTER = (0.5, 0.5, 0.5)
SPEC = AnnulusSpec(0.08, 0.16, 0.30, 0.40, CENTER)


def smooth_field(grid, seed=0, amplitude=1.0):
    return random_divfree(grid, seed=seed, kmax=4, slope=-2.5,
                          amplitude=amplitude)


# ---------------------------------------------------------------------------
# annulus validation


def test_annulus_radii_must_increase():
    with pytest.raises(ValueError):
        AnnulusSpec(0.2, 0.1, 0.3, 0.4)
    with pytest.raises(ValueError):
        AnnulusSpec(0.0, 0.1, 0.3, 0.4)


def test_annulus_cutoff_profile():
    spec = AnnulusSpec(0.1, 0.2, 0.3, 0.4)
    assert np.allclose(spec.eta(np.array([0.12, 0.2])), 1.0)
    assert np.all(spec.eta(np.array([0.3, 0.35])) == 0.0)


# ---------------------------------------------------------------------------
# point samplers


def test_spectral_sampler_reproduces_grid_nodes(grid16):
    u = smooth_field(grid16, seed=1)
    sampler = spectral_sampler(u)
    nodes = np.stack(grid16.nodes(), axis=-1).reshape(-1, 3)[:200]
    got = sampler(nodes)
    expect = np.real(u.samples()).reshape(3, -1).T[:200]
    assert np.max(np.abs(got - expect)) < 1e-12


def test_spectral_sampler_matches_the_full_lattice_sum(grid8):
    u = random_divfree(grid8, seed=6, kmax=3)
    N = grid8.N
    full = np.fft.fftn(u.samples(), axes=(1, 2, 3)) / N**3
    k = np.fft.fftfreq(N, d=1.0 / N)
    kvec = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.random.default_rng(1).uniform(0.0, grid8.L, size=(50, 3))
    phase = np.exp(2.0j * np.pi * (pts @ kvec.T) / grid8.L)
    expect = np.real(phase @ full.reshape(3, -1).T)
    got = spectral_sampler(u)(pts)
    assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


def test_spectral_sampler_is_periodic(grid16):
    u = smooth_field(grid16, seed=2)
    sampler = spectral_sampler(u)
    pts = np.array([[0.13, 0.57, 0.91]])
    assert np.max(np.abs(sampler(pts) - sampler(pts + grid16.L))) < 1e-12


def test_flux_through_spheres_vanishes_for_divfree_fields(grid16):
    u = smooth_field(grid16, seed=4)
    sampler = spectral_sampler(u)
    for r in (0.12, 0.25, 0.38):
        flux = flux_check(sampler, r, center=CENTER, l_max=24)
        assert abs(flux) < 1e-10


# ---------------------------------------------------------------------------
# the truncation itself


@pytest.fixture(scope="module")
def localized(grid32):
    u = smooth_field(grid32, seed=5)
    sph = localize_divfree(spectral_sampler(u), SPEC, l_max=24)
    return u, sph


def test_truncation_agrees_on_the_inner_annulus(localized):
    u, sph = localized
    sampler = spectral_sampler(u)
    rng = np.random.default_rng(1)
    # random points with radii inside [R1, R2]
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(SPEC.R1, SPEC.R2, size=(200, 1))
    pts = np.asarray(CENTER) + dirs * radii
    err = np.max(np.abs(sph.evaluate(pts) - sampler(pts)))
    scale = np.max(np.abs(sampler(pts)))
    assert err < 1e-6 * scale


def test_truncation_vanishes_on_the_outer_annulus(localized):
    u, sph = localized
    rng = np.random.default_rng(2)
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(SPEC.R3, SPEC.R4, size=(200, 1))
    pts = np.asarray(CENTER) + dirs * radii
    vals = sph.evaluate(pts)
    scale = max(float(np.max(np.abs(sph.a))), 1e-300)
    # the radial interpolation of the cutoff profile leaves a ringing
    # floor well below the per-mille level the construction promises
    assert np.max(np.abs(vals)) < 1e-6 * max(scale, 1.0)


def test_truncation_stays_divergence_free(localized):
    _, sph = localized
    assert sph.divergence_defect() < 1e-6
    assert sph.flux_fraction < 1e-8
    assert sph.tail_fraction() < 1e-6


def test_truncation_is_linear(grid32):
    a = smooth_field(grid32, seed=6)
    b = smooth_field(grid32, seed=7)
    combo = sp.vector_from_coeffs(grid32, 2.0 * a.coeffs - 0.5 * b.coeffs)
    sph_a = localize_divfree(spectral_sampler(a), SPEC, l_max=24)
    sph_b = localize_divfree(spectral_sampler(b), SPEC, l_max=24)
    sph_c = localize_divfree(spectral_sampler(combo), SPEC, l_max=24)
    expect = 2.0 * sph_a.a - 0.5 * sph_b.a
    scale = max(float(np.max(np.abs(expect))), 1e-300)
    assert np.max(np.abs(sph_c.a - expect)) < 1e-10 * scale
    expect_B = 2.0 * sph_a.B - 0.5 * sph_b.B
    assert np.max(np.abs(sph_c.B - expect_B)) < 1e-10 * max(
        float(np.max(np.abs(expect_B))), 1e-300)


def test_truncation_rejects_divergent_input(grid16):
    v = random_vector(grid16, seed=8, kmax=4)
    assert sp.l2_norm(sp.divergence(v)) > 1e-6
    with pytest.raises(ValueError, match="divergence-free|flux"):
        localize_divfree(spectral_sampler(v), SPEC, l_max=24)


def test_truncation_flags_unresolved_angular_content(grid32):
    u = smooth_field(grid32, seed=9)
    with pytest.raises(ValueError):
        localize_divfree(spectral_sampler(u), SPEC, l_max=4)


def test_torus_realisation_interpolates_the_annulus_field(localized):
    u, sph = localized
    grid = sp.make_grid(1.0, 16)
    back = to_torus_field(sph, grid)
    assert sobolev_norm(back, 0.0) > 0.0
    # band-limited realisation passes through the annulus values at the
    # grid nodes exactly
    nodes = np.stack(grid.nodes(), axis=-1).reshape(-1, 3)
    expect = sph.evaluate(nodes).T.reshape((3,) + grid.shape)
    got = np.real(back.samples())
    assert np.max(np.abs(got - expect)) < 1e-12


# ---------------------------------------------------------------------------
# the harmonics sweep against one sph_harm_y call per (l, m)


def per_pair_tables(pairs, theta, phi):
    """Y_lm and the ladder term A_lm Y_{l-1,m} of each pair, one
    sph_harm_y call per (l, m); the reference for the single sweep."""
    table = {(l, m): sph_harm_y(l, m, theta, phi) for l, m in pairs}
    ladder = []
    for l, m in pairs:
        A = np.sqrt((2.0 * l + 1.0) / max(2.0 * l - 1.0, 1.0)
                    * (l * l - m * m))
        ladder.append(A * table.get((l - 1, m),
                                    np.zeros(len(theta), dtype=complex)))
    return np.array([table[p] for p in pairs]), np.array(ladder)


def per_pair_synthesis(sph, points):
    """SphericalField.evaluate at points inside the annulus, summed pair by
    pair from per-(l, m) harmonics."""
    p = points - sph.center
    rl = np.clip(np.linalg.norm(p, axis=1), sph.r_nodes[0], sph.r_nodes[-1])
    theta = np.arccos(np.clip(p[:, 2] / rl, -1.0, 1.0))
    phi = np.arctan2(p[:, 1], p[:, 0])
    a_q, B_q, C_q = (divfree._barycentric_interp(sph.r_nodes, c, rl)
                     for c in (sph.a, sph.B, sph.C))
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    sin_safe = np.where(sin_t > 1e-12, sin_t, 1.0)
    Y, ladder = per_pair_tables(sph.basis.pairs, theta, phi)
    u = np.zeros((3, len(p)), dtype=complex)
    for i, (l, m) in enumerate(sph.basis.pairs):
        dY = (l * cos_t * Y[i] - ladder[i]) / sin_safe
        mY = 1j * m * Y[i] / sin_safe
        u[0] += a_q[:, i] * Y[i]
        u[1] += B_q[:, i] * dY - C_q[:, i] * mY
        u[2] += B_q[:, i] * mY + C_q[:, i] * dY
    frames = (
        np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t]),
        np.column_stack([cos_t * np.cos(phi), cos_t * np.sin(phi), -sin_t]),
        np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)]),
    )
    return (np.real(u[0])[:, np.newaxis] * frames[0]
            + np.real(u[1])[:, np.newaxis] * frames[1]
            + np.real(u[2])[:, np.newaxis] * frames[2])


@pytest.mark.parametrize("l_max", [8, 24, 32])
def test_harmonics_sweep_matches_per_pair_calls_bit_for_bit(l_max):
    basis = divfree._SphereBasis(l_max, l_max + 1, 2 * l_max + 2)
    rng = np.random.default_rng(l_max)
    # the poles, the equator and random directions
    theta = np.concatenate([[0.0, np.pi, np.pi / 2], rng.uniform(0, np.pi, 40)])
    phi = np.concatenate([[0.0, 1.0, -2.5], rng.uniform(-np.pi, np.pi, 40)])
    ls, ms, Y, ladder = divfree._harmonics(l_max, theta, phi)
    assert list(zip(ls.tolist(), ms.tolist())) == basis.pairs
    Y_ref, ladder_ref = per_pair_tables(basis.pairs, theta, phi)
    assert Y.tobytes() == Y_ref.tobytes()
    assert ladder.tobytes() == ladder_ref.tobytes()
    # the analysis tables of the basis, at phi = 0
    Y0, ladder0 = per_pair_tables(basis.pairs, basis.theta, 0.0)
    sin_t, cos_t = np.sin(basis.theta), np.cos(basis.theta)
    dY0 = np.array([(l * cos_t * Y0[i] - ladder0[i]) / sin_t
                    for i, (l, m) in enumerate(basis.pairs)])
    mY0 = np.array([1j * m * Y0[i] / sin_t
                    for i, (l, m) in enumerate(basis.pairs)])
    assert basis.Y0_conj.tobytes() == np.conj(Y0).tobytes()
    assert basis.dY0_conj.tobytes() == np.conj(dY0).tobytes()
    assert basis.mY0_conj.tobytes() == np.conj(mY0).tobytes()


def test_chunked_synthesis_matches_the_per_pair_sum_bit_for_bit(
        localized, monkeypatch):
    _, sph = localized
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((150, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # both poles, then random points across the whole annulus
    dirs[:2] = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    pts = np.asarray(CENTER) + dirs * rng.uniform(SPEC.R1, SPEC.R4, (150, 1))
    expect = per_pair_synthesis(sph, pts)
    for chunk in (divfree._EVAL_CHUNK, 64, 7):
        monkeypatch.setattr(divfree, "_EVAL_CHUNK", chunk)
        assert sph.evaluate(pts).tobytes() == expect.tobytes()
