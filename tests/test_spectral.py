"""Operator calculus on the periodic grid: projections, potentials,
derivatives, and the oversampled sup norm."""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import spectral as sp
from nslab.divfree import spectral_sampler
from nslab.solver import _product_tensor
from nslab.spaces import sobolev_norm
from nslab.symmetry import _phase_shift

from conftest import random_divfree, random_scalar, random_vector

TOL = 1e-12


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# grid construction


def test_make_grid_rejects_odd_resolution():
    with pytest.raises(ValueError):
        sp.make_grid(1.0, 9)


def test_make_grid_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        sp.make_grid(1.0, 2)


def test_make_grid_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        sp.make_grid(0.0, 8)
    with pytest.raises(ValueError):
        sp.make_grid(-2.0, 8)


def test_grid_nodes_span_the_box(grid16):
    x, y, z = grid16.nodes()
    assert x.min() == 0.0
    assert np.isclose(x.max(), grid16.L - grid16.spacing)
    assert x.shape == grid16.shape


def test_cell_volume_sums_to_box_volume(grid16):
    assert np.isclose(grid16.cell_volume * grid16.N**3, grid16.L**3)


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_of_single_mode_is_exact(grid16):
    x = grid16.nodes()[0]
    k = 3
    f = sp.scalar_from_samples(grid16, np.sin(2.0 * np.pi * k * x))
    df = sp.derivative(f, 0)
    expected = 2.0 * np.pi * k * np.cos(2.0 * np.pi * k * x)
    assert np.max(np.abs(np.real(df.samples()) - expected)) < 1e-10


def test_second_derivative_matches_laplacian_on_1d_mode(grid16):
    y = grid16.nodes()[1]
    f = sp.scalar_from_samples(grid16, np.cos(2.0 * np.pi * 2 * y))
    d2 = sp.derivative(sp.derivative(f, 1), 1)
    lap = sp.laplacian(f)
    assert np.max(np.abs(d2.coeffs - lap.coeffs)) < TOL


def test_divergence_of_curl_vanishes(grid16):
    u = random_vector(grid16, seed=3)
    div = sp.divergence(sp.curl(u))
    assert sp.l2_norm(div) < TOL * sp.l2_norm(u)


def test_curl_of_gradient_vanishes(grid16):
    f = random_scalar(grid16, seed=4)
    g = sp.gradient(f)
    w = sp.curl(sp.vector_from_coeffs(grid16, g.coeffs))
    assert sp.l2_norm(w) < TOL * max(sp.l2_norm(f), 1.0)


# ---------------------------------------------------------------------------
# Fourier multipliers

MULTIPLIERS = {
    "apply_multiplier": lambda f: sp.apply_multiplier(
        f, np.cos(f.grid.k_squared())),
    "derivative": lambda f: sp.derivative(f, 1),
    "laplacian": sp.laplacian,
    "inverse_laplacian": sp.inverse_laplacian,
    "dealias": sp.dealias,
    "phase_shift": lambda f: _phase_shift(f, (0.1, 0.25, 0.7)),
}


@pytest.mark.parametrize("name", sorted(MULTIPLIERS))
def test_multipliers_act_on_each_component_alike(grid16, name):
    op = MULTIPLIERS[name]
    u = random_vector(grid16, seed=21)
    out = op(u)
    assert type(out) is sp.VectorField
    for i in range(3):
        comp = op(u.component(i))
        assert type(comp) is sp.ScalarField
        assert np.array_equal(out.coeffs[i], comp.coeffs)


# ---------------------------------------------------------------------------
# Leray projection


def test_leray_is_idempotent(grid16):
    u = random_vector(grid16, seed=5)
    once = sp.leray_project(u)
    twice = sp.leray_project(once)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < TOL * np.max(
        np.abs(once.coeffs)
    )


def test_leray_output_is_divergence_free(grid16):
    u = random_vector(grid16, seed=6)
    pu = sp.leray_project(u)
    assert sp.l2_norm(sp.divergence(pu)) < TOL * sp.l2_norm(pu)


def test_leray_is_self_adjoint(grid16):
    u = random_vector(grid16, seed=7)
    v = random_vector(grid16, seed=8)
    lhs = sp.l2_inner(sp.leray_project(u), v)
    rhs = sp.l2_inner(u, sp.leray_project(v))
    assert rel(lhs, rhs) < 1e-10


def test_leray_annihilates_gradients(grid16):
    f = random_scalar(grid16, seed=9)
    g = sp.leray_project(sp.gradient(f))
    assert sp.l2_norm(g) < TOL * max(sp.l2_norm(f), 1.0)


def test_leray_fixes_divergence_free_fields(grid16):
    u = random_divfree(grid16, seed=10)
    pu = sp.leray_project(sp.vector_from_coeffs(grid16, u.coeffs))
    assert np.max(np.abs(pu.coeffs - u.coeffs)) < TOL


# ---------------------------------------------------------------------------
# inverse Laplacian and the Biot-Savart law


def test_laplacian_inverse_is_identity_minus_mean(grid16):
    f = random_scalar(grid16, seed=11)
    back = sp.laplacian(sp.inverse_laplacian(f))
    expect = f.coeffs.copy()
    expect[0, 0, 0] = 0.0
    assert np.max(np.abs(back.coeffs - expect)) < TOL * np.max(np.abs(f.coeffs))


def test_inverse_laplacian_output_is_mean_zero(grid16):
    f = random_scalar(grid16, seed=12)
    assert abs(sp.inverse_laplacian(f).mean()) < TOL


def _biot_savart(omega):
    # curl(omega) = -Laplacian(u) for u mean-zero and divergence-free
    out = sp.inverse_laplacian(sp.curl(omega))
    return sp.vector_from_coeffs(out.grid, -out.coeffs)


def test_biot_savart_round_trip(grid16):
    u = random_divfree(grid16, seed=13)
    back = _biot_savart(sp.curl(u))
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-10 * np.max(
        np.abs(u.coeffs)
    )


def test_biot_savart_output_is_divergence_free(grid16):
    u = random_divfree(grid16, seed=14)
    v = _biot_savart(sp.curl(u))
    assert sp.l2_norm(sp.divergence(v)) < TOL


# ---------------------------------------------------------------------------
# norms and sampling


def test_l2_norm_matches_quadrature(grid16):
    f = random_scalar(grid16, seed=17)
    s = np.real(f.samples())
    quad = np.sqrt(np.sum(s**2) * grid16.cell_volume)
    assert rel(sp.l2_norm(f), quad) < 1e-12


def test_half_spectrum_sums_match_quadrature_on_all_planes(grid16):
    # no dealiasing: the kz = 0 and kz = N/2 planes, which count once in
    # the Hermitian weight, carry energy too
    N = grid16.N
    pairs = (
        (random_scalar(grid16, seed=30, kmax=N),
         random_scalar(grid16, seed=31, kmax=N)),
        (random_vector(grid16, seed=32, kmax=N),
         random_vector(grid16, seed=33, kmax=N)),
    )
    dv = grid16.cell_volume
    for a, b in pairs:
        for plane in (0, N // 2):
            assert np.max(np.abs(a.coeffs[..., plane])) > 1e-3 * np.max(
                np.abs(a.coeffs))
        sa, sb = a.samples(), b.samples()
        quad = np.sqrt(np.sum(sa * sa) * dv)
        assert rel(sp.l2_norm(a), quad) < 1e-13
        assert rel(sobolev_norm(a, 0.0), quad) < 1e-13
        assert rel(sp.l2_inner(a, b), np.sum(sa * sb) * dv) < 1e-13


def test_sup_norm_of_single_mode_is_its_amplitude(grid16):
    x = grid16.nodes()[0]
    f = sp.scalar_from_samples(grid16, 0.75 * np.sin(2.0 * np.pi * x))
    # the node values miss the crest; the oversampled norm must not
    assert np.isclose(sp.sup_norm(f, factor=8), 0.75, rtol=1e-3)


def test_sup_norm_dominates_node_values(grid16):
    u = random_vector(grid16, seed=18)
    node_max = float(np.max(np.linalg.norm(np.real(u.samples()), axis=0)))
    assert sp.sup_norm(u) >= node_max - 1e-12


def test_sup_norm_agrees_with_dense_point_evaluation(grid8):
    u = random_divfree(grid8, seed=19)
    sampler = spectral_sampler(u)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, grid8.L, size=(4000, 3))
    dense = float(np.max(np.linalg.norm(sampler(pts), axis=1)))
    s = sp.sup_norm(u, factor=8)
    assert s >= dense - 1e-12
    assert s <= 1.05 * dense + 1e-12


def _oversampled_half(half, N, M):
    """Zero-pad a half spectrum (..., N, N, N/2+1) to the half spectrum
    (..., M, M, M/2+1) of M > N points per axis, whose irfftn the sup norm
    must reproduce.

    The +N/2 coefficient of each axis is shared evenly between the +-N/2
    bins of the padded spectrum so that Hermitian symmetry is preserved;
    on the last axis only the +N/2 bin lies in the padded half.  The
    self-conjugate planes kz = 0 and kz = N/2 are padded as the Hermitian
    parts that ``irfftn`` sees of them at N points.
    """
    h = N // 2
    planes = half[..., ::h]
    herm = np.empty_like(planes)
    sp._conj_negated(planes, herm, ((slice(None), slice(None)),))
    herm += planes
    herm *= 0.5
    out = np.zeros(half.shape[:-3] + (M, M, M // 2 + 1), dtype=complex)
    blocks = ((slice(0, h + 1), slice(0, h + 1)), (slice(M - h, M), slice(h, N)))
    for dx, sx in blocks:
        for dy, sy in blocks:
            out[..., dx, dy, 1:h] = half[..., sx, sy, 1:h]
            out[..., dx, dy, : h + 1 : h] = herm[..., sx, sy, :]
    for nyq in (h, M - h):
        out[..., nyq, :, :] *= 0.5
        out[..., :, nyq, :] *= 0.5
    out[..., :, :, h] *= 0.5
    return out


# the full padded reference at 256^3 or 384^3 points would take 0.4-1.4 GB
@pytest.mark.parametrize("kind", ["vector", "scalar"])
@pytest.mark.parametrize("N,factor", [(N, factor) for N in (8, 16, 32, 48)
                                      for factor in (2, 3, 8)
                                      if N * factor <= 144])
def test_sup_norm_equals_the_max_of_the_pointwise_lengths(N, factor, kind):
    # sup_norm pads and inverts one axis and one component at a time, then
    # takes one sqrt of the largest squared length; it must give the max of
    # the pointwise lengths of the full padded irfftn as the same float.
    # The random half spectrum has nonzero Nyquist rows and kz = 0 and N/2
    # planes that are not Hermitian
    grid = sp.make_grid(1.0, N)
    rng = np.random.default_rng(N * factor)
    shape = ((3,) if kind == "vector" else ()) + grid.spectral_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    M = factor * N
    s = scipy.fft.irfftn(_oversampled_half(c, N, M),
                         s=(M, M, M), axes=(-3, -2, -1)) * M**3
    if kind == "vector":
        f = sp.vector_from_coeffs(grid, c)
        expect = np.max(np.sqrt(np.sum(s * s, axis=0)))
    else:
        f = sp.scalar_from_coeffs(grid, c)
        expect = np.max(np.abs(s))
    assert sp.sup_norm(f, factor=factor) == float(expect)


def test_sup_norm_holds_few_oversampled_temporaries(grid32):
    # padded and inverted one component at a time, with only the running
    # sum of squares kept between components, a call holds at most five
    # arrays the size of the (2N)^3 samples
    u = random_vector(grid32, seed=32)
    sp.sup_norm(u)
    tracemalloc.start()
    try:
        sp.sup_norm(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (2 * grid32.N) ** 3 * 8


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("N", [16, 48, 64])
def test_in_place_inverse_keeps_the_bits_of_irfftn(N, dtype):
    # the x and y passes run in the input, then the z pass and the 1/N^3,
    # which is not exact in binary at N = 48; the random kz = 0 and N/2
    # planes are not Hermitian
    rng = np.random.default_rng(N)
    shape = (N, N, N // 2 + 1)
    h = (rng.standard_normal(shape)
         + 1j * rng.standard_normal(shape)).astype(dtype)
    expect = scipy.fft.irfftn(h, s=(N, N, N))
    got = sp._irfftn_in_place(h.copy())
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("N", [8, 48])
def test_samples_give_exactly_hermitian_self_conjugate_planes(N):
    grid = sp.make_grid(1.0, N)
    s = np.random.default_rng(25).standard_normal((3,) + grid.shape)
    c = sp.vector_from_samples(grid, s).coeffs
    ref = np.fft.rfftn(s, axes=(1, 2, 3)) / N**3
    assert np.max(np.abs(c - ref)) < 1e-15 * np.max(np.abs(ref))
    for plane in (c[..., 0], c[..., N // 2]):
        mirror = np.roll(np.conj(plane[:, ::-1, ::-1]), 1, axis=(1, 2))
        assert np.array_equal(plane, mirror)


def test_samples_round_trip(grid16):
    f = random_scalar(grid16, seed=20)
    g = sp.scalar_from_samples(grid16, np.real(f.samples()))
    assert np.max(np.abs(g.coeffs - f.coeffs)) < TOL


# ---------------------------------------------------------------------------
# dealiasing and products


def test_dealias_is_idempotent(grid16):
    f = random_scalar(grid16, seed=21)
    once = sp.dealias(f)
    twice = sp.dealias(once)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) == 0.0


def test_dealias_keeps_low_modes(grid16):
    x = grid16.nodes()[0]
    f = sp.scalar_from_samples(grid16, np.cos(2.0 * np.pi * 2 * x))
    g = sp.dealias(f)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < TOL


def _multiply(f, g):
    """The solver's dealiased product of two scalar fields: slot (0, 0) of
    its product tensor is u_0 v_0."""
    fs, gs = np.real(f.samples()), np.real(g.samples())
    phat = _product_tensor(np.stack([fs] * 3), np.stack([gs] * 3),
                           sp._keep_mask(f.grid))
    return sp.scalar_from_coeffs(f.grid, phat[0])


def test_multiply_matches_dealiased_pointwise_product(grid16):
    f = random_scalar(grid16, seed=22, kmax=4)
    g = random_scalar(grid16, seed=23, kmax=4)
    prod = _multiply(f, g)
    manual = sp.dealias(sp.scalar_from_samples(
        grid16, np.real(f.samples()) * np.real(g.samples())
    ))
    assert np.max(np.abs(prod.coeffs - manual.coeffs)) < TOL


def test_multiply_is_exact_for_well_separated_bands(grid16):
    # k=2 times k=3 stays below the two-thirds cutoff, so no information
    # is lost and the product is the exact pointwise one
    x = grid16.nodes()[0]
    f = sp.scalar_from_samples(grid16, np.cos(2.0 * np.pi * 2 * x))
    g = sp.scalar_from_samples(grid16, np.cos(2.0 * np.pi * 3 * x))
    prod = _multiply(f, g)
    expect = 0.5 * (np.cos(2.0 * np.pi * 5 * x) + np.cos(2.0 * np.pi * x))
    assert np.max(np.abs(np.real(prod.samples()) - expect)) < 1e-12


# ---------------------------------------------------------------------------
# field io


def test_write_read_round_trip(tmp_path, grid16):
    u = random_divfree(grid16, seed=24)
    path = os.path.join(tmp_path, "field.dat")
    sp.write_field(path, u, time=0.25)
    v, t = sp.read_field(path)
    assert t == 0.25
    assert v.grid == grid16
    assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-13 * np.max(np.abs(u.coeffs))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), scale=st.floats(0.1, 10.0))
def test_l2_norm_is_homogeneous(seed, scale):
    grid = sp.make_grid(1.0, 8)
    u = random_vector(grid, seed=seed)
    v = sp.vector_from_coeffs(grid, scale * u.coeffs)
    assert rel(sp.l2_norm(v), scale * sp.l2_norm(u)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_leray_never_increases_the_l2_norm(seed):
    grid = sp.make_grid(1.0, 8)
    u = random_vector(grid, seed=seed)
    assert sp.l2_norm(sp.leray_project(u)) <= sp.l2_norm(u) + 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_leray_is_linear(seed, a, b):
    grid = sp.make_grid(1.0, 8)
    u = random_vector(grid, seed=seed)
    v = random_vector(grid, seed=seed + 1)
    combo = sp.leray_project(
        sp.vector_from_coeffs(grid, a * u.coeffs + b * v.coeffs)
    )
    parts = (a * sp.leray_project(u).coeffs + b * sp.leray_project(v).coeffs)
    scale = max(np.max(np.abs(parts)), 1e-300)
    assert np.max(np.abs(combo.coeffs - parts)) < 1e-11 * scale
