"""The transform group acting on data and on streams of states, plus the
oscillatory-shift pairing decay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import spectral as sp
from nslab.estimates import energy_identity
from nslab.solver import SolverConfig, evolve, pressured, residual
from nslab.spaces import DataTriple, energy
from nslab.symmetry import (
    Forcing,
    Galilean,
    Scale,
    SpaceTranslate,
    TimeTranslate,
    apply,
    state_map,
    weak_pairing_decay,
)

from conftest import images, random_divfree, random_scalar, rows_of, states


# ---------------------------------------------------------------------------
# constructors


def test_space_translate_needs_three_components():
    with pytest.raises(ValueError):
        SpaceTranslate((0.1, 0.2))


def test_scale_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        Scale(0.0)


def test_forcing_needs_samples():
    with pytest.raises(ValueError):
        Forcing(())


# ---------------------------------------------------------------------------
# spatial shifts


def test_space_translate_is_exact_on_a_sine(grid16):
    x = grid16.nodes()[0]
    samples = np.zeros((3,) + grid16.shape)
    samples[1] = np.sin(2.0 * np.pi * x)
    u = sp.vector_from_samples(grid16, samples)
    shift = 0.173  # deliberately off the grid
    data = DataTriple(u, [], 1.0)
    moved = apply(SpaceTranslate((shift, 0.0, 0.0)), data)
    expect = np.sin(2.0 * np.pi * (x - shift))
    got = np.real(moved.u0.samples())[1]
    assert np.max(np.abs(got - expect)) < 1e-12


def test_space_translate_preserves_norms(grid16):
    u = random_divfree(grid16, seed=1)
    data = DataTriple(u, [], 1.0)
    moved = apply(SpaceTranslate((0.31, 0.77, 0.05)), data)
    assert np.isclose(sp.l2_norm(moved.u0), sp.l2_norm(u), rtol=1e-13)


def test_space_translates_compose(grid16):
    u = random_divfree(grid16, seed=2)
    data = DataTriple(u, [], 1.0)
    a = apply(SpaceTranslate((0.1, 0.2, 0.3)),
              apply(SpaceTranslate((0.05, 0.1, 0.15)), data))
    b = apply(SpaceTranslate((0.15, 0.3, 0.45)), data)
    assert np.max(np.abs(a.u0.coeffs - b.u0.coeffs)) < 1e-13


# ---------------------------------------------------------------------------
# scaling


def test_scale_changes_period_and_horizon(grid16):
    u = random_divfree(grid16, seed=3)
    data = DataTriple(u, [], 0.5)
    lam = 2.0
    out = apply(Scale(lam), data)
    assert np.isclose(out.L, lam * data.L)
    assert np.isclose(out.T, lam**2 * data.T)


def test_scale_multiplies_energy_by_lambda(grid16):
    u = random_divfree(grid16, seed=4)
    data = DataTriple(u, [], 0.5)
    lam = 2.0
    out = apply(Scale(lam), data)
    assert np.isclose(energy(out), lam * energy(data), rtol=1e-12)


def test_scale_round_trips(grid16):
    u = random_divfree(grid16, seed=5)
    data = DataTriple(u, [], 0.5)
    back = apply(Scale(0.5), apply(Scale(2.0), data))
    assert np.max(np.abs(back.u0.coeffs - u.coeffs)) < 1e-14
    assert np.isclose(back.T, data.T)


# ---------------------------------------------------------------------------
# actions on the states of a stream


def small_traj(grid, seed=6, T=0.01, dt=1e-3, samples=0):
    """A short run, forced by the given number of forcing samples."""
    f = [random_divfree(grid, seed=seed + 20 + k, kmax=2)
         for k in range(samples)]
    data = DataTriple(random_divfree(grid, seed=seed, kmax=3), f, T)
    return data, evolve(data, SolverConfig(dt=dt))


def image_of(tr, data, traj):
    """The image under tr of the stream of traj's states with their
    pressures, as a list."""
    return list(images(tr, pressured(states(traj), data), traj.times))


def test_time_translate_rejects_data(grid16):
    u = random_divfree(grid16, seed=7)
    with pytest.raises(ValueError):
        apply(TimeTranslate(0.1), DataTriple(u, [], 1.0))


def test_time_translate_shifts_the_clock(grid16):
    data, traj = small_traj(grid16)
    t0 = float(traj.times[4])
    out = image_of(TimeTranslate(t0), data, traj)
    assert out[0][0] == 0.0
    assert len(out) == len(traj) - 4
    assert np.max(np.abs(out[0][1].coeffs
                         - traj.velocities[4].coeffs)) == 0.0


def test_time_translate_outside_range_raises(grid16):
    _, traj = small_traj(grid16)
    with pytest.raises(ValueError):
        state_map(TimeTranslate(traj.times[-1] * 3.0), traj.times)


def test_pressure_shift_touches_only_the_mean(grid16):
    # the pressure gauge p -> p + C is the forcing gauge of the constant C,
    # whose gradient, the forcing it adds, is exactly zero
    data, traj = small_traj(grid16)
    c = np.zeros(grid16.spectral_shape, dtype=complex)
    c[0, 0, 0] = 2.5
    out = image_of(Forcing([sp.scalar_from_coeffs(grid16, c)]), data, traj)
    for (_, _, p, _, _), (_, _, q, _, f) in zip(
            pressured(states(traj), data), out):
        diff = q.coeffs - p.coeffs
        assert np.isclose(diff[0, 0, 0], 2.5)
        diff[0, 0, 0] = 0.0
        assert np.max(np.abs(diff)) == 0.0
        assert np.max(np.abs(f.coeffs)) == 0.0


def test_galilean_sets_the_linear_pressure_part(grid16):
    data, traj = small_traj(grid16)
    vdot = np.array([0.2, -0.1, 0.05])
    out = image_of(Galilean(np.tile(vdot, (5, 1)) * traj.times[-1],
                            v_dot=np.tile(vdot, (5, 1))), data, traj)
    assert len(out) == len(traj)
    for _, _, _, a, _ in out:
        assert np.allclose(a, -vdot, atol=1e-12)


def test_galilean_constant_speed_adds_a_mean(grid16):
    data, traj = small_traj(grid16)
    v = np.array([0.3, 0.0, -0.2])
    for _, u, *_ in image_of(Galilean(v), data, traj):
        assert np.allclose(np.real(u.mean()), v, atol=1e-13)


# transforms by name, built on the run's grid, with the largest change of
# the residual profile each may make, relative to max(base, 1).  The
# central time difference sees the moving frame: an O(dt^2) change of
# 7.9e-5 for the boost, forced or not, where a forcing left unshifted
# makes 5.6e-3
STREAM_TRANSFORMS = {
    "space-translate": (lambda grid: SpaceTranslate((0.21, 0.13, 0.34)),
                        1e-9),
    "galilean": (lambda grid: Galilean([0.3, 0.0, -0.2]), 2e-4),
    "forcing": (lambda grid: Forcing([random_scalar(grid, seed=8, kmax=2)]),
                1e-9),
}


@pytest.mark.parametrize("samples", [0, 2], ids=["unforced", "forced"])
@pytest.mark.parametrize("name", sorted(STREAM_TRANSFORMS))
def test_transformed_trajectory_still_solves_the_equations(grid16, name,
                                                           samples):
    # each image state carries its own forcing, so the image stream's
    # residual needs no transformed problem data
    make, tol = STREAM_TRANSFORMS[name]
    data, traj = small_traj(grid16, T=0.01, dt=5e-4, samples=samples)
    base = residual(pressured(states(traj), data), 0.0)
    r = residual(image_of(make(grid16), data, traj), 0.0)
    change = float(np.max(np.abs(r - base)))
    assert change < tol * max(float(np.max(base)), 1.0), change


def test_transformed_streams_keep_the_energy_identity(grid16):
    # the global budget of a hyperdissipative run reads eps; a Scale(lam)
    # image keeps the equation's form only with eps * lam^2, and read with
    # eps its defect is 4.8e-2
    eps, dt = 1e-3, 1e-4
    data = DataTriple(random_divfree(grid16, seed=14, kmax=3), [], 0.01)
    traj = evolve(data, SolverConfig(dt=dt, eps=eps))
    for tr, tr_eps in ((SpaceTranslate((0.21, 0.13, 0.34)), eps),
                       (Scale(2.0), 4.0 * eps)):
        moved_data = apply(tr, data)
        moved = [(t, u) for t, u, *_ in image_of(tr, data, traj)]
        defect, _ = energy_identity(rows_of(moved, moved_data), tr_eps,
                                    moved_data)
        assert defect <= 1e-6
    scaled = [(t, u) for t, u, *_ in image_of(Scale(2.0), data, traj)]
    assert scaled[-1][0] == 4.0 * traj.times[-1]
    defect, _ = energy_identity(rows_of(scaled, apply(Scale(2.0), data)),
                                eps, apply(Scale(2.0), data))
    assert defect > 1e-3


def test_forcing_gauge_leaves_the_residual_unchanged(grid16):
    data, traj = small_traj(grid16, T=0.01, dt=5e-4)
    q = random_scalar(grid16, seed=8, kmax=2)
    r0 = float(np.max(residual(pressured(states(traj), data), 0.0)))
    # one sample per stored time, or one sample, constant in time
    for tr in (Forcing([q] * len(traj.times)), Forcing([q])):
        r1 = float(np.max(residual(image_of(tr, data, traj), 0.0)))
        assert abs(r1 - r0) < 1e-8 * max(r0, 1.0)


def test_forcing_gauge_of_one_sample_is_constant_in_time(grid16):
    f = [random_divfree(grid16, seed=20 + k, kmax=2) for k in range(3)]
    data = DataTriple(random_divfree(grid16, seed=19, kmax=2), f, 0.01)
    q = random_scalar(grid16, seed=8, kmax=2)
    one, each = apply(Forcing([q]), data), apply(Forcing([q] * 3), data)
    assert len(one.f) == 3
    for a, b in zip(one.f, each.f):
        assert np.array_equal(a.coeffs, b.coeffs)
    with pytest.raises(ValueError):
        apply(Forcing([q] * 2), data)


# ---------------------------------------------------------------------------
# oscillatory shifts and the pairing decay


def test_weak_pairing_decays_for_generic_directions(grid8):
    f = [random_divfree(grid8, seed=13, kmax=2)]
    phi = [random_divfree(grid8, seed=14, kmax=2)]
    alpha = (np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0))
    table = weak_pairing_decay(f, phi, alpha, [1.0, 100.0], T=1.0)
    assert table.min_phase > 0.0
    assert table.values[-1] < 0.5 * table.values[0]


def test_weak_pairing_stalls_for_rational_directions(grid8):
    # k . alpha integral for every mode: the phase never oscillates and
    # the pairing cannot decay
    f = [random_divfree(grid8, seed=15, kmax=2)]
    phi = [random_divfree(grid8, seed=16, kmax=2)]
    table = weak_pairing_decay(f, phi, (1.0, 1.0, 1.0), [1.0, 100.0], T=1.0)
    assert table.min_phase == 0.0
    assert np.isclose(table.values[-1], table.values[0], rtol=1e-6)


def test_weak_pairing_matches_the_full_lattice_sum(grid8):
    # |L^3 int_0^T sum_k f_hat(k) phi_hat(-k) e^{-2 pi i lam theta_k t^2}|
    # over all modes, with the trapezoid rule on 4002 nodes
    f = random_divfree(grid8, seed=18, kmax=3)
    phi = random_divfree(grid8, seed=19, kmax=3)
    alpha = np.array([np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0)])
    N = grid8.N
    fh, ph = (np.fft.fftn(v.samples(), axes=(1, 2, 3)) / N**3 for v in (f, phi))
    ph_neg = np.roll(np.flip(ph, axis=(1, 2, 3)), 1, axis=(1, 2, 3))
    g = np.sum(fh * ph_neg, axis=0).ravel()
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = N // 2
    ka = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1).reshape(-1, 3) @ alpha
    theta = ka - np.round(ka)
    t = np.linspace(0.0, 1.0, 4002)
    lambdas = [1.0, 3.0]
    table = weak_pairing_decay([f], [phi], alpha, lambdas, T=1.0)
    for lam, got in zip(lambdas, table.values):
        integrand = np.exp(-2j * np.pi * lam * np.outer(t**2, theta)) @ g
        expect = abs(grid8.L**3 * np.trapezoid(integrand, t))
        assert abs(got - expect) < 1e-12 * expect


def test_weak_pairing_rejects_nonzero_mean(grid8):
    u = random_divfree(grid8, seed=17, kmax=2)
    c = u.coeffs.copy()
    c[0, 0, 0, 0] = 1.0
    biased = sp.vector_from_coeffs(grid8, c)
    with pytest.raises(ValueError):
        weak_pairing_decay([biased], [u], (0.5, 0.5, 0.5), [1.0], T=1.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 300), lam=st.floats(0.5, 4.0))
def test_scaled_data_keeps_divergence_free(seed, lam):
    grid = sp.make_grid(1.0, 8)
    u = random_divfree(grid, seed=seed)
    out = apply(Scale(lam), DataTriple(u, [], 0.5))
    assert sp.l2_norm(sp.divergence(out.u0)) < 1e-11 * sp.l2_norm(out.u0)
