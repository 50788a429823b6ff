"""Time stepping: the bilinear form, exact closed-form flows, the
fixed-point iteration, and the equation residual."""

import threading
import time

import numpy as np
import pytest
import scipy.fft

from nslab import cli
from nslab import spectral as sp
from nslab.solver import (
    SolverConfig,
    ahead,
    bilinear_B,
    evolve,
    march,
    normalised_pressure,
    picard_solve,
    pressured,
    residual,
    stored_times,
    _diag_row,
    _nonlinear,
)
from nslab import solver
from nslab.spaces import DataTriple, xs_distance
from nslab.symmetry import Scale, apply

from conftest import images, random_divfree, random_vector, rows_of, states


def shear_data(grid, amp=1.0, T=0.01):
    z = grid.nodes()[2]
    samples = np.zeros((3,) + grid.shape)
    samples[0] = amp * np.sin(2.0 * np.pi * z / grid.L)
    return DataTriple(sp.vector_from_samples(grid, samples), [], T)


def taylor_green_data(grid, amp=1.0, T=0.01):
    x, y, _ = grid.nodes()
    tau = 2.0 * np.pi / grid.L
    samples = np.zeros((3,) + grid.shape)
    samples[0] = amp * np.sin(tau * x) * np.cos(tau * y)
    samples[1] = -amp * np.cos(tau * x) * np.sin(tau * y)
    return DataTriple(sp.vector_from_samples(grid, samples), [], T)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_dt():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)


def test_config_rejects_bad_store_every():
    with pytest.raises(ValueError):
        SolverConfig(store_every=0)


def test_config_rejects_negative_hyperdissipation():
    with pytest.raises(ValueError):
        SolverConfig(eps=-1e-4)


# ---------------------------------------------------------------------------
# bilinear form


def test_bilinear_is_symmetric(grid16):
    u = random_divfree(grid16, seed=1, kmax=4)
    v = random_divfree(grid16, seed=2, kmax=4)
    buv = bilinear_B(u, v)
    bvu = bilinear_B(v, u)
    assert np.max(np.abs(buv.coeffs - bvu.coeffs)) < 1e-14


def test_bilinear_is_energy_neutral(grid16):
    # for band-limited divergence-free u the transport term moves energy
    # between modes without creating any: <B(u,u), u> = 0
    u = random_divfree(grid16, seed=3, kmax=4)
    b = bilinear_B(u, u)
    inner = sp.l2_inner(b, u)
    scale = sp.l2_norm(u) ** 2 * sp.sup_norm(u)
    assert abs(inner) < 1e-12 * max(scale, 1.0)


def test_bilinear_grid_mismatch_raises(grid16, grid8):
    u = random_divfree(grid16, seed=4)
    v = random_divfree(grid8, seed=5)
    with pytest.raises(ValueError):
        bilinear_B(u, v)


def test_pressure_is_mean_zero(grid16):
    u = random_divfree(grid16, seed=6, kmax=4)
    p = normalised_pressure(u)
    assert abs(p.coeffs[0, 0, 0]) < 1e-14


def test_pressure_of_unidirectional_shear_vanishes(grid16):
    data = shear_data(grid16)
    p = normalised_pressure(data.u0)
    assert sp.l2_norm(p) < 1e-13


def test_pressure_solves_its_poisson_equation(grid16):
    u = random_divfree(grid16, seed=7, kmax=4)
    p = normalised_pressure(u)
    # div of the momentum equation: Lap p = div B(u, u)
    lhs = sp.laplacian(p)
    rhs = sp.divergence(bilinear_B(u, u))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(
        np.max(np.abs(rhs.coeffs)), 1.0
    )


# ---------------------------------------------------------------------------
# real-transform products against complex-transform references built from
# the documented formulas


def _modes(grid, nyquist):
    """Integer modes per axis in fftn order, the +N/2 entry set to nyquist."""
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    k[grid.N // 2] = nyquist
    return np.meshgrid(k, k, k, indexing="ij")


def _reference_products(grid, u, v):
    """Full fftn-layout spectra of u_i v_j + u_j v_i from complex
    transforms of the samples, truncated by the 2/3 rule with the Nyquist
    planes removed."""
    n3 = grid.N**3
    us, vs = u.samples(), v.samples()
    labelled = np.abs(np.stack(_modes(grid, grid.N // 2)))
    cut = np.floor(2.0 / 3.0 * grid.N / 2.0)
    keep = np.all((labelled <= cut) & (labelled < grid.N // 2), axis=0)
    return {
        (i, j): scipy.fft.fftn(us[i] * vs[j] + us[j] * vs[i]) / n3 * keep
        for i in range(3) for j in range(3)
    }


def _reference_B(grid, u, v):
    """B_i = -1/2 d_j (u_i v_j + u_j v_i), Nyquist-zeroed derivatives."""
    prods = _reference_products(grid, u, v)
    ik = [2.0j * np.pi * k / grid.L for k in _modes(grid, 0.0)]
    return np.stack([
        -0.5 * sum(ik[j] * prods[i, j] for j in range(3)) for i in range(3)
    ])


def _reference_leray(grid, c):
    k = np.stack(_modes(grid, 0.0))
    k2 = np.sum(k * k, axis=0)
    kdotc = np.sum(k * c, axis=0) / np.where(k2 > 0, k2, 1.0)
    return c - k * kdotc


def _reference_pressure(grid, u):
    """-Delta^{-1} d_i d_j (u_i u_j), mean zero."""
    prods = _reference_products(grid, u, u)
    ik = [2.0j * np.pi * k / grid.L for k in _modes(grid, 0.0)]
    rhs = sum(0.5 * ik[i] * ik[j] * prods[i, j]
              for i in range(3) for j in range(3))
    k2 = np.sum(np.stack(_modes(grid, grid.N // 2)) ** 2, axis=0)
    lap = -4.0 * np.pi**2 * np.where(k2 > 0, k2, 1.0) / grid.L**2
    return np.where(k2 > 0, -rhs / lap, 0.0)


def _non_hermitian(grid, seed):
    """A random stored half spectrum: its self-conjugate planes kz = 0 and
    kz = N/2 are not Hermitian, so only their Hermitian parts reach the
    samples."""
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.spectral_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return sp.vector_from_coeffs(grid, c / grid.N**2)


def _half(full, N):
    """The stored bins kz = 0..N/2 of a full fftn-layout spectrum."""
    return full[..., : N // 2 + 1]


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("N", [16, 32])
def test_real_transform_nonlinearity_matches_complex_reference(N):
    grid = sp.make_grid(1.0, N)
    u = random_divfree(grid, seed=40)
    v = random_divfree(grid, seed=41)
    w = _non_hermitian(grid, seed=42)
    stepped = _nonlinear(u, None).coeffs
    ref = _reference_leray(grid, _reference_B(grid, u, u))
    assert _rel_err(stepped, _half(ref, N)) < 1e-13
    for a, b in ((u, v), (w, u), (w, w)):
        ref = _reference_B(grid, a, b)
        assert _rel_err(bilinear_B(a, b).coeffs, _half(ref, N)) < 1e-13
    for a in (u, w):
        assert _rel_err(normalised_pressure(a).coeffs,
                        _half(_reference_pressure(grid, a), N)) < 1e-13


def _pad_full(c, N, M):
    """Zero-pad fftn-layout coeffs to M per axis, splitting each Nyquist."""
    h = N // 2
    for ax in (-3, -2, -1):
        c = np.moveaxis(c, ax, -1)
        out = np.zeros(c.shape[:-1] + (M,), dtype=complex)
        out[..., :h] = c[..., :h]
        out[..., h] = out[..., M - h] = 0.5 * c[..., h]
        out[..., M - h + 1:] = c[..., h + 1:]
        c = np.moveaxis(out, -1, ax)
    return c


@pytest.mark.parametrize("N", [16, 32])
def test_sup_norm_of_non_hermitian_coeffs_uses_their_hermitian_part(N):
    grid = sp.make_grid(1.0, N)
    w = _non_hermitian(grid, seed=43)
    # the full spectrum of the samples is the Hermitian extension of the
    # Hermitian part of the stored half
    herm = scipy.fft.fftn(w.samples(), axes=(1, 2, 3)) / N**3
    M = 2 * N
    s = np.real(scipy.fft.ifftn(_pad_full(herm, N, M), axes=(1, 2, 3))) * M**3
    ref = float(np.max(np.sqrt(np.sum(s * s, axis=0))))
    assert abs(sp.sup_norm(w) - ref) < 1e-13 * ref


# ---------------------------------------------------------------------------
# closed-form flows


def test_shear_flow_decays_exactly(grid16):
    data = shear_data(grid16, amp=1.3, T=0.02)
    traj = evolve(data, SolverConfig(dt=1e-3))
    # the nonlinearity vanishes identically, so the exponential
    # integrator reproduces the heat decay to roundoff
    z = grid16.nodes()[2]
    factor = np.exp(-4.0 * np.pi**2 * traj.times[-1])
    expect = 1.3 * factor * np.sin(2.0 * np.pi * z)
    got = np.real(traj.velocities[-1].samples())
    assert np.max(np.abs(got[0] - expect)) < 1e-12
    assert np.max(np.abs(got[1:])) < 1e-12


def test_planar_vortex_array_decays_exactly(grid16):
    data = taylor_green_data(grid16, amp=0.9, T=0.02)
    traj = evolve(data, SolverConfig(dt=1e-3))
    tau = 2.0 * np.pi
    t = traj.times[-1]
    x, y, _ = grid16.nodes()
    factor = np.exp(-2.0 * tau**2 * t)
    got = np.real(traj.velocities[-1].samples())
    assert np.max(np.abs(got[0] - 0.9 * factor * np.sin(tau * x)
                         * np.cos(tau * y))) < 1e-11
    assert np.max(np.abs(got[2])) < 1e-12


def test_planar_vortex_array_pressure_closed_form(grid16):
    data = taylor_green_data(grid16, amp=0.9, T=0.02)
    t, _, p, _ = list(pressured(march(data, SolverConfig(dt=1e-3)), data))[-1]
    tau = 2.0 * np.pi
    x, y, _ = grid16.nodes()
    expect = 0.25 * 0.9**2 * np.exp(-4.0 * tau**2 * t) * (
        np.cos(2.0 * tau * x) + np.cos(2.0 * tau * y)
    )
    got = np.real(p.samples())
    assert np.max(np.abs(got - expect)) < 1e-11


# ---------------------------------------------------------------------------
# stepping mechanics


def test_store_every_subsamples_but_keeps_endpoint(grid8):
    data = DataTriple(random_divfree(grid8, seed=8, kmax=2), [], 0.01)
    cfg = SolverConfig(dt=1e-3, store_every=3)
    traj = evolve(data, cfg)
    assert traj.times[0] == 0.0
    assert np.isclose(traj.times[-1], 0.01)
    assert np.allclose(np.diff(traj.times)[:-1], 3e-3)
    # steps 0, 3, 6, 9 and the endpoint 10: nothing between is kept, and
    # the times are known before the march
    assert len(traj.velocities) == 5
    assert np.array_equal(stored_times(data, cfg), traj.times)
    # the solver makes no pressure and no diagnostic row; pressured and
    # recording_rows make one per state as the states pass
    assert traj.pressures == [] and traj.diagnostics is None
    assert len(list(pressured(states(traj), data))) == 5
    assert np.array_equal(rows_of(states(traj), data).t, traj.times)


def test_energy_decreases_without_forcing(short_run):
    _, _, _, rows = short_run
    assert np.all(np.diff(rows.energy) < 0.0)


def test_residual_is_small_on_a_solver_run(short_run):
    data, cfg, traj, _ = short_run
    res = residual(pressured(states(traj), data), data, cfg.eps)
    # central differencing carries its own O(dt^2) error floor, largest
    # while the fast modes still move; the tail settles well below it
    assert np.max(res) < 0.5
    assert res[-1] < 0.02
    assert len(res) == len(traj) - 2


def test_residual_needs_three_samples(grid8):
    u = random_divfree(grid8, seed=10, kmax=2)
    data = DataTriple(u, [], 1.0)
    with pytest.raises(ValueError, match="three"):
        residual(pressured(zip([0.0, 0.1], [u, u]), data), data, 0.0)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_normalised_pressure_has_an_exactly_zero_mean(grid16, forced):
    # a mean flow and a forcing with a mean give every product and the
    # forcing a nonzero (0,0,0) mode; the pressure must still have none
    u = random_divfree(grid16, seed=18, kmax=3)
    c = u.coeffs.copy()
    c[:, 0, 0, 0] = (0.3, -0.2, 0.1)
    u = sp.vector_from_coeffs(grid16, c)
    f = None
    if forced:
        f = random_vector(grid16, seed=19, kmax=3)
        c = f.coeffs.copy()
        c[:, 0, 0, 0] = (0.5, 0.25, -0.4)
        f = sp.vector_from_coeffs(grid16, c)
    p = normalised_pressure(u, f)
    assert np.max(np.abs(p.coeffs)) > 0.0
    assert p.coeffs[0, 0, 0] == 0.0


def test_residual_shrinks_with_dt(grid16):
    data = taylor_green_data(grid16, amp=0.5, T=0.01)
    res = {}
    for dt in (2e-3, 1e-3):
        stream = pressured(march(data, SolverConfig(dt=dt)), data)
        res[dt] = float(np.max(residual(stream, data, 0.0)))
    # the probe is second order, so halving dt should cut it near 4x
    assert res[1e-3] < 0.4 * res[2e-3]


# ---------------------------------------------------------------------------
# fixed-point iteration


def test_picard_matches_evolve_for_small_data(grid16):
    u = random_divfree(grid16, seed=11, kmax=2, amplitude=0.2)
    data = DataTriple(u, [], 0.01)
    cfg = SolverConfig(dt=5e-4)
    a = picard_solve(data, cfg)
    b = evolve(data, cfg)
    assert xs_distance(a, b) < 1e-8
    assert a.meta["contraction_factor"] <= 0.5
    assert a.meta["picard_iterations"] >= 2


def test_picard_diagnoses_only_the_returned_states(grid16, monkeypatch):
    calls = {"row": 0, "sup": 0, "pressure": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solver, "_diag_row", counted("row", _diag_row))
    monkeypatch.setattr(sp, "sup_norm", counted("sup", sp.sup_norm))
    monkeypatch.setattr(solver, "normalised_pressure",
                        counted("pressure", normalised_pressure))
    u = random_divfree(grid16, seed=11, kmax=2, amplitude=0.2)
    data = DataTriple(u, [], 0.005)
    traj = picard_solve(data, SolverConfig(dt=5e-4))
    assert traj.meta["picard_iterations"] >= 2
    # no row, no sup norm and no pressure: each is left to its readers
    assert calls == {"row": 0, "sup": 0, "pressure": 0}
    # and recording_rows makes a row for each returned state only
    rows_of(states(traj), data)
    assert calls == {"row": len(traj.times), "sup": 0, "pressure": 0}


def test_picard_store_every_subsamples_the_fixed_point_bit_for_bit(grid16):
    u = random_divfree(grid16, seed=14, kmax=2, amplitude=0.2)
    forcing = [random_divfree(grid16, seed=15 + k, kmax=2, amplitude=0.1)
               for k in range(3)]
    data = DataTriple(u, forcing, 0.0045)        # 9 steps of 5e-4
    dense = picard_solve(data, SolverConfig(dt=5e-4))
    sparse = picard_solve(data, SolverConfig(dt=5e-4, store_every=2))
    steps = [0, 2, 4, 6, 8, 9]
    assert len(dense.times) == 10
    assert np.array_equal(sparse.times, dense.times[steps])
    assert sparse.meta["picard_iterations"] == dense.meta["picard_iterations"]
    for j, n in enumerate(steps):
        assert np.array_equal(sparse.velocities[j].coeffs,
                              dense.velocities[n].coeffs)
    d = rows_of(states(sparse), data)
    assert np.array_equal(d.t, sparse.times)
    pressures = [p for _, _, p, _ in pressured(states(sparse), data)]
    for j, (t, v) in enumerate(zip(sparse.times, sparse.velocities)):
        f = data.f_at(t)
        row = (d.energy[j], d.grad_sq[j], d.lap_sq[j], d.enstrophy[j],
               d.f_inner[j])
        assert row == _diag_row(v, f)
        assert np.array_equal(pressures[j].coeffs,
                              normalised_pressure(v, f).coeffs)


def test_picard_rejects_large_data(grid16):
    u = random_divfree(grid16, seed=12, kmax=2, amplitude=10.0)
    data = DataTriple(u, [], 1.0)
    with pytest.raises(ValueError, match="smallness"):
        picard_solve(data, SolverConfig(dt=1e-3))


# ---------------------------------------------------------------------------
# hyperdissipation


def test_hyperdissipation_decays_single_mode_exactly(grid16):
    data = shear_data(grid16, amp=1.0, T=0.01)
    eps = 1e-3
    traj = evolve(data, SolverConfig(dt=1e-3, eps=eps))
    k2 = 4.0 * np.pi**2
    rate = k2 + eps * k2**2
    z = grid16.nodes()[2]
    expect = np.exp(-rate * traj.times[-1]) * np.sin(2.0 * np.pi * z)
    got = np.real(traj.velocities[-1].samples())[0]
    assert np.max(np.abs(got - expect)) < 1e-12


def test_hyperdissipation_loses_energy_faster(grid16):
    data = DataTriple(random_divfree(grid16, seed=14, kmax=3), [], 0.01)
    plain = rows_of(march(data, SolverConfig(dt=1e-3)), data)
    hyper = rows_of(march(data, SolverConfig(dt=1e-3, eps=1e-3)), data)
    assert hyper.energy[-1] < plain.energy[-1]


def test_residual_reads_the_hyperdissipation_coefficient(grid16):
    # left out, the eps Delta^2 u term makes the defect read 29.9 here, not
    # 0.038; a Scale(2) image, read with 4 eps, must read base * 2^(-3/2)
    data = DataTriple(random_divfree(grid16, seed=14, kmax=3), [], 0.01)
    eps = 1e-3
    traj = evolve(data, SolverConfig(dt=1e-4, eps=eps))
    base = residual(pressured(states(traj), data), data, eps)
    assert np.max(base) < 0.1
    assert np.max(residual(pressured(states(traj), data), data, 0.0)) > 1.0
    scaled = residual(
        images(Scale(2.0), pressured(states(traj), data), traj.times),
        apply(Scale(2.0), data), 4.0 * eps)
    assert np.allclose(scaled, 2.0**-1.5 * base, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# reductions on a worker thread


def _numbered(n):
    return ((0.1 * j, j) for j in range(n))


def test_ahead_yields_the_results_in_state_order():
    # the early states take longest, so a reader fed in order of completion
    # would see the later ones first
    pause = [0.03, 0.0, 0.02, 0.0, 0.01, 0.0]

    def fn(j):
        time.sleep(pause[j])
        return 10 * j

    assert list(ahead(fn, _numbered(6))) \
        == [(0.1 * j, j, 10 * j) for j in range(6)]


def test_ahead_draws_at_most_two_states_before_the_reader_takes_them():
    taken, in_flight = [], []

    def stream():
        for t, j in _numbered(8):
            # drawn and not yet taken, this state included
            in_flight.append(j + 1 - len(taken))
            yield t, j

    for state in ahead(abs, stream()):
        taken.append(state)
    assert len(taken) == 8
    assert max(in_flight) == 2


def test_ahead_passes_on_an_exception_from_either_side():
    def fn(j):
        if j == 3:
            raise ZeroDivisionError("in the reduction")
        return j

    with pytest.raises(ZeroDivisionError, match="in the reduction"):
        list(ahead(fn, _numbered(6)))

    def stream():
        yield from _numbered(2)
        raise FloatingPointError("non-finite velocity at step 2")

    with pytest.raises(FloatingPointError, match="at step 2"):
        list(ahead(abs, stream()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ahead_joins_its_worker_however_the_stream_ends(tmp_path):
    start = threading.active_count()
    assert list(ahead(abs, _numbered(4)))[-1][2] == 3
    assert threading.active_count() == start
    early = ahead(abs, _numbered(4))
    assert next(early)[2] == 0
    assert threading.active_count() == start + 1
    early.close()
    assert threading.active_count() == start
    # a march that goes non-finite at its first step aborts the run while
    # the worker takes the data's sup norm
    path = tmp_path / "run.cfg"
    path.write_text("experiment = total-speed\ngrid.N = 8\n"
                    "data.kind = random-band\ndata.amplitude = 1e150\n"
                    "solver.dt = 1e-3\nsolver.T = 0.01\n")
    manifest, code = cli.run(cli.parse_config(str(path)),
                             outdir=str(tmp_path / "out"))
    assert code == 3
    assert manifest.error == \
        "numerical abort: non-finite velocity at step 1"
    assert (tmp_path / "out" / "manifest.json").exists()
    assert threading.active_count() == start
