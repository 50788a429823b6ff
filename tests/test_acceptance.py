"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single pass/fail line.  The experiment-driven
criteria reuse the shipped config files under configs/ so the numbers
here are the same ones the command line reproduces.
"""

import json
import os
import time

import numpy as np
import pytest

from nslab import spectral as sp
from nslab.cli import generate_data, load_baselines, parse_config, run
from nslab.divfree import AnnulusSpec, localize_divfree, spectral_sampler, \
    to_torus_field
from nslab.estimates import total_speed
from nslab.solver import (SolverConfig, evolve, march, picard_solve,
                          pressured, residual)
from nslab.spaces import DataTriple, h1_data_norm, sobolev_norm, xs_distance
from nslab.symmetry import Scale, apply

from conftest import (images, random_divfree, random_scalar, random_vector,
                      states)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def config(name):
    return parse_config(os.path.join(ROOT, "configs", name))


# a config run with no value changed, as its run key in the golden file
SHIPPED = "as-shipped"

# pinned values of smaller magnitude are rounding noise or exact zeros,
# such as the symmetry suite's clamped residual increases; a relative
# difference from them means nothing, so their tests check the outcome only
NOISE = 1e-9


def golden():
    """Verdict values pinned at full precision, by config name, then by
    run (the config values it overrides, or SHIPPED), then by verdict name.
    Verdicts whose value is rounding noise that moves, such as
    cutoff-recession (about 1e-11 against 1e-6), are not pinned; their
    tests check the outcome only."""
    with open(os.path.join(ROOT, "tests", "golden_verdicts.json")) as fh:
        return json.load(fh)


def golden_drift(pinned, got):
    """The largest relative difference of the values got, keyed as the
    golden file is, from the pinned ones of magnitude NOISE or more; a
    pinned value not got fails."""
    drift = 0.0
    for name, runs in pinned.items():
        for run, values in runs.items():
            for verdict, value in values.items():
                value_got = got[name][run][verdict]
                if abs(value) >= NOISE:
                    drift = max(drift, abs(value_got / value - 1.0))
    return drift


def shipped_drift(manifests):
    """golden_drift of the verdicts of shipped configs run as shipped,
    given their manifests by config name."""
    pinned = golden()
    got = {name: {SHIPPED: {v.name: v.value for v in m.verdicts}}
           for name, m in manifests.items()}
    return golden_drift({name: pinned[name] for name in got}, got)


def report(label, passed, detail):
    line = f"{label}: {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


def run_config(cfg, tmp_path, tag):
    manifest, code = run(cfg, outdir=str(tmp_path / tag))
    return manifest, code


# ---------------------------------------------------------------------------


def test_operator_algebra_identities(grid32):
    t0 = time.time()
    u = random_vector(grid32, seed=1, kmax=10)
    w = random_vector(grid32, seed=2, kmax=10)
    f = random_scalar(grid32, seed=3, kmax=10)
    worst = 0.0

    pu = sp.leray_project(u)
    worst = max(worst, np.max(np.abs(sp.leray_project(pu).coeffs - pu.coeffs))
                / np.max(np.abs(pu.coeffs)))
    lhs = sp.l2_inner(sp.leray_project(u), w)
    rhs = sp.l2_inner(u, sp.leray_project(w))
    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))

    back = sp.laplacian(sp.inverse_laplacian(f))
    expect = f.coeffs.copy()
    expect[0, 0, 0] = 0.0
    worst = max(worst, np.max(np.abs(back.coeffs - expect))
                / np.max(np.abs(expect)))

    v = random_divfree(grid32, seed=4, kmax=10)
    c = v.coeffs.copy()
    c[:, 0, 0, 0] = 0.0
    v = sp.vector_from_coeffs(grid32, c)
    # Biot-Savart: curl(curl v) = -Laplacian(v) for divergence-free v, so
    # v = -inverse_laplacian(curl(omega)) with omega = curl(v)
    bs = sp.inverse_laplacian(sp.curl(sp.curl(v)))
    worst = max(worst, np.max(np.abs(bs.coeffs + v.coeffs))
                / np.max(np.abs(v.coeffs)))

    elapsed = time.time() - t0
    report("operator-algebra",
           worst <= 1e-10 and elapsed < 10.0,
           f"worst_relative_defect={worst:.3e} elapsed={elapsed:.1f}s")


def test_exact_solutions_and_time_convergence(grid32):
    t0 = time.time()
    tau = 2.0 * np.pi
    x, y, z = grid32.nodes()

    shear = np.zeros((3,) + grid32.shape)
    shear[0] = np.sin(tau * z)
    data = DataTriple(sp.vector_from_samples(grid32, shear), [], 1.0)
    traj = evolve(data, SolverConfig(dt=1e-3, store_every=100))
    exact = shear * np.exp(-tau**2)
    shear_err = float(np.max(np.abs(
        np.real(traj.velocities[-1].samples()) - exact)))

    tg = np.zeros((3,) + grid32.shape)
    tg[0] = np.sin(tau * x) * np.cos(tau * y)
    tg[1] = -np.cos(tau * x) * np.sin(tau * y)
    data = DataTriple(sp.vector_from_samples(grid32, tg), [], 1.0)
    _, u, p, _ = list(pressured(
        march(data, SolverConfig(dt=1e-3, store_every=100)), data))[-1]
    tg_err = float(np.max(np.abs(
        np.real(u.samples()) - tg * np.exp(-2.0 * tau**2))))
    p_exact = 0.25 * (np.cos(2.0 * tau * x) + np.cos(2.0 * tau * y)) \
        * np.exp(-4.0 * tau**2)
    tg_err = max(tg_err, float(np.max(np.abs(np.real(p.samples()) - p_exact))))

    # second-order convergence of the equation residual; the slow shear
    # flow on a wide box keeps the largest step inside the asymptotic range
    wide = sp.make_grid(4.0, 32)
    u0 = np.zeros((3,) + wide.shape)
    u0[0] = np.sin(2.0 * np.pi * wide.nodes()[2] / wide.L)
    dts = (1e-2, 1e-3, 4e-4)
    res = []
    for dt in dts:
        d = DataTriple(sp.vector_from_samples(wide, u0), [], 0.1)
        stream = pressured(march(d, SolverConfig(dt=dt)), d)
        res.append(float(np.max(residual(stream, d, 0.0))))
    slope = float(np.polyfit(np.log(dts), np.log(res), 1)[0])

    elapsed = time.time() - t0
    report("exact-solutions",
           shear_err <= 1e-6 and tg_err <= 1e-5
           and abs(slope - 2.0) <= 0.2 and elapsed < 60.0,
           f"shear={shear_err:.3e} taylor_green={tg_err:.3e} "
           f"dt_slope={slope:.3f} elapsed={elapsed:.1f}s")


def test_picard_contraction_ensemble(grid16):
    t0 = time.time()
    baselines = load_baselines()
    cfg = SolverConfig(dt=2e-4, smallness_c=1e-2)
    worst_contraction = 0.0
    worst_distance = 0.0
    for seed in range(20):
        u0 = random_divfree(grid16, seed=100 + seed, kmax=3,
                            amplitude=0.25)
        data = DataTriple(sp.dealias(u0), [], 0.02)
        assert h1_data_norm(data) ** 4 * data.T <= 1e-2
        fixed = picard_solve(data, cfg)
        worst_contraction = max(worst_contraction,
                                fixed.meta["contraction_factor"])
        worst_distance = max(worst_distance,
                             xs_distance(fixed, evolve(data, cfg)))
    elapsed = time.time() - t0
    thr = baselines["picard_contraction_max"]
    report("picard-contraction",
           worst_contraction <= thr and worst_distance <= 1e-6
           and elapsed < 300.0,
           f"contraction_max={worst_contraction:.3e} "
           f"evolve_distance_max={worst_distance:.3e} "
           f"elapsed={elapsed:.1f}s")


def test_energy_budget_suite(tmp_path):
    baselines = load_baselines()
    defect_max, ratio_max = 0.0, 0.0
    all_pass = True
    manifests = {}
    for i in range(1, 6):
        name = f"energy_local_{i:02d}"
        manifest, code = run_config(config(name + ".cfg"), tmp_path,
                                    f"energy{i}")
        manifests[name] = manifest
        all_pass &= code == 0
        for v in manifest.verdicts:
            all_pass &= v.passed
            if v.name == "global-budget":
                defect_max = max(defect_max, v.value)
            else:
                ratio_max = max(ratio_max, v.value)
    drift = shipped_drift(manifests)
    report("energy-identity",
           all_pass and defect_max <= 1e-4
           and ratio_max <= baselines["local_energy_ratio_max"]
           and drift <= 1e-12,
           f"global_defect_max={defect_max:.3e} "
           f"local_ratio_max={ratio_max:.3e} golden_drift={drift:.1e}")


def test_bounded_total_speed_suite(tmp_path, grid16):
    baselines = load_baselines()
    ratio_max = 0.0
    all_pass = True
    manifests = {}
    for i in range(1, 6):
        name = f"total_speed_{i:02d}"
        manifest, code = run_config(config(name + ".cfg"), tmp_path,
                                    f"speed{i}")
        manifests[name] = manifest
        all_pass &= code == 0
        ratio_max = max(ratio_max, manifest.verdicts[0].value)

    # the normalised ratio is a scaling invariant
    data = DataTriple(random_divfree(grid16, seed=9, kmax=3,
                                     amplitude=0.3), [], 0.1)
    traj = evolve(data, SolverConfig(dt=1e-3))
    _, ratio = total_speed(states(traj), data)
    scaled = images(Scale(2.0), pressured(states(traj), data), traj.times)
    _, scaled_ratio = total_speed(((t, u) for t, u, _, _ in scaled),
                                  apply(Scale(2.0), data))
    drift = abs(scaled_ratio - ratio) / ratio
    pinned_drift = shipped_drift(manifests)
    report("bounded-total-speed",
           all_pass and ratio_max <= baselines["total_speed_ratio_max"]
           and drift <= 1e-6 and pinned_drift <= 1e-12,
           f"ratio_max={ratio_max:.3e} scaling_drift={drift:.3e} "
           f"golden_drift={pinned_drift:.1e}")


def test_enstrophy_localisation_suite(tmp_path):
    t0 = time.time()
    baselines = load_baselines()
    ratio_max = 0.0
    all_pass = True
    got = {}
    for eps in (0.0, 1e-3, 1e-4):
        for i in range(1, 11):
            name = f"enstrophy_{i:02d}"
            cfg = config(name + ".cfg")
            cfg.values["solver.eps"] = eps
            manifest, code = run_config(cfg, tmp_path, f"ens{i}_{eps:g}")
            all_pass &= code == 0
            got.setdefault(name, {})[f"solver.eps={eps:g}"] = {
                v.name: v.value for v in manifest.verdicts}
            for v in manifest.verdicts:
                all_pass &= v.passed
                if v.name == "enstrophy-conclusion":
                    ratio_max = max(ratio_max, v.value)
    elapsed = time.time() - t0
    # the conclusion values of all 30 runs, against the golden file
    pinned = {name: runs for name, runs in golden().items()
              if name.startswith("enstrophy_")}
    drift = golden_drift(pinned, got)
    report("enstrophy-localisation",
           all_pass and ratio_max <= baselines["enstrophy_K"]
           and drift <= 1e-12 and elapsed < 900.0,
           f"W_over_delta_sq_max={ratio_max:.3e} scenarios=30 "
           f"golden_drift={drift:.1e} elapsed={elapsed:.1f}s")


def test_divergence_free_truncation_suite():
    baselines = load_baselines()
    rng = np.random.default_rng(0)
    agree_max = vanish_max = div_max = 0.0
    k_ratio_max = [0.0, 0.0]
    for i in range(1, 6):
        cfg = config(f"localize_{i:02d}.cfg")
        grid = sp.make_grid(cfg.get("grid.L"), cfg.get("grid.N"))
        data = generate_data(cfg.get("data.kind"), cfg, grid)
        spec = AnnulusSpec(cfg.require("localize.R1"),
                           cfg.require("localize.R2"),
                           cfg.require("localize.R3"),
                           cfg.require("localize.R4"),
                           cfg.require("localize.center"))
        sampler = spectral_sampler(data.u0)
        sph = localize_divfree(sampler, spec, l_max=cfg.get("localize.l_max"))
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        inner = np.asarray(spec.center) + dirs * rng.uniform(
            spec.R1, spec.R2, size=(200, 1))
        outer = np.asarray(spec.center) + dirs * rng.uniform(
            spec.R3, spec.R4, size=(200, 1))
        scale = float(np.max(np.abs(sampler(inner))))
        agree_max = max(agree_max, float(np.max(np.abs(
            sph.evaluate(inner) - sampler(inner)))) / scale)
        vanish_max = max(vanish_max,
                         float(np.max(np.abs(sph.evaluate(outer)))) / scale)
        div_max = max(div_max, sph.divergence_defect())
        u_loc = to_torus_field(sph, grid)
        for k in (0, 1):
            k_ratio_max[k] = max(
                k_ratio_max[k],
                sobolev_norm(u_loc, float(k))
                / sobolev_norm(data.u0, k + 1.0))

    # linearity of the truncation in the input field
    cfg = config("localize_01.cfg")
    grid = sp.make_grid(cfg.get("grid.L"), cfg.get("grid.N"))
    spec = AnnulusSpec(0.12, 0.2, 0.32, 0.42, (0.5, 0.5, 0.5))
    a = random_divfree(grid, seed=61, kmax=3)
    b = random_divfree(grid, seed=62, kmax=3)
    combo = sp.vector_from_coeffs(grid, 2.0 * a.coeffs - 0.5 * b.coeffs)
    sa = localize_divfree(spectral_sampler(a), spec, l_max=24)
    sb = localize_divfree(spectral_sampler(b), spec, l_max=24)
    sc = localize_divfree(spectral_sampler(combo), spec, l_max=24)
    expect = 2.0 * sa.a - 0.5 * sb.a
    lin = float(np.max(np.abs(sc.a - expect))
                / max(np.max(np.abs(expect)), 1e-300))

    report("divergence-free-truncation",
           agree_max <= 1e-6 and vanish_max <= 1e-6 and div_max <= 1e-6
           and k_ratio_max[0] <= baselines["divloc_K0"]
           and k_ratio_max[1] <= baselines["divloc_K1"]
           and lin <= 1e-10,
           f"agreement={agree_max:.3e} vanishing={vanish_max:.3e} "
           f"divergence={div_max:.3e} K0={k_ratio_max[0]:.3e} "
           f"K1={k_ratio_max[1]:.3e} linearity={lin:.3e}")


def test_pairing_growth_counterexample(tmp_path):
    t0 = time.time()
    manifest, code = run_config(config("counterexample.cfg"), tmp_path,
                                "growth")
    elapsed = time.time() - t0
    byname = {v.name: v for v in manifest.verdicts}
    drift = shipped_drift({"counterexample": manifest})
    report("pairing-growth",
           code == 0 and all(v.passed for v in manifest.verdicts)
           and byname["x0-slope"].value >= 0.8
           and byname["h1-scaling"].value <= 0.15
           and byname["h2-scaling"].value <= 0.15
           and byname["box-doubling"].value <= 0.02
           and drift <= 1e-12 and elapsed < 600.0,
           f"x0_slope={byname['x0-slope'].value:.3f} "
           f"h1_dev={byname['h1-scaling'].value:.3e} "
           f"h2_dev={byname['h2-scaling'].value:.3e} "
           f"doubling={byname['box-doubling'].value:.3e} "
           f"golden_drift={drift:.1e} elapsed={elapsed:.1f}s")


def test_oscillatory_pairing_decay(tmp_path):
    t0 = time.time()
    m_irr, c_irr = run_config(config("homogenize_irrational.cfg"),
                              tmp_path, "irr")
    m_rat, c_rat = run_config(config("homogenize_rational.cfg"),
                              tmp_path, "rat")
    elapsed = time.time() - t0
    drift = shipped_drift({"homogenize_irrational": m_irr,
                           "homogenize_rational": m_rat})
    report("pairing-decay",
           c_irr == 0 and c_rat == 0 and m_irr.verdicts[0].passed
           and m_rat.verdicts[0].passed and drift <= 1e-12
           and elapsed < 60.0,
           f"decayed_to={m_irr.verdicts[0].value:.3e} "
           f"(needs <= {m_irr.verdicts[0].threshold:.3e}); rational control "
           f"stalls at {m_rat.verdicts[0].value:.3e} "
           f"golden_drift={drift:.1e} elapsed={elapsed:.1f}s")


def test_symmetry_suite(tmp_path):
    manifest, code = run_config(config("symmetry.cfg"), tmp_path, "sym")
    byname = {v.name: v for v in manifest.verdicts}
    residual_names = [n for n in byname if n.startswith("residual-")]
    worst = max(byname[n].value for n in residual_names)
    drift = shipped_drift({"symmetry": manifest})
    report("symmetry-suite",
           code == 0 and all(v.passed for v in manifest.verdicts)
           and len(residual_names) == 7
           and worst <= 1e-6
           and byname["mean-zero"].value <= 1e-12
           and abs(byname["scale-energy"].value - 2.0) <= 1e-6
           and drift <= 1e-12,
           f"transforms=7 residual_increase_max={worst:.3e} "
           f"mean_defect={byname['mean-zero'].value:.3e} "
           f"energy_ratio={byname['scale-energy'].value:.8f} "
           f"golden_drift={drift:.1e}")
