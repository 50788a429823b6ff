"""Config parsing, data generators, and the experiment runner contract:
artifacts, exit codes, and byte-identical reruns."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from nslab import cli, packet, solver
from nslab import spectral as sp
from nslab.cli import (
    ConfigError,
    _random_band_field,
    generate_data,
    load_baselines,
    main,
    parse_config,
    run,
)
from nslab.spaces import DataTriple, energy


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SOLVE_CFG = """\
experiment = solve
grid.N = 16
data.kind = random-band
data.seed = 3
data.amplitude = 0.2
solver.dt = 2.5e-4
solver.T = 0.01
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_reads_values_comments_and_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SOLVE_CFG + "# trailing comment\n"))
    assert cfg.experiment == "solve"
    assert cfg.get("grid.N") == 16
    assert cfg.get("data.amplitude") == 0.2
    # untouched keys fall back to the defaults table
    assert cfg.get("grid.L") == 1.0
    assert cfg.get("solver.store_every") == 1


def test_parse_rejects_duplicate_keys_with_both_lines(tmp_path):
    path = write_cfg(tmp_path, "experiment = solve\ngrid.N = 8\ngrid.N = 16\n")
    with pytest.raises(ConfigError, match=r":3: duplicate key.*line 2"):
        parse_config(path)


def test_parse_rejects_unknown_keys(tmp_path):
    path = write_cfg(tmp_path, "experiment = solve\ngrid.M = 8\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'grid.M'"):
        parse_config(path)


def test_parse_rejects_bad_values(tmp_path):
    path = write_cfg(tmp_path, "experiment = solve\ngrid.N = eight\n")
    with pytest.raises(ConfigError, match=r":2: bad value for 'grid.N'"):
        parse_config(path)


NUMBER_KEYS = sorted(
    key for key, (parser, _, _) in cli._KEYS.items()
    if parser in (cli._parse_float, cli._parse_triple, cli._parse_floats))


@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_non_finite_numbers_exit_two_before_the_data(tmp_path, monkeypatch,
                                                     key):
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    lines = [ln for ln in SOLVE_CFG.splitlines()
             if ln.split("=")[0].strip() != key]
    for bad in ("nan", "inf", "-inf"):
        value = {cli._parse_triple: f"0.5,{bad},0.5",
                 cli._parse_floats: f"1.0,{bad}"}.get(cli._KEYS[key][0], bad)
        path = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]))
        out = tmp_path / f"out{bad}"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert not out.exists()


def test_parse_rejects_non_assignments(tmp_path):
    path = write_cfg(tmp_path, "experiment solve\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(path)


def test_parse_requires_an_experiment(tmp_path):
    path = write_cfg(tmp_path, "grid.N = 8\n")
    with pytest.raises(ConfigError, match="no experiment named"):
        parse_config(path)


def test_parse_flags_experiment_mismatch(tmp_path):
    path = write_cfg(tmp_path, "experiment = solve\n")
    with pytest.raises(ConfigError, match="asked for"):
        parse_config(path, experiment="total-speed")


def test_parse_rejects_unknown_experiments(tmp_path):
    path = write_cfg(tmp_path, "experiment = frobnicate\n")
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config(path)


def test_parse_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "absent.cfg"))


def test_require_names_the_missing_key(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "experiment = enstrophy-loc\n"))
    with pytest.raises(ConfigError, match="harness.delta"):
        cfg.require("harness.delta")


# ---------------------------------------------------------------------------
# data generators


def test_generate_data_kinds_are_divergence_free(tmp_path, grid16):
    cfg = parse_config(write_cfg(tmp_path, SOLVE_CFG))
    for kind in ("shear", "taylor-green", "random-band", "composite"):
        data = generate_data(kind, cfg, grid16)
        u = data.u0
        assert sp.l2_norm(sp.divergence(u)) < 1e-10 * max(sp.l2_norm(u), 1e-30)
        # generated data never exceeds the solver's dealiased band
        assert np.max(np.abs(u.coeffs - sp.dealias(u).coeffs)) == 0.0


def test_generate_data_forcing_sample_count(tmp_path, grid16):
    cfg = parse_config(write_cfg(
        tmp_path, SOLVE_CFG + "forcing.kind = random-band\n"
        "forcing.samples = 5\nforcing.amplitude = 0.01\n"))
    data = generate_data("shear", cfg, grid16)
    assert len(data.f) == 5
    for fk in data.f:
        assert sp.l2_norm(sp.divergence(fk)) < 1e-10


def test_composite_packet_low_pass_caps_the_spectrum(tmp_path, grid16):
    text = SOLVE_CFG + ("data.kmin = 1\ndata.kmax = 2\n"
                        "data.packet_kmax = 2.5\ndata.packet_n = 3\n"
                        "data.packet_width = 0.2\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    data = generate_data("composite", cfg, grid16)
    kk = np.sqrt(grid16.k_squared())
    high = np.abs(data.u0.coeffs)[:, kk > 5.0]
    assert np.max(high) == 0.0


def test_random_band_data_keep_their_values(grid16):
    # values the generator gave while fields were stored on the full
    # fftn lattice (seed 5, band 1..4, slope -2, unit amplitude)
    u = _random_band_field(grid16, 5, 1, 4, -2.0, 1.0, True)
    expect = {
        (0, 1, 2, 1): 0.009962130118838676 + 0.009468198069213112j,
        (1, 15, 3, 2): -0.0020130378082145388 + 0.002517950012483459j,
        (0, 0, 1, 0): -0.011314304291972225 - 0.11759148816250876j,
    }
    for idx, value in expect.items():
        assert abs(u.coeffs[idx] - value) <= 1e-15 * abs(value)


def test_empty_random_band_is_a_config_error(tmp_path):
    grid = sp.make_grid(1.0, 8)
    cfg = parse_config(write_cfg(
        tmp_path, "experiment = solve\ndata.kmin = 30\ndata.kmax = 40\n"))
    with pytest.raises(ConfigError, match="random band is empty"):
        generate_data("random-band", cfg, grid)


# ---------------------------------------------------------------------------
# the runner


def test_run_writes_artifacts_and_passes(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SOLVE_CFG))
    out = tmp_path / "out"
    manifest, code = run(cfg, outdir=str(out))
    assert code == 0
    assert all(v.passed for v in manifest.verdicts)
    assert (out / "manifest.json").exists()
    assert (out / "diagnostics.csv").exists()
    text = (out / "verdict.txt").read_text()
    assert "residual: PASS value=" in text
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["experiment"] == "solve"
    assert payload["hypotheses"] == {}
    names = {f["name"] for f in payload["files"]}
    assert {"diagnostics.csv", "final_velocity.field",
            "verdict.txt"} <= names
    # the field dump reads back as the final state of the run
    u, t = sp.read_field(out / "final_velocity.field")
    assert (u.grid.L, u.grid.N) == (1.0, 16)
    assert t == pytest.approx(0.01, rel=1e-12, abs=0.0)
    rows = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)
    assert energy(DataTriple(u, [], t)) == pytest.approx(rows[-1, 1],
                                                         rel=1e-12, abs=0.0)


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SOLVE_CFG))
    a, b = tmp_path / "a", tmp_path / "b"
    run(cfg, outdir=str(a))
    run(cfg, outdir=str(b))
    assert (a / "diagnostics.csv").read_bytes() \
        == (b / "diagnostics.csv").read_bytes()


# diagnostic rows each experiment makes for its 11 stored states
ROWS_MADE = {"energy-budget": 11, "total-speed": 0, "solve": 11}


@pytest.mark.parametrize("experiment, sups, pressures", [
    ("energy-budget", 0, 0),
    ("total-speed", 11, 0),
    ("solve", 11, 11),
])
def test_runs_make_only_the_sup_norms_and_pressures_they_read(
        tmp_path, monkeypatch, experiment, sups, pressures):
    # of the 11 stored states, the energy budget reads only the diagnostic
    # rows, the total speed only the sup norms, the solve's CSV and
    # residual all three
    calls = {"sup": 0, "pressure": 0, "row": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(sp, "sup_norm", counted("sup", sp.sup_norm))
    monkeypatch.setattr(solver, "normalised_pressure",
                        counted("pressure", solver.normalised_pressure))
    monkeypatch.setattr(solver, "_diag_row", counted("row", solver._diag_row))
    text = SOLVE_CFG.replace("experiment = solve",
                             f"experiment = {experiment}").replace(
        "solver.T = 0.01", "solver.T = 0.0025")
    _, code = run(parse_config(write_cfg(tmp_path, text)),
                  outdir=str(tmp_path / "out"))
    assert code == 0
    assert calls == {"sup": sups, "pressure": pressures,
                     "row": ROWS_MADE[experiment]}


# the total-speed run reads no harness key, and only the enstrophy run
# reads delta and c; with them its hypotheses hold at both horizons
STREAM_CFG = """\
experiment = {experiment}
grid.N = 16
data.kind = random-band
data.seed = 3
data.amplitude = 0.2
solver.dt = 1e-4
solver.T = {T}
harness.x0 = 0.5, 0.5, 0.5
harness.R = 0.3
harness.r = 0.1
harness.delta = 8.0
harness.c = 200.0
"""


@pytest.mark.parametrize("experiment", ["total-speed", "energy-budget",
                                        "enstrophy-loc", "solve",
                                        "symmetry-suite"])
def test_streamed_runs_hold_no_stored_states(tmp_path, experiment):
    # held, 201 stored N=16 states (110 kB each) would raise the traced
    # peak about tenfold over 21; reduced as they arrive, they add nothing.
    # The solve and the symmetry suite hold a window of three states per
    # residual stream and a pressure per state in it, and no more
    peaks = []
    for T in ("0.002", "0.02"):  # 21 and 201 stored states
        cfg = parse_config(write_cfg(
            tmp_path, STREAM_CFG.format(experiment=experiment, T=T)))
        tracemalloc.start()
        try:
            manifest, _ = run(cfg, outdir=str(tmp_path / f"out{T}"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert manifest.error == ""
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_failed_verdict_exits_one(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 SOLVE_CFG + "tol.residual = 1e-30\n"))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 1
    assert not manifest.verdicts[0].passed


def test_config_error_exits_two_and_writes_the_manifest(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 SOLVE_CFG + "solver.method = shoot\n"))
    out = tmp_path / "out"
    manifest, code = run(cfg, outdir=str(out))
    assert code == 2
    assert "solver.method must be one of evolve, picard, got 'shoot'" \
        in manifest.error
    payload = json.loads((out / "manifest.json").read_text())
    assert "error" in payload


def test_unexpected_error_exits_three_and_writes_the_manifest(
        tmp_path, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("cannot convert float infinity to integer")

    monkeypatch.setattr(cli, "generate_data", overflow)
    out = tmp_path / "out"
    manifest, code = run(parse_config(write_cfg(tmp_path, SOLVE_CFG)),
                         outdir=str(out))
    assert code == 3
    assert manifest.error.startswith("numerical abort: Traceback")
    assert manifest.error.endswith("OverflowError: cannot convert float "
                                   "infinity to integer\n")
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["error"] == manifest.error


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exits_three(tmp_path):
    # data so large that the march overflows within a few steps: the
    # non-finite state surfaces as a numerical abort rather than a verdict
    text = ("experiment = total-speed\ngrid.N = 8\ndata.kind = random-band\n"
            "data.amplitude = 1e6\nsolver.dt = 5e-2\nsolver.T = 0.5\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 3
    assert manifest.error.startswith("numerical abort: non-finite velocity")


def test_odd_resolution_exits_two(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 SOLVE_CFG.replace("grid.N = 16", "grid.N = 15")))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "resolution N must be even" in manifest.error


def test_nonpositive_horizon_exits_two(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 SOLVE_CFG.replace("solver.T = 0.01",
                                                   "solver.T = -1")))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "solver.T must be positive, got -1.0" in manifest.error


def test_bad_solver_step_exits_two(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 SOLVE_CFG.replace("solver.dt = 2.5e-4",
                                                   "solver.dt = 0")))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "dt must be positive" in manifest.error


def _must_not_run(*args, **kwargs):
    raise AssertionError("a bad parameter must be rejected before this call")


def test_bad_solver_step_exits_two_before_the_data(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    cfg = parse_config(write_cfg(tmp_path,
                                 SOLVE_CFG.replace("solver.dt = 2.5e-4",
                                                   "solver.dt = -1")))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "dt must be positive" in manifest.error


def test_bad_energy_cutoff_exits_two_before_the_solve(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_solve_states", _must_not_run)
    text = ("experiment = energy-budget\ngrid.N = 8\n"
            "data.kind = random-band\ndata.amplitude = 0.1\n"
            "solver.dt = 1e-3\nsolver.T = 0.002\n"
            "harness.x0 = 0.5,0.5,0.5\nharness.R = 0.35\nharness.r = 0.3\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "need 0 < r < R/2" in manifest.error


def test_long_total_speed_horizon_exits_two_before_the_data(tmp_path,
                                                            monkeypatch):
    # the total-speed bound needs T <= L^2, known from the config alone
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    text = ("experiment = total-speed\ngrid.N = 8\ndata.kind = random-band\n"
            "data.amplitude = 0.05\nsolver.dt = 5e-2\nsolver.T = 1.5\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "needs T <= L^2" in manifest.error


def test_unknown_region_exits_two_before_the_data(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    text = ("experiment = energy-budget\ngrid.N = 8\n"
            "data.kind = random-band\ndata.amplitude = 0.1\n"
            "solver.dt = 1e-3\nsolver.T = 0.002\n"
            "harness.x0 = 0.5,0.5,0.5\nharness.R = 0.35\nharness.r = 0.1\n"
            "harness.region = sideways\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert ("harness.region must be one of ball, exterior, got 'sideways'"
            in manifest.error)


@pytest.mark.parametrize("extra, message", [
    # n = 16 and 32 are too fine for the pairing grid
    ("counterexample.pairing_N = 64\n", "cannot resolve"),
    # n = 4, 8 resolve on the pairing grid but n = 8 not on the doubled box
    ("counterexample.pairing_N = 64\ncounterexample.n_list = 4,8\n",
     "cannot resolve"),
    ("counterexample.xi = 1,0,0\ncounterexample.eta = 2,0,0\n",
     "degenerate packet"),
    # one frequency leaves no ratio to check and no slope to fit
    ("counterexample.n_list = 4\n", "at least two entries"),
    # a repeated frequency makes the log-log fit singular
    ("counterexample.n_list = 2,2\n", "each twice the one before"),
    # a radius of zero or below gives NaN samples of the test bump
    ("counterexample.psi_radius = 0\n", "must be positive"),
    ("counterexample.psi_radius = -0.5\n", "must be positive"),
    # on a ball this wide the bump is flat over the whole box, so X0 is 0
    ("counterexample.psi_radius = 20\n", "does not fit in the pairing box"),
], ids=["pairing-grid", "doubled-box", "degenerate", "one-frequency",
        "repeated-frequency", "zero-radius", "negative-radius",
        "wide-bump"])
def test_unresolvable_packet_exits_two_before_the_study(tmp_path, monkeypatch,
                                                        extra, message):
    monkeypatch.setattr(cli, "growth_study", _must_not_run)
    cfg = parse_config(write_cfg(tmp_path, "experiment = counterexample\n"
                                 + extra))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert message in manifest.error


def test_unresolvable_packet_data_exits_two_before_the_packet(tmp_path,
                                                              monkeypatch):
    monkeypatch.setattr(packet, "_stream_samples", _must_not_run)
    text = ("experiment = solve\ngrid.N = 8\ndata.kind = wave-packet\n"
            "solver.dt = 1e-3\nsolver.T = 0.002\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "box too small" in manifest.error


def test_misordered_annulus_exits_two_before_the_data(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    text = ("experiment = localize\ngrid.N = 8\n"
            "localize.R1 = 0.2\nlocalize.R2 = 0.12\n"
            "localize.R3 = 0.32\nlocalize.R4 = 0.42\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 2
    assert "annulus radii" in manifest.error


LOCALIZE_CFG = ("experiment = localize\ngrid.N = 16\n"
                "localize.R1 = 0.1\nlocalize.R2 = 0.2\n"
                "localize.R3 = 0.3\nlocalize.R4 = 0.4\n")


@pytest.mark.parametrize("text, key", [
    (LOCALIZE_CFG + "localize.l_max = 0\n", "localize.l_max"),
    (LOCALIZE_CFG + "localize.n_r = 1\n", "localize.n_r"),
    (SOLVE_CFG + "forcing.kind = random-band\nforcing.samples = 0\n",
     "forcing.samples"),
], ids=["l_max", "n_r", "forcing-samples"])
def test_counts_below_their_least_value_exit_two_before_the_data(
        tmp_path, monkeypatch, text, key):
    # unchecked, the first two fail the localize verdict with value nan
    # once the data are made (exit 1), and no forcing sample runs unforced
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    manifest, code = run(parse_config(write_cfg(tmp_path, text)),
                         outdir=str(tmp_path / "out"))
    assert code == 2
    assert f"{key} must be at least" in manifest.error


def _outside(accepted):
    """Values just outside what a row of cli._KEYS accepts."""
    if accepted == "positive":
        return ["0", "-1"]
    if isinstance(accepted, int):
        return [str(accepted - 1)]
    return ["vortex-soup"]


OUTSIDE = [(key, bad) for key, (_, _, accepted) in sorted(cli._KEYS.items())
           if accepted is not None for bad in _outside(accepted)]


@pytest.mark.parametrize("key, bad", OUTSIDE,
                         ids=[f"{key}={bad}" for key, bad in OUTSIDE])
def test_values_outside_their_row_exit_two_before_the_data(
        tmp_path, monkeypatch, key, bad):
    # every checked key of the table, whichever experiment reads it, is
    # rejected at the start of the run, before any data or study
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    monkeypatch.setattr(cli, "weak_pairing_decay", _must_not_run)
    lines = [ln for ln in SOLVE_CFG.splitlines()
             if ln.split("=")[0].strip() != key]
    out = tmp_path / "out"
    manifest, code = run(parse_config(write_cfg(
        tmp_path, "\n".join(lines + [f"{key} = {bad}"]))), outdir=str(out))
    assert code == 2
    assert json.loads((out / "manifest.json").read_text())["error"] \
        == manifest.error
    assert f"{key} must be" in manifest.error


HOMOGENIZE_CFG = ("experiment = homogenize\ngrid.N = 16\n"
                  "homogenize.alpha = 1.0,1.4142135623730951,0.0\n")


@pytest.mark.parametrize("text", [
    HOMOGENIZE_CFG + "homogenize.expect = both\n",
    HOMOGENIZE_CFG + "homogenize.T = 0\n",
    SOLVE_CFG + "forcing.kind = none\nforcing.samples = 0\n",
], ids=["expect", "zero-T", "unforced-samples"])
def test_values_once_let_through_exit_two_before_the_study(
        tmp_path, monkeypatch, text):
    # an unknown expectation used to exit 2 only after decay.csv was
    # written, T = 0 passed pairing-decay with value 0, and no sample of
    # an unforced run was a count to check
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    monkeypatch.setattr(cli, "weak_pairing_decay", _must_not_run)
    out = tmp_path / "out"
    manifest, code = run(parse_config(write_cfg(tmp_path, text)),
                         outdir=str(out))
    assert code == 2
    assert sorted(os.listdir(out)) == ["manifest.json", "verdict.txt"]


def test_defaults_and_shipped_configs_pass_the_table():
    cli._check_values(cli.ExperimentConfig("solve", source="defaults"))
    configs = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "configs")
    for name in sorted(os.listdir(configs)):
        cli._check_values(parse_config(os.path.join(configs, name)))


ENSTROPHY_CFG = ("experiment = enstrophy-loc\ngrid.N = 16\n"
                 "data.kind = random-band\ndata.amplitude = 0.05\n"
                 "solver.dt = 5e-6\nsolver.T = 1e-4\n"
                 "harness.x0 = 0.5,0.5,0.5\nharness.R = 0.4\n"
                 "harness.r = 0.15\nharness.c = 0.01\n")


def test_enstrophy_hypothesis_violation_is_a_tagged_fail(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 ENSTROPHY_CFG + "harness.delta = 1e4\n"))
    out = tmp_path / "out"
    manifest, code = run(cfg, outdir=str(out))
    assert code == 1
    v = manifest.verdicts[0]
    assert v.name == "enstrophy-hypotheses"
    assert not v.passed
    assert np.isnan(v.value)
    assert v.note == "delta-4"
    # the values measured up to the failing one reach the manifest
    hyp = json.loads((out / "manifest.json").read_text())["hypotheses"]
    assert hyp == manifest.hypotheses
    assert set(hyp) == {"eeta", "delta-4"}
    assert hyp["delta-4"] > 0.01


@pytest.mark.parametrize("method, solve", [("evolve", "march"),
                                           ("picard", "picard_solve")],
                         ids=["evolve", "picard"])
def test_enstrophy_hypothesis_violation_is_found_before_the_solve(
        tmp_path, monkeypatch, method, solve):
    # the states are drawn only after the hypotheses hold, so neither the
    # march nor the Picard solve starts
    monkeypatch.setattr(cli, solve, _must_not_run)
    cfg = parse_config(write_cfg(
        tmp_path, ENSTROPHY_CFG + f"harness.delta = 1e4\nsolver.method = "
        f"{method}\n"))
    manifest, code = run(cfg, outdir=str(tmp_path / "out"))
    assert code == 1
    assert manifest.error == ""
    v = manifest.verdicts[0]
    assert (v.name, v.passed, v.note) == ("enstrophy-hypotheses", False,
                                          "delta-4")
    assert set(manifest.hypotheses) == {"eeta", "delta-4"}
    assert manifest.hypotheses["delta-4"] > 0.01


@pytest.mark.parametrize("delta, c, key", [
    ("-3", "0.01", "harness.delta"), ("0", "0.01", "harness.delta"),
    ("3.0", "-0.01", "harness.c"), ("3.0", "0", "harness.c")],
    ids=["negative-delta", "zero-delta", "negative-c", "zero-c"])
def test_nonpositive_enstrophy_scales_exit_two_before_the_data(
        tmp_path, monkeypatch, delta, c, key):
    # unchecked, a negative delta or c fails the eeta or delta-4 hypothesis
    # once the data are made (exit 1); the cutoff needs both positive
    monkeypatch.setattr(cli, "generate_data", _must_not_run)
    text = (ENSTROPHY_CFG.replace("harness.c = 0.01", f"harness.c = {c}")
            + f"harness.delta = {delta}\n")
    manifest, code = run(parse_config(write_cfg(tmp_path, text)),
                         outdir=str(tmp_path / "out"))
    assert code == 2
    assert f"{key} must be positive" in manifest.error
    assert (tmp_path / "out" / "manifest.json").exists()


def test_enstrophy_hypotheses_go_to_the_manifest_only(tmp_path):
    # eeta <= delta, delta-4 <= c and r > r-large, measured
    cfg = parse_config(write_cfg(tmp_path,
                                 ENSTROPHY_CFG + "harness.delta = 3.0\n"))
    out = tmp_path / "out"
    manifest, code = run(cfg, outdir=str(out))
    assert code == 0
    hyp = json.loads((out / "manifest.json").read_text())["hypotheses"]
    assert hyp == manifest.hypotheses
    assert set(hyp) == {"eeta", "delta-4", "r-large"}
    assert 0.0 < hyp["eeta"] <= 3.0
    assert 0.0 < hyp["delta-4"] <= 0.01
    assert 0.0 < hyp["r-large"] < 0.15
    for name in ("verdict.txt", "enstrophy.csv"):
        text = (out / name).read_text()
        assert "eeta" not in text and "delta-4" not in text


def test_baseline_directory_override(tmp_path, monkeypatch):
    (tmp_path / "baselines.txt").write_text(
        "total_speed_ratio_max = 1e-12\n")
    monkeypatch.setenv("NSLAB_BASELINE_DIR", str(tmp_path))
    assert load_baselines()["total_speed_ratio_max"] == 1e-12
    text = ("experiment = total-speed\ngrid.N = 8\ndata.kind = random-band\n"
            "data.amplitude = 0.05\nsolver.dt = 1e-3\nsolver.T = 0.01\n")
    cfg = parse_config(write_cfg(tmp_path, text))
    _, code = run(cfg, outdir=str(tmp_path / "tight"))
    assert code == 1
    (tmp_path / "baselines.txt").write_text(
        "total_speed_ratio_max = 1e9\n")
    _, code = run(cfg, outdir=str(tmp_path / "loose"))
    assert code == 0


def test_main_reports_config_errors(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = solve\ngrid.M = 8\n")
    code = main(["solve", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_runs_and_prints_verdicts(tmp_path, capsys):
    path = write_cfg(tmp_path, SOLVE_CFG)
    code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "residual: PASS" in capsys.readouterr().out


def test_main_seed_override_changes_the_data(tmp_path):
    path = write_cfg(tmp_path, SOLVE_CFG)
    main(["solve", "--config", path, "--out", str(tmp_path / "a")])
    main(["solve", "--config", path, "--out", str(tmp_path / "b"),
          "--seed", "11"])
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a != b
