"""Batch experiment runner.

Experiments are driven by flat key=value config files with dot-namespaced
keys (grid.N, solver.dt, harness.delta).  Each run writes its diagnostics,
a verdict file whose entries carry the inequality tags they check, and a
manifest listing every artifact; the exit status encodes the outcome
(0 pass, 1 verdict fail, 2 usage or config error, 3 numerical abort).
Identical config + seed reproduces byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import spectral as sp
from .bumps import lp_profile, radial_bump
from .divfree import AnnulusSpec, localize_divfree, spectral_sampler, to_torus_field
from .estimates import (
    ENERGY_REGIONS,
    HypothesisError,
    StaticCutoff,
    energy_budget,
    energy_identity,
    enstrophy_hypotheses,
    enstrophy_localisation,
    total_speed,
)
from .packet import (WavePacketSpec, _centered_offsets, check_study,
                     growth_study, wave_packet)
from .solver import (MomentumResidual, SolverConfig, _diag_row, _time_grid,
                     diagnostics_table, march, picard_solve, pressured,
                     recording_rows, residual, stored_times)
from .spaces import DataTriple, sobolev_norm
from .symmetry import (
    Forcing,
    Galilean,
    PressureShift,
    Scale,
    SpaceTranslate,
    TimeTranslate,
    apply,
    state_map,
    weak_pairing_decay,
)

class ConfigError(Exception):
    """Raised for malformed or inconsistent config files."""


def _parse_bool(s):
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s):
    x = float(s)
    if not np.isfinite(x):
        raise ValueError(f"not a finite number: {s!r}")
    return x


def _parse_triple(s):
    parts = [_parse_float(p) for p in s.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers: {s!r}")
    return tuple(parts)


def _parse_ints(s):
    return tuple(int(p) for p in s.split(","))


def _parse_floats(s):
    return tuple(_parse_float(p) for p in s.split(","))


# key -> (parser, default, accepted values): the least value of a count,
# "positive" for a float that must exceed 0, the names a choice allows, or
# None for no check.  Unknown keys are config errors, and a key with no
# default has none or one its reader gives.
_KEYS = {
    "experiment": (str, None, None),
    "grid.L": (_parse_float, 1.0, None),
    "grid.N": (int, 32, None),
    "data.kind": (str, "shear", ("shear", "taylor-green", "random-band",
                                 "wave-packet", "composite")),
    "data.seed": (int, 0, None),
    "data.amplitude": (_parse_float, 1.0, None),
    "data.kmin": (int, 1, None),
    "data.kmax": (int, 3, None),
    "data.spectral_slope": (_parse_float, -2.0, None),
    "data.mean_zero": (_parse_bool, True, None),
    "data.packet_n": (int, 8, None),
    "data.packet_x0": (_parse_triple, None, None),
    "data.packet_width": (_parse_float, 0.1, "positive"),
    "data.packet_kmax": (_parse_float, 0.0, None),
    "forcing.kind": (str, "none", ("none", "random-band")),
    "forcing.amplitude": (_parse_float, 0.1, None),
    "forcing.samples": (int, 9, 1),
    "forcing.seed": (int, 1, None),
    "forcing.kmin": (int, 1, None),
    "forcing.kmax": (int, 2, None),
    "solver.method": (str, "evolve", ("evolve", "picard")),
    "solver.dt": (_parse_float, 1e-3, None),
    "solver.T": (_parse_float, 0.1, "positive"),
    "solver.eps": (_parse_float, 0.0, None),
    "solver.store_every": (int, 1, None),
    "solver.picard_tol": (_parse_float, None, None),
    "solver.picard_max_iters": (int, None, None),
    "solver.smallness_c": (_parse_float, None, None),
    "harness.delta": (_parse_float, None, "positive"),
    "harness.c": (_parse_float, None, "positive"),
    "harness.R": (_parse_float, None, None),
    "harness.r": (_parse_float, None, None),
    "harness.x0": (_parse_triple, None, None),
    "harness.region": (str, "ball", ENERGY_REGIONS),
    "localize.R1": (_parse_float, None, None),
    "localize.R2": (_parse_float, None, None),
    "localize.R3": (_parse_float, None, None),
    "localize.R4": (_parse_float, None, None),
    "localize.center": (_parse_triple, (0.0, 0.0, 0.0), None),
    "localize.l_max": (int, 24, 1),
    "localize.n_r": (int, 288, 2),
    "counterexample.n_list": (_parse_ints, (8, 16, 32), None),
    "counterexample.xi": (_parse_triple, None, None),
    "counterexample.eta": (_parse_triple, None, None),
    "counterexample.x0": (_parse_triple, None, None),
    "counterexample.component": (int, 0, None),
    "counterexample.psi_radius": (_parse_float, 0.7, None),
    "counterexample.norm_L": (_parse_float, 4.5, None),
    "counterexample.norm_N": (int, 128, None),
    "counterexample.pairing_L": (_parse_float, 9.0, None),
    "counterexample.pairing_N": (int, 256, None),
    "counterexample.doubling_n": (int, 8, None),
    "homogenize.alpha": (_parse_triple, None, None),
    "homogenize.lambdas": (_parse_floats, (1e2, 1e4), None),
    "homogenize.T": (_parse_float, 1.0, "positive"),
    "homogenize.expect": (str, "decay", ("decay", "no-decay")),
    "tol.residual": (_parse_float, 5e-2, None),
    "output.dir": (str, None, None),
}


@dataclass
class ExperimentConfig:
    """Validated, typed experiment parameters."""

    experiment: str
    values: dict = field(default_factory=dict)
    source: str = ""

    def get(self, key, default=None):
        """The value the config sets, else the key's default in _KEYS,
        else the default given here."""
        value = self.values.get(key, _KEYS[key][1])
        return default if value is None else value

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise ConfigError(f"{self.source}: missing required key {key!r} "
                              f"for experiment {self.experiment!r}")
        return v


def parse_config(path, experiment=None) -> ExperimentConfig:
    """Read a flat key=value config with '#' comments.

    Unknown, duplicate, and malformed keys are errors naming the offending
    line numbers.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    seen_lines = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, "
                                  f"got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in values:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} "
                    f"(first set on line {seen_lines[key]})"
                )
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _KEYS[key][0](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for "
                                  f"{key!r}: {exc}") from None
            seen_lines[key] = lineno
    name = values.pop("experiment", experiment)
    if name is None:
        raise ConfigError(f"{path}: no experiment named (config key "
                          "'experiment' or CLI argument)")
    if experiment is not None and name != experiment:
        raise ConfigError(
            f"{path}: config names experiment {name!r} but the command "
            f"line asked for {experiment!r}"
        )
    if name not in EXPERIMENTS:
        raise ConfigError(f"{path}: unknown experiment {name!r}; choose "
                          f"from {', '.join(EXPERIMENTS)}")
    return ExperimentConfig(name, values, source=path)


def _check_values(cfg: ExperimentConfig):
    """A config error for the first set or default value that its row of
    _KEYS does not accept, found before any data."""
    for key, (_, _, accepted) in _KEYS.items():
        value = cfg.get(key)
        if value is None or accepted is None:
            continue
        if accepted == "positive":
            ok, need = value > 0, "must be positive"
        elif isinstance(accepted, int):
            ok, need = value >= accepted, f"must be at least {accepted}"
        else:
            ok, need = value in accepted, (
                f"must be one of {', '.join(accepted)}")
        if not ok:
            raise ConfigError(f"{cfg.source}: {key} {need}, got {value!r}")


def load_baselines():
    """Frozen calibration constants, overridable via NSLAB_BASELINE_DIR."""
    override = os.environ.get("NSLAB_BASELINE_DIR")
    if override:
        path = os.path.join(override, "baselines.txt")
    else:
        path = os.path.join(os.path.dirname(__file__), "baselines.txt")
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = float(val)
    return out


# ---------------------------------------------------------------------------
# data generators


def _full_lattice_l2(u):
    """sp.l2_norm of u, summed over the full mode lattice in ``fftn`` order.

    The generators below normalise with this sum, so that their data keep,
    bit for bit, the values they had when fields were stored on the full
    lattice; verdicts made of rounding noise, such as cutoff-recession,
    depend on those bits.  |c(-k)| = |c(k)| fills the bins kz > N/2.
    """
    N = u.grid.N
    m = N // 2 + 1
    neg = np.r_[0, N - 1:0:-1]
    mag = np.abs(u.coeffs) ** 2
    full = np.empty(mag.shape[:-1] + (N,))
    full[..., :m] = mag
    full[..., m:] = mag[..., neg, :, :][..., neg, m - 2:0:-1]
    return float(np.sqrt(u.grid.L**3 * np.sum(full)))


def _random_band_field(grid, seed, kmin, kmax, slope, amplitude, mean_zero):
    kk = np.sqrt(grid.k_squared())
    band = (kk >= kmin) & (kk <= kmax)
    weight = np.zeros_like(kk)
    weight[band] = np.maximum(kk[band], 1.0) ** slope
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # weighted before its Hermitian part is taken, as the data always were
    # (see _full_lattice_l2); the weight depends on kz only through kz^2,
    # so mirroring its last axis spreads it over the full draw
    m = grid.N // 2 + 1
    coeffs *= weight[..., np.r_[0:m, m - 2:0:-1]]
    u = sp.leray_project(sp.vector_from_coeffs(grid, sp.hermitian_half(coeffs)))
    if mean_zero:
        c = u.coeffs.copy()
        c[:, 0, 0, 0] = 0.0
        u = sp.vector_from_coeffs(grid, c)
    norm = _full_lattice_l2(u)
    if norm == 0:
        raise ConfigError("random band is empty: no modes in [kmin, kmax]")
    return sp.vector_from_coeffs(grid, u.coeffs * (amplitude / norm))


def _shear_field(grid, amplitude):
    x = grid.nodes()[2]
    samples = np.zeros((3,) + grid.shape)
    samples[0] = amplitude * np.sin(2.0 * np.pi * x / grid.L)
    return sp.vector_from_samples(grid, samples)


def _taylor_green_field(grid, amplitude):
    x, y, _ = grid.nodes()
    tau = 2.0 * np.pi / grid.L
    samples = np.zeros((3,) + grid.shape)
    samples[0] = amplitude * np.sin(tau * x) * np.cos(tau * y)
    samples[1] = -amplitude * np.cos(tau * x) * np.sin(tau * y)
    return sp.vector_from_samples(grid, samples)


def _small_packet_field(grid, center, width, n, amplitude, kmax=0.0):
    """Compactly supported curl field oscillating at frequency n inside a
    ball of the given width; used as far-field clutter in localisation
    scenarios on unit boxes.  A positive kmax applies a smooth radial
    low-pass (unity below kmax, vanishing above 2 kmax) so the packet's
    spectral tail stays clear of the fastest dissipative modes."""
    dx = _centered_offsets(grid, center)
    rad = np.sqrt(sum(d * d for d in dx))
    env = radial_bump(rad / width)
    phase = np.sin(2.0 * np.pi * n * dx[0] / grid.L)
    stream = np.zeros((3,) + grid.shape)
    stream[2] = env * phase
    u = sp.curl(sp.vector_from_samples(grid, stream))
    if kmax > 0:
        u = sp.apply_multiplier(u, lp_profile(np.sqrt(grid.k_squared()) / kmax))
    nrm = _full_lattice_l2(u)
    scalefac = amplitude / nrm if nrm > 0 else 0.0
    return sp.vector_from_coeffs(grid, scalefac * u.coeffs)


def _checked(cfg: ExperimentConfig, make, *args, **kwargs):
    """make(*args, **kwargs), with the ValueError of a bad parameter
    reported as a config error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: {exc}") from None


def _grid(cfg: ExperimentConfig, L_key="grid.L", N_key="grid.N"):
    """The SpectralGrid a config names; a bad period or resolution is a
    config error, found before any data is generated."""
    return _checked(cfg, sp.make_grid, cfg.get(L_key), cfg.get(N_key))


def generate_data(kind, cfg: ExperimentConfig, grid) -> DataTriple:
    """Named deterministic initial-data generators; all divergence-free.
    kind is one of the data.kind names of _KEYS, which run checks."""
    seed = cfg.get("data.seed")
    amp = cfg.get("data.amplitude")
    if kind == "shear":
        u0 = _shear_field(grid, amp)
    elif kind == "taylor-green":
        u0 = _taylor_green_field(grid, amp)
    elif kind == "random-band":
        u0 = _random_band_field(
            grid, seed, cfg.get("data.kmin"), cfg.get("data.kmax"),
            cfg.get("data.spectral_slope"), amp, cfg.get("data.mean_zero"))
    elif kind == "wave-packet":
        spec = _checked(cfg, WavePacketSpec, n=cfg.get("data.packet_n"),
                        x0=cfg.get("data.packet_x0", (grid.L / 2.0,) * 3))
        # wave_packet checks the resolution before it builds anything
        u0 = _checked(cfg, wave_packet, spec, grid)
    else:  # composite
        u0 = _random_band_field(
            grid, seed, cfg.get("data.kmin"), cfg.get("data.kmax"),
            cfg.get("data.spectral_slope"), amp, cfg.get("data.mean_zero"))
        pkt = _small_packet_field(
            grid, cfg.get("data.packet_x0", (grid.L * 0.75,) * 3),
            cfg.get("data.packet_width"), cfg.get("data.packet_n"),
            amp, cfg.get("data.packet_kmax"))
        u0 = sp.vector_from_coeffs(grid, u0.coeffs + pkt.coeffs)
    # band-limit to the solver's dealiased range so that the discrete
    # energy identity is exact for the Galerkin truncation being evolved
    u0 = sp.dealias(u0)

    f = []
    if cfg.get("forcing.kind") == "random-band":
        f = [
            _random_band_field(
                grid, cfg.get("forcing.seed") + 1000 * i,
                cfg.get("forcing.kmin"), cfg.get("forcing.kmax"),
                cfg.get("data.spectral_slope"), cfg.get("forcing.amplitude"),
                True)
            for i in range(cfg.get("forcing.samples"))
        ]
    return DataTriple(u0, f, cfg.get("solver.T"))


# ---------------------------------------------------------------------------
# verdicts, manifests


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: float
    note: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  # {self.note}" if self.note else ""
        return (f"{self.name}: {status} value={self.value:.6e} "
                f"threshold={self.threshold:.6e}{extra}")


@dataclass
class RunManifest:
    """Record of one experiment run: config echo, version, timing, files
    with byte sizes, the verdict list, and the measured hypotheses of the
    inequality it checks, by tag."""

    experiment: str
    config: dict
    version: str
    wall_clock: float
    files: list
    verdicts: list
    hypotheses: dict
    error: str = ""

    def write(self, path):
        payload = {
            "experiment": self.experiment,
            "config": {k: _json_safe(v) for k, v in sorted(
                self.config.items())},
            "version": self.version,
            "wall_clock_s": round(self.wall_clock, 3),
            "files": self.files,
            "verdicts": [v.line() for v in self.verdicts],
            "hypotheses": self.hypotheses,
        }
        if self.error:
            payload["error"] = self.error
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _json_safe(v):
    if isinstance(v, tuple):
        return list(v)
    return v


class _Artifacts:
    def __init__(self, outdir):
        self.outdir = outdir
        self.files = []
        # hypothesis values an experiment measured, by inequality tag; the
        # manifest carries them
        self.hypotheses = {}
        os.makedirs(outdir, exist_ok=True)

    def path(self, name):
        p = os.path.join(self.outdir, name)
        self.files.append(name)
        return p

    def listing(self):
        out = []
        for name in self.files:
            p = os.path.join(self.outdir, name)
            if os.path.exists(p):
                out.append({"name": name, "bytes": os.path.getsize(p)})
        return out


def _write_verdicts(art, verdicts):
    with open(art.path("verdict.txt"), "w") as fh:
        for v in verdicts:
            fh.write(v.line() + "\n")


def _solver(cfg: ExperimentConfig):
    """(SolverConfig, method) of a config, checked, so that a bad parameter
    is a config error before any data is generated."""
    scfg = _checked(
        cfg, SolverConfig,
        dt=cfg.get("solver.dt"),
        eps=cfg.get("solver.eps"),
        store_every=cfg.get("solver.store_every"),
        **{k: cfg.values["solver." + k]
           for k in ("picard_tol", "picard_max_iters", "smallness_c")
           if "solver." + k in cfg.values},
    )
    return scfg, cfg.get("solver.method")


def _solve_states(cfg: ExperimentConfig, grid):
    """(data, scfg, states): the data and the checked SolverConfig of the
    run a config names, and the (t, u) of each of its stored states."""
    scfg, method = _solver(cfg)
    data = generate_data(cfg.get("data.kind"), cfg, grid)
    return data, scfg, _states(data, scfg, method)


def _states(data, scfg, method):
    """The stored states of a solve that starts when the first is drawn:
    the march, or the Picard fixed point."""
    if method == "evolve":
        yield from march(data, scfg)
    else:
        traj = picard_solve(data, scfg)
        yield from zip(traj.times, traj.velocities)


# ---------------------------------------------------------------------------
# experiments


def _exp_solve(cfg, art, baselines):
    data, _, states = _solve_states(cfg, _grid(cfg))
    rows, sup, last = [], [], None

    def passing(states):
        # one pass: each state's diagnostic row and sup norm are taken as
        # it passes on to its pressure and the residual
        nonlocal last
        for t, u in recording_rows(states, data, rows):
            sup.append(sp.sup_norm(u))
            last = t, u
            yield t, u

    res = residual(pressured(passing(states), data), data,
                   cfg.get("solver.eps"))
    tol = cfg.get("tol.residual")
    diagnostics_table(rows).to_csv(art.path("diagnostics.csv"), np.array(sup),
                                   residual=res)
    t, u = last
    sp.write_field(art.path("final_velocity.field"), u, time=t)
    rmax = float(np.max(res)) if len(res) else 0.0
    return [Verdict("residual", rmax <= tol, rmax, tol)]


def _exp_energy_budget(cfg, art, baselines):
    grid = _grid(cfg)
    cut = None
    region = cfg.get("harness.region")
    if "harness.R" in cfg.values:
        cut = _checked(cfg, StaticCutoff, cfg.require("harness.x0"),
                       cfg.require("harness.R"), cfg.require("harness.r"))
    data, _, states = _solve_states(cfg, grid)
    # one pass over the states: each state's row is recorded as it passes
    # on to the local budget
    rows = []
    states = recording_rows(states, data, rows)
    if cut is None:
        for _ in states:
            pass
    else:
        local = energy_budget(states, cut, data, region=region)
    d = diagnostics_table(rows)
    np.savetxt(art.path("budget_global.csv"), np.column_stack([d.t, d.energy]),
               delimiter=",", header="t,energy", comments="")
    defect, ratio = energy_identity(d, cfg.get("solver.eps"), data)
    verdicts = [Verdict("global-budget",
                        defect <= 1e-4 and ratio <= 1.0 + 1e-4, defect, 1e-4,
                        note="ul2-en")]
    if cut is not None:
        thr_local = baselines["local_energy_ratio_max"]
        verdicts.append(Verdict(f"local-budget-{region}", local <= thr_local,
                                local, thr_local, note="local-energy"))
    return verdicts


def _exp_total_speed(cfg, art, baselines):
    grid = _grid(cfg)
    T = cfg.get("solver.T")
    if T > grid.L**2 * (1.0 + 1e-12):
        raise ConfigError(f"{cfg.source}: the total speed bound needs "
                          f"T <= L^2; got solver.T = {T}, L^2 = {grid.L**2}")
    data, _, states = _solve_states(cfg, grid)
    value, ratio = total_speed(states, data)
    np.savetxt(art.path("total_speed.csv"),
               np.array([[value, ratio]]), delimiter=",",
               header="integral_sup,ratio", comments="")
    thr = baselines["total_speed_ratio_max"]
    return [Verdict("total-speed", ratio <= thr, ratio, thr, note="l1x")]


def _exp_enstrophy(cfg, art, baselines):
    grid = _grid(cfg)
    ball = (cfg.require("harness.x0"), cfg.require("harness.R"))
    delta, c, r = (cfg.require("harness.delta"), cfg.require("harness.c"),
                   cfg.require("harness.r"))
    data, scfg, states = _solve_states(cfg, grid)
    # the hypotheses need the data and the horizon only, so they are
    # checked before the first state is drawn, over the last stored time
    n_steps, dt = _time_grid(data, scfg)
    try:
        art.hypotheses = enstrophy_hypotheses(ball, delta, c, r, data,
                                              n_steps * dt)
    except HypothesisError as exc:
        art.hypotheses = exc.measured
        return [Verdict("enstrophy-hypotheses", False, float("nan"),
                        float("nan"), note=exc.tag)]
    rep = enstrophy_localisation(states, ball, delta, c, r)
    np.savetxt(art.path("enstrophy.csv"),
               np.column_stack([rep.times, rep.W, rep.radius_path]),
               delimiter=",", header="t,W,R_prime", comments="")
    thr = baselines["enstrophy_K"]
    verdicts = [
        Verdict("enstrophy-conclusion", rep.conclusion_ratio <= thr,
                rep.conclusion_ratio, thr, note="wdef"),
        Verdict("cutoff-recession", rep.tax_violation <= 1e-6,
                rep.tax_violation, 1e-6, note="tax"),
    ]
    return verdicts


def _exp_localize(cfg, art, baselines):
    grid = _grid(cfg)
    spec = _checked(cfg, AnnulusSpec, cfg.require("localize.R1"),
                    cfg.require("localize.R2"), cfg.require("localize.R3"),
                    cfg.require("localize.R4"),
                    cfg.get("localize.center"))
    data = generate_data(cfg.get("data.kind"), cfg, grid)
    sampler = spectral_sampler(data.u0)
    try:
        sph = localize_divfree(sampler, spec,
                               l_max=cfg.get("localize.l_max"),
                               n_r=cfg.get("localize.n_r"))
    except ValueError as exc:
        return [Verdict("localize", False, float("nan"), float("nan"),
                        note=str(exc))]
    div = sph.divergence_defect()
    tail = sph.tail_fraction()
    flux = abs(sph.flux_fraction)
    u_loc = to_torus_field(sph, grid)
    denom = [sobolev_norm(data.u0, k + 1.0) for k in (0, 1)]
    ratios = [sobolev_norm(u_loc, float(k)) / denom[k] for k in (0, 1)]
    np.savetxt(art.path("localize.csv"),
               np.array([[div, flux, tail, ratios[0], ratios[1]]]),
               delimiter=",",
               header="divergence_defect,flux_fraction,tail_fraction,"
                      "hk_ratio_0,hk_ratio_1",
               comments="")
    verdicts = [
        Verdict("divergence-free", div <= 1e-8, div, 1e-8),
        Verdict("flux-free", flux <= 1e-8, flux, 1e-8),
        Verdict("tail", tail <= 1e-6, tail, 1e-6),
    ]
    for k in (0, 1):
        thr = baselines[f"divloc_K{k}"]
        verdicts.append(Verdict(f"hk-ratio-{k}", ratios[k] <= thr,
                                ratios[k], thr, note="quant"))
    return verdicts


def _exp_counterexample(cfg, art, baselines):
    kwargs = {}
    for key, name in (("counterexample.xi", "xi"),
                      ("counterexample.eta", "eta_dir"),
                      ("counterexample.x0", "x0")):
        if key in cfg.values:
            kwargs[name] = cfg.values[key]
    template = _checked(
        cfg, WavePacketSpec, n=8, component=cfg.get("counterexample.component"),
        psi_radius=cfg.get("counterexample.psi_radius"), **kwargs)
    norm_grid = _grid(cfg, "counterexample.norm_L", "counterexample.norm_N")
    pairing_grid = _grid(cfg, "counterexample.pairing_L",
                         "counterexample.pairing_N")
    _checked(cfg, check_study, template, cfg.get("counterexample.n_list"),
             norm_grid, pairing_grid, cfg.get("counterexample.doubling_n"))
    table = growth_study(template, cfg.get("counterexample.n_list"),
                         norm_grid, pairing_grid,
                         cfg.get("counterexample.doubling_n"))
    table.to_csv(art.path("growth.csv"))
    table.to_gnuplot(art.path("growth.dat"))
    ratios = np.abs(table.X0[1:] / table.X0[:-1])
    h1r = table.h1[1:] / table.h1[:-1]
    h2r = table.h2[1:] / table.h2[:-1]
    verdicts = [
        Verdict("x0-slope", table.slope >= 0.8, table.slope, 0.8),
        Verdict("x0-ratio-min", float(ratios.min()) >= 1.5,
                float(ratios.min()), 1.5),
        Verdict("h1-scaling",
                bool(np.all(np.abs(h1r / 2.0**-0.5 - 1.0) <= 0.15)),
                float(np.max(np.abs(h1r / 2.0**-0.5 - 1.0))), 0.15),
        Verdict("h2-scaling",
                bool(np.all(np.abs(h2r / 2.0**0.5 - 1.0) <= 0.15)),
                float(np.max(np.abs(h2r / 2.0**0.5 - 1.0))), 0.15),
        Verdict("box-doubling", table.doubling <= 0.02, table.doubling,
                0.02),
    ]
    return verdicts


def _exp_homogenize(cfg, art, baselines):
    grid = _grid(cfg)
    f = [_random_band_field(grid, cfg.get("forcing.seed"),
                            cfg.get("forcing.kmin"), cfg.get("forcing.kmax"),
                            cfg.get("data.spectral_slope"),
                            cfg.get("forcing.amplitude"), True)]
    phi = [_random_band_field(grid, cfg.get("data.seed") + 77,
                              cfg.get("data.kmin"), cfg.get("data.kmax"),
                              cfg.get("data.spectral_slope"),
                              cfg.get("data.amplitude"), True)]
    alpha = cfg.require("homogenize.alpha")
    lambdas = cfg.get("homogenize.lambdas")
    table = weak_pairing_decay(f, phi, alpha, lambdas,
                               cfg.get("homogenize.T"))
    table.to_csv(art.path("decay.csv"))
    lo, hi = float(table.values[0]), float(table.values[-1])
    if cfg.get("homogenize.expect") == "decay":
        return [Verdict("pairing-decay", hi <= lo / 3.0, hi, lo / 3.0,
                        note=f"min_phase={table.min_phase:.3e}")]
    return [Verdict("pairing-no-decay", hi > lo / 3.0, hi, lo / 3.0,
                    note="rational direction control")]


def _exp_symmetry(cfg, art, baselines):
    grid = _grid(cfg)
    data, scfg, states = _solve_states(cfg, grid)
    eps = scfg.eps
    # the stored time grid is known before the march, and with it the
    # image of every state under every transform
    times = stored_times(data, scfg)
    L = grid.L
    shifted = TimeTranslate(float(times[len(times) // 2]))
    vtimes = np.linspace(0.0, data.T, 5)
    vconst = np.tile(np.array([0.04, -0.015, 0.025]), (5, 1))
    q = sp.scalar_from_samples(grid, np.cos(
        2.0 * np.pi * grid.nodes()[0] / L))
    transforms = [
        ("space-translate", SpaceTranslate((0.3 * L, 0.1 * L, 0.7 * L))),
        ("time-translate", shifted),
        ("scale", Scale(2.0)),
        ("pressure-shift", PressureShift(1.234)),
        ("galilean", Galilean(vconst.copy())),
        ("galilean-time", Galilean(
            np.outer(vtimes, np.array([0.05, 0.0, -0.03])),
            v_dot=np.tile(np.array([0.05, 0.0, -0.03]), (5, 1)))),
        ("forcing-gauge", Forcing([q])),
    ]
    images = {name: state_map(tr, times) for name, tr in transforms}
    base = MomentumResidual(data, eps)
    # the residual of each image on the transformed data; a rescaling by
    # lam stretches time by lam^2, and the equation keeps its form only
    # with eps scaled by lam^2 as well.  The time translate's data is the
    # first state of its image, so its residual starts when that arrives.
    reductions = {
        name: MomentumResidual(apply(tr, data), eps * tr.lam**2
                               if isinstance(tr, Scale) else eps)
        for name, tr in transforms if tr is not shifted}
    for j, state in enumerate(pressured(states, data)):
        base.push(state)
        moved = {name: image(j, *state) for name, image in images.items()}
        if "time-translate" not in reductions and moved["time-translate"]:
            reductions["time-translate"] = MomentumResidual(DataTriple(
                moved["time-translate"][1], [],
                max(data.T - shifted.t0, cfg.get("solver.dt"))), eps)
        for name, image in moved.items():
            if image is not None:
                reductions[name].push(image)
        if j == 0:
            # energies by the diagnostic row's sums, which a power-of-two
            # scaling maps exactly (spaces.energy reads 2 +- 4e-16 on some
            # data)
            e_ratio = (_diag_row(moved["scale"][1], None)[0]
                       / _diag_row(state[1], None)[0])
    base = float(np.max(base.result()))
    verdicts = []
    rows = []
    for name, _ in transforms:
        r = float(np.max(reductions[name].result()))
        increase = max(r - base, 0.0)
        rows.append((name, base, r, increase))
        verdicts.append(Verdict(f"residual-{name}", increase <= 1e-6,
                                increase, 1e-6))
    with open(art.path("symmetry.csv"), "w") as fh:
        fh.write("transform,base_residual,residual,increase\n")
        for name, b, r, inc in rows:
            fh.write(f"{name},{b:.17e},{r:.17e},{inc:.17e}\n")
    verdicts.append(Verdict("scale-energy", abs(e_ratio - 2.0) <= 1e-6,
                            float(e_ratio), 2.0, note="scaling"))
    # the last state's image under the space translation
    mean_def = float(np.max(np.abs(np.real(
        moved["space-translate"][1].mean()))))
    verdicts.append(Verdict("mean-zero", mean_def <= 1e-12, mean_def, 1e-12,
                            note="meanzero-3"))
    return verdicts


_DISPATCH = {
    "solve": _exp_solve,
    "energy-budget": _exp_energy_budget,
    "total-speed": _exp_total_speed,
    "enstrophy-loc": _exp_enstrophy,
    "localize": _exp_localize,
    "counterexample": _exp_counterexample,
    "homogenize": _exp_homogenize,
    "symmetry-suite": _exp_symmetry,
}

EXPERIMENTS = tuple(_DISPATCH)


def run(cfg: ExperimentConfig, outdir=None) -> tuple:
    """Execute one experiment; returns (manifest, exit_code).

    A manifest is written even when the experiment errors out.
    """
    outdir = outdir or cfg.get("output.dir") or f"out-{cfg.experiment}"
    art = _Artifacts(outdir)
    t0 = time.time()
    verdicts, error, code = [], "", 0
    try:
        _check_values(cfg)
        verdicts = _DISPATCH[cfg.experiment](cfg, art, load_baselines())
        if not all(v.passed for v in verdicts):
            code = 1
    except ConfigError as exc:
        error, code = str(exc), 2
    except (RuntimeError, FloatingPointError, MemoryError, ValueError) as exc:
        error, code = f"numerical abort: {exc}", 3
    except Exception:
        # anything else is an abort too, with its traceback in the error
        # text, so that the process still exits 3 with a manifest
        error, code = f"numerical abort: {traceback.format_exc()}", 3
    _write_verdicts(art, verdicts)
    manifest = RunManifest(
        experiment=cfg.experiment,
        config=dict(cfg.values),
        version=__version__,
        wall_clock=time.time() - t0,
        files=[],
        verdicts=verdicts,
        hypotheses=art.hypotheses,
        error=error,
    )
    manifest_path = os.path.join(outdir, "manifest.json")
    manifest.files = art.listing()
    manifest.write(manifest_path)
    return manifest, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nslab",
        description="Periodic Navier-Stokes laboratory experiment runner")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, experiment=args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.values["data.seed"] = args.seed
    manifest, code = run(cfg, outdir=args.out)
    for v in manifest.verdicts:
        print(v.line())
    if manifest.error:
        print(manifest.error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
