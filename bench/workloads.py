"""Experiment configs of the benchmark workloads.

Each config family is a list of (name, config text) pairs written in the
flat ``key = value`` format of ``configs/``; a workload runs two families.
They follow shipped configs with the step counts and box sizes scaled down
so that one pass takes a few seconds (see README.md for the scaling and the
reasons).  The only input that varies is ``data.seed``; the benchmark maps
its ``--seed`` onto one of the data seeds recorded in ``references.json``.
"""

from __future__ import annotations

import os

# total_speed_01 with 100 steps instead of 1000: stepping plus a stored
# diagnostic row every second step, all read by total_speed.
MARCH = [("march", """\
experiment = total-speed
grid.L = 1.0
grid.N = 32
data.kind = random-band
data.seed = {seed}
data.amplitude = 1.0
data.kmin = 1
data.kmax = 3
data.spectral_slope = -2.0
solver.dt = 5e-4
solver.T = 0.05
solver.store_every = 2
""")]

# energy_local_02 with 30 steps instead of 400 (amplitude 2.0 instead of
# 0.5, which fails the local budget on so short a horizon), plus the
# enstrophy_01 scenario at N=48 with 12 steps instead of 20; the two take
# about the same time.
LOCALISE = [("energy_local", """\
experiment = energy-budget
grid.L = 1.0
grid.N = 32
data.kind = random-band
data.seed = {seed}
data.amplitude = 2.0
data.kmax = 4
solver.dt = 2.5e-4
solver.T = 0.0075
harness.x0 = 0.25, 0.25, 0.75
harness.R = 0.35
harness.r = 0.12
harness.region = ball
"""), ("enstrophy", """\
experiment = enstrophy-loc
grid.L = 1.0
grid.N = 48
data.kind = composite
data.seed = {seed}
data.amplitude = 0.04
data.kmin = 1
data.kmax = 3
data.packet_x0 = 0.7, 0.7, 0.7
data.packet_width = 0.12
data.packet_n = 6
solver.dt = 5e-6
solver.T = 6e-5
solver.store_every = 4
harness.delta = 3.0
harness.c = 0.01
harness.R = 0.45
harness.r = 0.15
harness.x0 = 0.2, 0.2, 0.2
""")]

# picard_small with 15 steps instead of 100: Duhamel iteration, residual
# and the final field dump.
PICARD = [("picard", """\
experiment = solve
grid.L = 1.0
grid.N = 32
data.kind = random-band
data.seed = {seed}
data.amplitude = 0.25
solver.method = picard
solver.dt = 2e-4
solver.T = 0.003
tol.residual = 5e-2
""")]

# counterexample on a 160^3 pairing box with n = 10, 20 instead of 256^3
# with n = 8, 16, 32 (the frequencies keep the fitted slope above 0.8),
# plus localize_01 on a 16^3 grid with 96 radial nodes instead of 32^3 and
# 288.  No time stepping.
GEOMETRY = [("counterexample", """\
experiment = counterexample
counterexample.n_list = 10, 20
counterexample.norm_N = 80
counterexample.pairing_N = 160
"""), ("localize", """\
experiment = localize
grid.L = 1.0
grid.N = 16
data.kind = random-band
data.seed = {seed}
data.amplitude = 1.0
data.kmax = 3
localize.R1 = 0.12
localize.R2 = 0.2
localize.R3 = 0.32
localize.R4 = 0.42
localize.center = 0.5, 0.5, 0.5
localize.n_r = 96
""")]

# A pass of well under a second for the benchmark's own tests: a short
# march at N=16 and a short Picard solve.
SMOKE = [("smoke_march", """\
experiment = total-speed
grid.L = 1.0
grid.N = 16
data.kind = random-band
data.seed = {seed}
data.amplitude = 1.0
solver.dt = 5e-4
solver.T = 0.005
solver.store_every = 2
"""), ("smoke_picard", """\
experiment = solve
grid.L = 1.0
grid.N = 16
data.kind = random-band
data.seed = {seed}
data.amplitude = 0.25
solver.method = picard
solver.dt = 2e-4
solver.T = 0.002
tol.residual = 5e-2
""")]

# Two workloads of two config families each, so that a run can be long
# enough to average over the host's slow and fast stretches (see
# README.md): time stepping, and localisation post-processing plus
# geometry.
WORKLOADS = {
    "stepping": MARCH + PICARD,
    "localisation": LOCALISE + GEOMETRY,
    "smoke": SMOKE,
}

# configs that do no time stepping; their time is left out of steps_per_s
NO_STEPS = frozenset(name for name, _ in GEOMETRY)


def write_configs(workload: str, data_seed: int, directory: str) -> list:
    """Write the workload's configs for one data seed; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, text in WORKLOADS[workload]:
        path = os.path.join(directory, name + ".cfg")
        with open(path, "w") as fh:
            fh.write(text.format(seed=data_seed))
        paths.append(path)
    return paths


def field_bytes(N: int, itemsize: int = 16, components: int = 3) -> int:
    """Bytes of one field on an N^3 grid (complex128 vector by default)."""
    return components * N**3 * itemsize


# The largest single field each workload touches, for comparison with the
# cache sizes in the machine facts.
WORKING_SET = {
    "stepping": {"complex vector field, N=32": field_bytes(32)},
    "localisation": {"complex vector field, N=32": field_bytes(32),
                     "complex vector field, N=48": field_bytes(48),
                     "float32 scalar, 160^3 pairing box":
                         field_bytes(160, 4, 1),
                     "complex vector field, 80^3 norm box": field_bytes(80),
                     "complex vector field, N=16": field_bytes(16),
                     "float32 scalar, 256^3 (shipped counterexample)":
                         field_bytes(256, 4, 1)},
    "smoke": {"complex vector field, N=16": field_bytes(16)},
}
