#!/usr/bin/env python3
"""Run every shipped config and print a one-line summary per run.

Each config runs in its own child process
(``python -m nslab.cli <experiment> --config ... --out ...``), so that the
peak resident set size printed for it is that config's alone: it is the
child's ``ru_maxrss``, read with ``os.wait4``.  A summary line holds the
child's exit code, its wall time, its peak RSS and its verdict lines;
whatever the child wrote to stderr follows, indented.  Useful as a smoke
test after touching the solver or the harnesses; exits nonzero if any run
does.  Output directories go under --out (default out/), one subdirectory
per config.
"""

import argparse
import glob
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from nslab import cli  # noqa: E402


def run_child(experiment, config, outdir):
    """(exit code, wall seconds, peak RSS in MB, stdout, stderr) of one
    config run in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "nslab.cli", experiment, "--config", config,
         "--out", outdir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    # the child is reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    # ru_maxrss is in kilobytes on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out, err


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    worst = 0
    for path in sorted(glob.glob(os.path.join(REPO, "configs", "*.cfg"))):
        name = os.path.splitext(os.path.basename(path))[0]
        experiment = cli.parse_config(path).experiment
        code, wall, peak, out, err = run_child(
            experiment, path, os.path.join(args.out, name))
        print(f"{name:24s} exit {code}  {wall:7.1f}s  {peak:7.1f} MB  "
              + "; ".join(out.splitlines()), flush=True)
        for line in err.splitlines():
            print(f"{'':24s} {line}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
