#!/usr/bin/env python3
"""Run every shipped config and print a one-line summary per run.

Useful as a smoke test after touching the solver or the harnesses;
exits nonzero if any run does.  Output directories go under --out
(default out/), one subdirectory per config.
"""

import argparse
import glob
import os
import sys
import time

from nslab import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    worst = 0
    for path in sorted(glob.glob(os.path.join(REPO, "configs", "*.cfg"))):
        name = os.path.splitext(os.path.basename(path))[0]
        cfg = cli.parse_config(path)
        t0 = time.time()
        manifest, code = cli.run(cfg, outdir=os.path.join(args.out, name))
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{name:24s} {status:8s} {time.time() - t0:7.1f}s  "
              + "; ".join(v.line() for v in manifest.verdicts))
        if manifest.error:
            print(f"{'':24s} {manifest.error}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
