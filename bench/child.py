"""One pass of a benchmark workload, in a fresh interpreter.

    python3 child.py --result R.json --out DIR [--trace] [--setup-only] CFG...

Imports ``nslab.cli``, parses every config and records the monotonic time
at which that finished (the parent subtracts its own spawn time to get the
set-up time).  Unless ``--setup-only`` is given, it then runs each config
through ``cli.run`` and writes to R.json the run time, the peak resident
memory, each experiment's exit code and full-precision verdicts and, with
``--trace``, the spans of every layer call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)

    from nslab import cli

    configs = [cli.parse_config(path) for path in args.configs]
    result = {"setup_done": time.monotonic()}
    if not args.setup_only:
        result.update(_run(cli, args, configs))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _run(cli, args, configs):
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    experiments = []
    run_s = 0.0
    for path, cfg in zip(args.configs, configs):
        name = os.path.splitext(os.path.basename(path))[0]
        t0 = time.perf_counter()
        if tracer is None:
            manifest, code = cli.run(cfg, outdir=os.path.join(args.out, name))
        else:
            span = tracer.open("cli.run")
            manifest, code = cli.run(cfg, outdir=os.path.join(args.out, name))
            tracer.close(span)
        took = time.perf_counter() - t0
        run_s += took
        experiments.append({
            "config": name,
            "run_s": took,
            "exit": code,
            "error": manifest.error,
            "verdicts": [[v.name, bool(v.passed), float(v.value),
                          float(v.threshold)] for v in manifest.verdicts],
            "artifact_bytes": sum(f["bytes"] for f in manifest.files),
        })
    out = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "experiments": experiments,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
