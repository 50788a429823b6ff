#!/usr/bin/env python3
"""nslab benchmark: runs the workloads and reports the metrics.

    python3 bench/run.py --workload stepping --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --record

Run from the root of a source tree (``src/nslab`` next to ``bench/``).
Each pass of a workload runs the workload's configs through
``nslab.cli.run`` in a fresh child interpreter, one child at a time.
Passes repeat until ``--seconds`` is spent; every pass is checked against
the reference exit codes and verdict values in ``references.json``.

With ``--trace 0`` the end-to-end metrics are reported (medians over the
passes); with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics of the traced passes are reported.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a result file with every sample
and the machine facts goes to ``.bench_out/results/``.

``--record`` re-records ``references.json`` from the current tree.  It is
meant to be run once, at the commit that defines the references.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
OUT = os.path.join(ROOT, ".bench_out")

BENCH_WORKLOADS = ("stepping", "localisation")
END_TO_END = (("run_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# With --trace 0, one set-up-only child runs before each pass, so that
# the set-up samples are spread over the run like the passes; another one
# runs first, untimed, to warm the file cache.
# a run stops starting passes past this many seconds, whatever --seconds
HARD_LIMIT_S = 150.0
# verdict values must agree with the reference to this relative tolerance,
# with this absolute floor
RTOL, ATOL = 1e-9, 1e-14
# data seeds tried by --record
RECORD_CANDIDATES = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no references)."""


# ---------------------------------------------------------------------------
# one child process


def _spawn(workdir, tag, config_paths, trace=False, setup_only=False,
           timeout=HARD_LIMIT_S):
    """Run child.py once; returns its result dict with ``setup_s`` and
    ``wall_s`` added, or None when the child failed or timed out."""
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, tag + ".json")
    out_dir = os.path.join(workdir, tag)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--result", result_path, "--out", out_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += config_paths
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    log_path = os.path.join(workdir, tag + ".log")
    t0 = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall = time.monotonic() - t0
    shutil.rmtree(out_dir, ignore_errors=True)
    if code != 0 or not os.path.exists(result_path):
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        print(f"child {tag} failed (exit {code}):\n{tail}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    os.remove(log_path)
    result["setup_s"] = result.pop("setup_done") - t0
    result["wall_s"] = wall
    return result


# ---------------------------------------------------------------------------
# correctness


def _close(value, ref):
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    return abs(value - ref) <= max(RTOL * abs(ref), ATOL)


def mismatches(experiments, reference):
    """Differences between a pass's experiments and the reference ones:
    exit codes, verdict names and outcomes, and values beyond RTOL/ATOL."""
    out = []
    if [e["config"] for e in experiments] != [e["config"] for e in reference]:
        return ["experiments differ from the reference"]
    for got, ref in zip(experiments, reference):
        name = got["config"]
        if got["exit"] != ref["exit"]:
            out.append(f"{name}: exit {got['exit']} != {ref['exit']}")
        if len(got["verdicts"]) != len(ref["verdicts"]):
            out.append(f"{name}: {len(got['verdicts'])} verdicts != "
                       f"{len(ref['verdicts'])}")
            continue
        for g, r in zip(got["verdicts"], ref["verdicts"]):
            if g[0] != r[0] or g[1] != r[1]:
                out.append(f"{name}: verdict {g[:2]} != {r[:2]}")
            elif not (_close(g[2], r[2]) and _close(g[3], r[3])):
                out.append(f"{name}: {g[0]} value={g[2]!r} threshold={g[3]!r}"
                           f" != value={r[2]!r} threshold={r[3]!r}")
    return out


def load_references(path=REFERENCES):
    if not os.path.exists(path):
        raise BenchError(f"no reference file {path}; run --record first")
    with open(path) as fh:
        return json.load(fh)


def reference_for(refs, workload, seed):
    """The reference entry that --seed selects: the accepted data seeds
    are taken in turn."""
    seeds = refs["workloads"][workload]["seeds"]
    return seeds[seed % len(seeds)]


def overhead_frac(passes):
    """Median over adjacent (untraced, traced) pass pairs of traced
    ``run_s`` / untraced ``run_s`` - 1; pairing adjacent passes cancels
    most of the host's slow and fast stretches."""
    ratios = [traced["run_s"] / plain["run_s"] - 1.0
              for plain, traced in zip(passes[0::2], passes[1::2])
              if "run_s" in plain and "run_s" in traced]
    return statistics.median(ratios)


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values):
    """(p, value) for the highest of p99.9, p99, p90 with at least ten
    samples beyond it, by nearest rank; None when there are too few."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            rank = math.ceil(p / 100.0 * n)
            return p, sorted(values)[rank - 1]
    return None


def summary(values):
    out = {"median": statistics.median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


# ---------------------------------------------------------------------------
# machine facts


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_facts(workload_names):
    import numpy
    import scipy
    import scipy.fft

    return {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "load_avg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "scipy.fft default (pocketfft)",
        "fft_workers": scipy.fft.get_workers(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "caches": _cache_sizes(),
        "working_set_bytes": {w: workloads.WORKING_SET[w]
                              for w in workload_names},
    }


# ---------------------------------------------------------------------------
# one run of one workload


def measure(workload, seed, seconds, trace, refs, workdir):
    """Run passes of one workload until the time is spent; returns a dict
    with the samples, the failures and the metrics."""
    ref = reference_for(refs, workload, seed)
    paths = workloads.write_configs(workload, ref["data_seed"],
                                    os.path.join(workdir, "configs"))
    budget = min(seconds, HARD_LIMIT_S)
    start = time.monotonic()

    def left():
        return HARD_LIMIT_S - (time.monotonic() - start)

    setups = []

    def setup_sample(tag):
        res = _spawn(workdir, tag, paths, setup_only=True, timeout=left())
        if res is None:
            raise BenchError("set-up child failed")
        return res

    wall = setup_sample("warm")["wall_s"]
    # --trace 1 alternates untraced and traced passes, at least two of
    # each: two traced passes to compare counts between, and two of each
    # for the overhead
    min_passes = 4 if trace else 1
    passes, failures = [], []
    while True:
        cycle_start = time.monotonic()
        if not trace:
            res = setup_sample(f"setup{len(passes)}")
            setups.append(res["setup_s"])
            wall = res["wall_s"]
        traced = trace and len(passes) % 2 == 1
        res = _spawn(workdir, f"pass{len(passes)}", paths, trace=traced,
                     timeout=left())
        if res is None:
            failures.append(f"pass {len(passes)}: child failed")
            passes.append({"traced": traced, "ok": False})
            break
        problems = mismatches(res["experiments"], ref["experiments"])
        failures += [f"pass {len(passes)}: {p}" for p in problems]
        res.update(traced=traced, ok=not problems)
        if traced:
            res["layers"] = tracing.layer_metrics(
                res.pop("spans"),
                sum(e["artifact_bytes"] for e in res["experiments"]))
        setups.append(res["setup_s"])
        passes.append(res)
        now = time.monotonic()
        ends = now - start + (now - cycle_start)
        if len(passes) >= min_passes and ends > budget:
            break
    # set-up-only children fill the rest of --seconds
    while (not trace and passes[-1]["ok"]
           and time.monotonic() - start + wall <= budget):
        res = setup_sample(f"fill{len(setups)}")
        setups.append(res["setup_s"])
        wall = res["wall_s"]

    done = [p for p in passes if "run_s" in p]
    plain = [p for p in done if not p["traced"]]
    layers = [p["layers"] for p in done if p["traced"]]
    out = {
        "workload": workload,
        "seed": seed,
        "data_seed": ref["data_seed"],
        "attempted": len(passes),
        "failed": sum(not p["ok"] for p in passes),
        "failures": failures,
        "setup_s": setups,
        "passes": [{k: v for k, v in p.items() if k != "experiments"}
                   for p in passes],
    }
    out["failed_frac"] = out["failed"] / out["attempted"]
    if not plain or (trace and not layers):
        return out
    run_s = [p["run_s"] for p in plain]
    out["summary"] = {
        "run_s": summary(run_s),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain]),
        "setup_s": summary(setups),
    }
    for i, exp in enumerate(plain[0]["experiments"]):
        out["summary"][f"run_s.{exp['config']}"] = summary(
            [p["experiments"][i]["run_s"] for p in plain])
    steps = refs["workloads"][workload]["counts"]["solver.steps"]
    if steps:
        # steps per second of the configs that step
        stepping_s = [sum(e["run_s"] for e in p["experiments"]
                          if e["config"] not in workloads.NO_STEPS)
                      for p in plain]
        out["summary"]["steps_per_s"] = summary([steps / t
                                                 for t in stepping_s])
    metrics = {name: {"value": out["summary"][name]["median"], "unit": unit}
               for name, unit in END_TO_END}
    if trace:
        out["count_mismatches"] = tracing.count_mismatches(layers)
        if out["count_mismatches"]:
            failures.append("counts differ between traced passes: "
                            + ", ".join(out["count_mismatches"]))
        med = tracing.median_metrics(layers)
        med["trace.overhead_frac"] = overhead_frac(passes)
        units = dict(tracing.LAYER_METRICS, **{"trace.overhead_frac": "ratio"})
        metrics = {name: {"value": med[name], "unit": units[name]}
                   for name in units}
    out["metrics"] = metrics
    out["correct"] = not failures
    return out


def _print_run(res, trace):
    print(f"{res['workload']}: seed {res['seed']} (data.seed "
          f"{res['data_seed']}), {res['attempted']} passes")
    for line in res["failures"]:
        print("  FAIL " + line)
    print(f"  {'failed_frac':12s} {res['failed_frac']:g} ratio"
          f"  ({res['failed']} of {res['attempted']} passes failed)")
    if trace:
        for name, m in res.get("metrics", {}).items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        return
    units = dict(END_TO_END, steps_per_s="1/s")
    for name, s in res.get("summary", {}).items():
        extra = "".join(f"  {k} {v:.6g}" for k, v in s.items()
                        if k not in ("median", "n"))
        unit = units.get(name.split(".")[0])
        print(f"  {name:22s} median {s['median']:.6g} {unit}"
              f"  n={s['n']}{extra}")


def _write_result(name, payload):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", name + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return path


def bench(args):
    refs = load_references()
    names = BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts(names)
    runs = []
    for name in names:
        workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
        try:
            runs.append(measure(name, args.seed, args.seconds, args.trace,
                                refs, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        _print_run(runs[-1], args.trace)
    path = _write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        {"machine": facts, "seconds": args.seconds, "runs": runs})
    print(f"result file: {path}")
    if len(runs) == 1:
        metrics = runs[0].get("metrics", {})
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs
                   for k, v in r.get("metrics", {}).items()}
    print(json.dumps({
        "correct": all(r.get("correct", False) for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# recording references


def record():
    """Run one traced pass per candidate data seed and workload, and keep
    the seeds whose runs do the workload's whole work (see README.md)."""
    refs = {"workloads": {}}
    for name in workloads.WORKLOADS:
        seen = []
        for data_seed in range(RECORD_CANDIDATES):
            workdir = os.path.join(OUT, f"record-{name}-{data_seed}")
            try:
                paths = workloads.write_configs(name, data_seed, workdir)
                res = _spawn(workdir, "pass", paths, trace=True,
                             timeout=900.0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if res is None:
                raise BenchError(f"{name} seed {data_seed}: child failed")
            layers = tracing.layer_metrics(
                res["spans"],
                sum(e["artifact_bytes"] for e in res["experiments"]))
            counts = {k: layers[k] for k in tracing.EXACT_COUNTS}
            seen.append({"data_seed": data_seed,
                         "experiments": [{k: e[k] for k in ("config", "exit",
                                                            "verdicts")}
                                         for e in res["experiments"]],
                         "counts": counts})
            print(f"{name} data.seed {data_seed}: exits "
                  f"{[e['exit'] for e in res['experiments']]}, steps "
                  f"{counts['solver.steps']}, run {res['run_s']:.2f} s",
                  flush=True)
        refs["workloads"][name] = _accept(seen)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


def _accept(seen):
    """Split recorded seeds into accepted and rejected ones; the accepted
    seeds' common counts are kept once.

    A seed is rejected when a run exits 2 or 3 (config error, numerical
    abort: the run skipped the workload's work) or 1 (a failed verdict,
    which may also mean a harness gave up early), and when its counts
    differ from those of most accepted seeds, so that every accepted seed
    does the same work and passes on different seeds can be compared.
    """
    clean = [e for e in seen if all(x["exit"] == 0 for x in e["experiments"])]
    keys = [json.dumps(e["counts"], sort_keys=True) for e in clean]
    common = max(set(keys), key=keys.count) if keys else None
    accepted = [e for e, k in zip(clean, keys) if k == common]
    rejected = []
    for e in seen:
        if e in accepted:
            continue
        exits = [x["exit"] for x in e["experiments"]]
        why = ("exit codes " + str(exits) if any(exits)
               else "counts differ from the other seeds")
        rejected.append({"data_seed": e["data_seed"], "reason": why})
    if not accepted:
        raise BenchError("no data seed accepted")
    return {"counts": accepted[0]["counts"],
            "seeds": [{k: v for k, v in e.items() if k != "counts"}
                      for e in accepted],
            "rejected": rejected}


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=BENCH_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "nslab")):
        print(f"error: no nslab source tree at {ROOT}/src/nslab",
              file=sys.stderr)
        return 2
    try:
        return record() if args.record else bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
