"""Tests of the benchmark itself; run with ``python3 -m pytest bench/tests``.

They use the ``smoke`` workload (N=16, a few steps), whose references are
recorded in ``bench/references.json`` with the others.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_on_nested_span_tree():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("d", 7.0, 9.5, 0),
        _span("d", 8.0, 9.0, 4),  # nested call of the same function
    ]
    stats = tracing.span_stats(spans)
    assert stats["a"] == {"calls": 1, "s": 10.0, "self_s": 3.5}
    assert stats["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert stats["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    # the inner d lies inside the outer one, so it adds no total time
    assert stats["d"] == {"calls": 2, "s": 2.5, "self_s": 2.5}


def test_covered_time_is_the_union_of_intervals():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracing._covered([]) == 0.0


def test_keep_ratios_count_only_work_inside_the_solve():
    solve = {"rows": 3, "pressures": 3, "steps": 8, "iterations": 2}
    spans = [
        _span("solver.picard_solve", 0.0, 5.0, -1, solve),
        *[_span("spectral.sup_norm", 1.0 + i * 0.1, 1.05 + i * 0.1, 0)
          for i in range(6)],
        *[_span("solver.normalised_pressure", 2.0 + i * 0.1,
                2.05 + i * 0.1, 0) for i in range(6)],
        _span("spectral.sup_norm", 6.0, 6.5, -1),  # outside the solve
    ]
    m = tracing.layer_metrics(spans, artifact_bytes=7)
    assert m["solver.row_keep_ratio"] == 0.5
    assert m["solver.pressure_keep_ratio"] == 0.5
    assert m["spectral.sup_norm.calls"] == 7
    assert m["solver.steps"] == 8
    assert m["solver.picard.iterations"] == 2
    assert m["cli.artifact_bytes"] == 7
    assert m["solver.evolve.s"] == 0


def test_tracer_records_parents_and_attributes():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, lambda args, out: {"out": out})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [["outer", 0.0, 3.0, -1, None],
                            ["inner", 1.0, 2.0, 0, {"out": 2}]]
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("bad", lambda: 1 / 0)()
    assert tracer.spans[-1][0] == "bad" and tracer.spans[-1][2] is not None


def test_install_rebinds_every_import_and_uninstalls():
    import scipy.fft

    from nslab import cli, solver
    from nslab import spectral as sp

    originals = (cli.evolve, solver.evolve, sp.curl, scipy.fft.fftn)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.evolve is solver.evolve is not originals[0]
        sp.curl(sp.vector_from_samples(sp.make_grid(1.0, 8),
                                       [[[[0.0] * 8] * 8] * 8] * 3))
    finally:
        uninstall()
    assert (cli.evolve, solver.evolve, sp.curl, scipy.fft.fftn) == originals
    names = [s[0] for s in tracer.spans]
    assert "spectral.curl" in names and "spectral.fft" in names


def test_verdict_tolerance():
    ref = [{"config": "x", "exit": 0, "verdicts": [["v", True, 1.0, 2.0],
                                                   ["z", True, 0.0, 1.0],
                                                   ["n", False, float("nan"),
                                                    float("nan")]]}]
    got = copy.deepcopy(ref)
    got[0]["verdicts"][0][2] = 1.0 + 5e-10
    got[0]["verdicts"][1][2] = 5e-15
    assert run.mismatches(got, ref) == []
    got[0]["verdicts"][0][2] = 1.0 + 2e-9
    got[0]["verdicts"][1][2] = 2e-14
    got[0]["verdicts"][2][2] = 0.0
    assert len(run.mismatches(got, ref)) == 3
    got = copy.deepcopy(ref)
    got[0]["exit"] = 1
    assert run.mismatches(got, ref) == ["x: exit 1 != 0"]


def test_overhead_pairs_adjacent_passes():
    # the host slows down after the second pass; pairing cancels it
    passes = [{"run_s": 1.0}, {"run_s": 1.1}, {"run_s": 2.0},
              {"run_s": 2.2}, {"run_s": 1.0}, {"run_s": 1.1}]
    assert abs(run.overhead_frac(passes) - 0.1) < 1e-12
    # a failed last pass has no pair
    assert abs(run.overhead_frac(passes[:4] + [{"run_s": 1.0}, {}]) - 0.1) \
        < 1e-12


def test_references_keep_counts_once_per_workload():
    refs = run.load_references()
    for name, entry in refs["workloads"].items():
        assert set(entry["counts"]) == set(tracing.EXACT_COUNTS), name
        assert entry["seeds"] and all("counts" not in s
                                      for s in entry["seeds"])


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99))) is None
    assert run.tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert run.tail_percentile(list(range(1, 1001))) == (99.0, 990)


@pytest.fixture
def workdir(tmp_path):
    yield str(tmp_path / "work")
    shutil.rmtree(tmp_path / "work", ignore_errors=True)


def test_smoke_traced_run_is_correct_and_counts_repeat(workdir):
    refs = run.load_references()
    res = run.measure("smoke", 1, 0.0, True, refs, workdir)
    assert res["correct"], res["failures"]
    assert res["failed"] == 0 and res["attempted"] == 4
    assert res["count_mismatches"] == []
    traced = [p["layers"] for p in res["passes"] if p["traced"]]
    assert len(traced) == 2
    for name in tracing.EXACT_COUNTS:
        assert traced[0][name] == traced[1][name]
        assert traced[0][name] == refs["workloads"]["smoke"]["counts"][name]
    assert traced[0]["solver.steps"] > 0
    assert set(res["metrics"]) == {n for n, _ in tracing.LAYER_METRICS} | {
        "trace.overhead_frac"}


def test_perturbed_reference_is_counted_as_failure(workdir):
    refs = copy.deepcopy(run.load_references())
    entry = run.reference_for(refs, "smoke", 0)
    verdict = entry["experiments"][0]["verdicts"][0]
    verdict[2] *= 1.0 + 1e-6
    res = run.measure("smoke", 0, 0.0, False, refs, workdir)
    assert res["attempted"] == 1 and res["failed"] == 1
    # one set-up-only child before the pass, and the pass itself
    assert len(res["setup_s"]) == 2
    assert res["failed_frac"] == 1.0
    assert not res["correct"]
    assert any(verdict[0] in line for line in res["failures"])


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stepping",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
