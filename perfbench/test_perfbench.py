"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from slicefock import corpus, fock, series, verify  # noqa: E402
from slicefock.quadrature import QuadratureGrid  # noqa: E402
from slicefock.quaternion import default_sphere  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_op(workload):
    return next(iter(workload.operations()))


def test_norm_oracle_flags_relative_perturbation_of_1e6(tmp_path):
    workload = workloads.NormRefine(0, tmp_path, limit=1)
    call, check = first_op(workload)
    code, text = call()
    assert check((code, text)) == []
    report = json.loads(text)
    worst = max(range(len(report["per_slice"])),
                key=lambda k: report["per_slice"][k][1])
    report["per_slice"][worst][1] *= 1.0 + 1e-6
    report["value"] = report["per_slice"][worst][1]
    assert any("oracle" in p for p in check((code, json.dumps(report))))
    report["value"] *= 1.0 + 1e-6
    assert any("max(per_slice)" in p for p in check((code, json.dumps(report))))


def test_algebra_oracle_flags_a_wrong_star_product(tmp_path, monkeypatch):
    workload = workloads.Algebra(0, tmp_path, limit=4)
    i = next(k for k in range(3) if workload.corpus[k].degree
             and workload.corpus[k + 1].degree)
    assert workload.check(i, workload.bundle(i)) == []
    right = series.star_mul
    monkeypatch.setattr(series, "star_mul", lambda f, g: right(g, f))
    problems = workload.check(i, workload.bundle(i))
    assert "star_mul differs from the coefficient convolution" in problems


# metrics that must be non-zero, so that a span or counter name that matches
# nothing cannot hide behind a zero
EXERCISED = {
    "algebra": ["series.self_s", "kernels.self_s", "quaternion.products",
                "quaternion.inverses", "trace.spans", "trace.overhead_s",
                "trace.wall_s"]
               + [f"series.{f}.{k}" for f in ("split", "extend", "star_mul",
                                              "eval", "rep_eval",
                                              "transform_point",
                                              "star_inverse_eval")
                  for k in ("calls", "self_s")]
               + [f"kernels.{f}.{k}" for f in ("atomic_synthesis",
                                               "star_exp_eval")
                  for k in ("calls", "self_s")],
    "norm-refine": ["fock.self_s", "fock.fock_norm_p.calls",
                    "fock.fock_norm_p.self_s", "fock.refinements",
                    "fock.points_evaluated", "fock.eval_flops",
                    "quadrature.self_s", "quadrature.grids_built",
                    "quadrature.points_built", "series.split.calls",
                    "cli.self_s", "serialize.self_s", "trace.overhead_s",
                    "trace.wall_s"],
}


@pytest.mark.parametrize("name, limit", [("algebra", 6), ("norm-refine", 3)])
def test_traced_counts_repeat_exactly(name, limit):
    runs = [workloads.measure(name, 0, 1, True, perf_counter(), limit=limit)
            for _ in range(2)]
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    counts = [{k: v for k, v in r["per_layer"].items()
               if units[k].split(".")[0] != "s"} for r in runs]
    assert counts[0] == counts[1]
    assert all(r["failed"] == 0 for r in runs)
    assert set(runs[0]["per_layer"]) == set(units)
    assert all(runs[0]["per_layer"][k] > 0 for k in EXERCISED[name])


def test_tracer_counts_the_grid_evaluations_verify_makes():
    # verify calls the fock helper directly, not through fock_norm_p
    f = corpus.standard_corpus(0)[1]
    tracer = Tracer()
    with tracer:
        verify._slice_norms_on_grid(f, default_sphere()[:3], fock.FockParams(1.0),
                                    QuadratureGrid.build(8, 16))
    points = 3 * 8 * 16
    assert tracer.counts["fock.points_evaluated"] == points
    assert tracer.counts["fock.eval_flops"] == 16 * (f.degree + 1) * points
    assert tracer.counts["fock.refinements"] == 0


def test_benchmark_json_records_workloads_and_layer_map():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] for w in BENCH["workloads"])
    rows = json.loads((HERE / "layers.json").read_text())
    mapped = [m for row in rows for m in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for row in rows:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) <= set(names)


def test_tail_is_the_highest_rank_with_ten_samples_above():
    samples = [float(v) for v in range(44)]
    assert workloads.tail(samples) == (33.0, 100.0 * 34 / 44)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_prints_every_end_to_end_metric_last_line_json():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "algebra", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = run.metric_units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and unit in line
                   for line in lines[:-1])


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
