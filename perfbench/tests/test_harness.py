"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The tests named test_every_* and test_fails_* start the benchmark itself
with short runs (about a minute in all on two cores).
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import fractime as ft  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The benchmark design's own names for what each workload reports.
DESIGN_NAMES = {
    "rate-fit": ("fit_p50_ms", "fit_p90_ms", "curve_values_per_s", "point_p50_ms"),
    "density-routes": ("quad_point_p50_ms", "closed_values_per_s", "double_transform_p50_ms"),
    "time-domain-oracles": ("mc_path_1e4_p50_ms", "mc_direct_paths_per_s",
                            "relax_solve_p50_ms"),
}


def _rounds(workload, seed, n=3):
    return list(itertools.islice(wl.STREAMS[workload](seed), n))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert _rounds(workload, 7) == _rounds(workload, 7)
    assert _rounds(workload, 7) != _rounds(workload, 8)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_rounds_keep_their_mix(workload):
    kinds = [sorted(op.kind for op in ops) for ops in _rounds(workload, 3, 6)]
    assert all(k == kinds[0] for k in kinds)


def _run_records(ops):
    records, _, _, _ = worker.measure(wl.Runner(ft), iter([ops]), 0.0, None, None, ft.FractimeError)
    return records


def test_perturbed_output_counts_as_failed():
    ops = [wl.Op("point", ("stable", 0.6), ("mono", 2), (30.0, False)),
           wl.Op("closed", ("stable", 0.6), ("mono", 1), (0.5, 5.0, 50.0)),
           wl.Op("mc-direct", ("stable", 0.4), ("mono", 1), (2.0, 1000, 5))]
    records = _run_records(ops)
    assert worker.check_records(records, wl.Checker()) == []

    op, seconds, out, err = records[0]
    records[0] = (op, seconds, out * (1.0 + 1e-6), err)
    op, seconds, out, err = records[1]
    records[1] = (op, seconds, out.copy(), err)
    records[1][2][2] *= 1.0 + 1e-9
    failures = worker.check_records(records, wl.Checker())
    assert [i for i, _ in failures] == [0, 1]

    result = {"ops": [[op.kind, s] for op, s, _, _ in records], "failures": failures}
    assert run.failed_share(result) == pytest.approx(2 / 3)


def test_raised_error_counts_as_failed():
    op = wl.Op("dtr", ("stable", 0.5), None, (-1.0, 1.0))
    records = _run_records([op])
    assert records[0][3].startswith("DomainError")
    assert len(worker.check_records(records, wl.Checker())) == 1


def test_ml_contour_rule_matches_documented_bands():
    regime = ft.MLRegime()
    assert not tracing.ml_uses_contour(0.5, 0.5, regime)
    assert tracing.ml_uses_contour(0.5, 20.0, regime)
    assert not tracing.ml_uses_contour(0.5, 80.0, regime)
    assert tracing.ml_uses_contour(0.1, 4.0, regime)  # series peak index far past 300


def _bench(tmp_root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=180)


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
                  "--trace", "0")
    out = _last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["attempted"] > 0
    report = proc.stdout
    assert report.count("  FAILED ") == out["failed"]
    assert out["correct"] == (out["failed"] == 0)
    for name in DESIGN_NAMES[workload] + ("failed_share",):
        assert name in report


def test_every_per_layer_metric_printed_with_unit():
    proc = _bench(ROOT, "--workload", "rate-fit", "--seed", "11", "--seconds", "1",
                  "--trace", "1")
    out = _last_json(proc)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["metrics"]["laplace.inversions"]["value"] > 0
    assert out["metrics"]["montecarlo.paths"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "rate-fit", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
