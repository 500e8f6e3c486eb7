"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric listed in BENCHMARK.json is printed with its unit in
both modes, that traced self times add up to the traced wall time, and that a
corrupted golden output is counted as a failure.
"""

import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import make_golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

SEED = 5
SMOKE = workloads.WORK / "smoke"
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, golden: Path = SMOKE / "golden"):
    if name == "mc_table":
        return workloads.MonteCarlo(name, (30, 50), 20, workers=1, golden_dir=golden)
    if name == "mc_long":
        return workloads.MonteCarlo(name, (2_000,), 4, workers=2, golden_dir=golden)
    if name == "cli_test":
        return workloads.CliTest(rows=2_000, golden_dir=golden)
    return workloads.Limits(points=50, probabilities=5, taus=5, golden_dir=golden)


@pytest.fixture(scope="module", autouse=True)
def tiny_goldens():
    shutil.rmtree(SMOKE, ignore_errors=True)
    seeds = sorted({workloads.pool_seed(SEED, i) for i in range(4)})
    for name in workloads.WORKLOADS:
        make_golden.write_golden(tiny(name), seeds)
    yield
    shutil.rmtree(SMOKE, ignore_errors=True)


def run_tiny(monkeypatch, name: str, trace: int) -> dict:
    monkeypatch.setattr(workloads, "make", tiny)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return report, result


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_named_with_units(monkeypatch, name):
    report, result = run_tiny(monkeypatch, name, trace=0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert report["metrics"]["fail_share"] == {"value": 0.0, "unit": "share"}
    assert report["provenance"]["config"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_per_layer_metrics_named_with_units(monkeypatch, name):
    report, result = run_tiny(monkeypatch, name, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert result["correct"]
    wall = metrics["trace.wall_s"]["value"]
    assert report["metrics"]["self_time_sum_s"]["value"] == pytest.approx(wall, rel=1e-9)


def corrupt(workload, seed: int) -> None:
    if workload.name == "cli_test":
        path = workload.golden_dir / "cli_test.json"
        doc = json.loads(path.read_text())
        doc[str(workloads.pool_seed(seed))]["json"]["statistic"] += 1e-12
    elif workload.name == "limits":
        path = workload.golden_dir / "limits.json"
        doc = json.loads(path.read_text())
        doc["variance"][0] += 1e-3
    else:
        path = workload.golden_path(workloads.pool_seed(seed))
        path.write_text(path.read_text().replace("Series 1,", "Series 0,", 1))
        return
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_golden_counts_as_failure(name):
    golden = SMOKE / f"corrupt-{name}"
    shutil.copytree(SMOKE / "golden", golden)
    workload = tiny(name, golden)
    workload.setup(SEED)
    assert workload.run_pass(0).failed == 0
    corrupt(workload, SEED)
    workload.setup(SEED)
    assert workload.run_pass(0).failed > 0
