"""Smoke: the whole suite at the 5k-user tier, every ledger name finite.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs once under the tracer (a traced run computes both
metric sections), ``saturate`` twice more untraced for the result-line
contract and the same-seed-same-digest check.  Numbers at this tier
mean nothing; names, units and checks are the point.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads(
    (HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run_bench(workload: str, trace: int, out: Path, seed: int = 3):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--json", str(out),
        ],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result, json.loads(out.read_text(encoding="utf-8")), proc.stdout


def assert_section(result: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_ledger_name_is_printed_with_a_finite_value(workload, tmp_path):
    result, report, stdout = run_bench(workload, 1, tmp_path / "report.json")
    assert_section(result, "per_layer")
    assert result["failed"] == 0
    for section in ("end_to_end", "per_layer"):
        for metric in MANIFEST[section]:
            name = metric["name"]
            assert math.isfinite(report[section][name]), name
            assert f"{name} = " in stdout, name
    for metric in MANIFEST["end_to_end"]:
        assert report["end_to_end"][metric["name"]] > 0, metric["name"]
    assert all(report["checks"].values()), report["checks"]
    assert Path(report["trace_json"]).exists()


def test_same_seed_gives_the_same_deliveries(tmp_path):
    first, report_a, _ = run_bench("saturate", 0, tmp_path / "a.json")
    second, report_b, _ = run_bench("saturate", 0, tmp_path / "b.json")
    assert_section(first, "end_to_end")
    assert_section(second, "end_to_end")
    assert report_a["checks"]["digest_equals_oracle"]
    assert report_a["window_digest"] == report_b["window_digest"]
    _, other_seed, _ = run_bench("saturate", 0, tmp_path / "c.json", seed=4)
    assert other_seed["window_digest"] != report_a["window_digest"]
