"""The benchmark's own tests: a tiny run per workload, the planted
faults each output check must catch, and the shape of BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT))

from perfbench import catalog  # noqa: E402


def run(workload: str, *extra: str, cwd: Path = ROOT, seconds: str = "1"):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", seconds, *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stdout + done.stderr


@pytest.mark.parametrize("workload", ["designer", "explore", "serve", "runtime"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_complete(workload, trace):
    code, result, output = run(workload, "--trace", trace)
    assert code == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = catalog.PER_LAYER if trace == "1" else catalog.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == names[name]
        assert isinstance(entry["value"], float)
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, plant",
    [
        ("designer", "flip-byte"),
        ("explore", "dominated-design"),
        ("serve", "perturb-result"),
        ("runtime", "count-change"),
    ],
)
def test_planted_fault_fails_the_run(workload, plant):
    code, result, output = run(workload, "--trace", "0", "--plant", plant)
    assert code != 0, output
    assert result["correct"] is False and result["failed"] >= 1


def test_traced_tables_confirm_the_workload_design():
    def layers(workload):
        code, result, output = run(workload, "--trace", "1", seconds="2")
        assert code == 0, output
        return {name: entry["value"] for name, entry in result["metrics"].items()}

    designer = layers("designer")
    assert designer["share.bitgen"] + designer["share.relocation"] >= 0.80
    assert designer["share.core"] < 0.05
    explore = layers("explore")
    assert explore["share.bitgen"] == 0.0 and explore["bitgen.generate.ms"] == 0.0
    runtime = layers("runtime")
    assert runtime["share.bitgen"] == 0.0 and runtime["share.serve"] == 0.0


def test_without_the_program_source_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, output = run("designer", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None, output


def test_benchmark_json_matches_the_catalog_and_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == catalog.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128
