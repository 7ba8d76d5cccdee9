"""Smoke test of the benchmark itself, at the smallest run length.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json declares is printed with its unit
on every workload, that a tampered plan file fails the correctness checks
with a nonzero exit, that the traced run puts back every attribute it
wrapped, and that the command refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))


def run_bench(*extra, cwd=ROOT, run=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(run), "--seconds", "0.1", *extra],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed(workload, trace):
    code, result, proc = run_bench("--workload", workload, "--seed", "3",
                                   "--trace", str(trace))
    assert code == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_tampered_plan_fails_the_checks():
    code, result, _ = run_bench("--workload", "sim_ref", "--seed", "3",
                                "--trace", "1", "--tamper", "n_r=112000")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["check_fail_ratio"]["value"] > 0


def test_traced_run_restores_wrapped_attributes(tmp_path):
    import tracer
    import worker
    modules = {"cli": worker.cli, "planner": worker.planner,
               "moments": worker.moments, "montecarlo": worker.montecarlo,
               "beamform": worker.beamform}
    before = {(layer, a): getattr(modules[layer], a)
              for layer, attrs in tracer.TRACED.items() for a in attrs}
    assert worker.main(["--workload", "sim_ref", "--seed", "3", "--seconds", "0.1",
                        "--trace", "1", "--workdir", str(tmp_path)]) == 0
    for (layer, attr), original in before.items():
        assert getattr(modules[layer], attr) is original, f"{layer}.{attr}"
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert "montecarlo.sample_realization" in spans["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _ = run_bench("--workload", "sim_ref", "--seed", "0",
                                "--trace", "0", cwd=tmp_path,
                                run=tmp_path / "perfbench" / "run.py")
    assert code != 0 and result is None
