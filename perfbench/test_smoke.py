"""Smoke test of the benchmark at tiny sizes.

Not part of tier-1 (pytest collects ``tests/`` only).  Run it from the
repository root with ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ARGS = ["--seed", "3", "--seconds", "1", "--size", "tiny"]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(workload, trace, kind):
    done = run_bench(ROOT, "--workload", workload, "--trace", str(trace), *ARGS)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_wrong_reference_is_counted_as_failure(monkeypatch, capsys):
    import reference
    import run

    for var in (*run.BLAS_THREAD_VARS, "COXFIELD_THREADS"):
        monkeypatch.setenv(var, "1")
    closed_form = reference.hyperexp_cdf
    monkeypatch.setattr(reference, "hyperexp_cdf",
                        lambda w, r, t: closed_form(w, r, t) + 1e-6)
    assert run.main(["--workload", "structure", "--trace", "0", *ARGS]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "meanfield", "--trace", "0", *ARGS)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
