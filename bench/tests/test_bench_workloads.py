"""Every workload runs end to end at a toy size, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_toy_size(tmp_path, workload):
    result = run.run(workload, 4, 0.1, trace=False, sizes=inputs.TOY, out=tmp_path)
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run(workload, 4, 0.1, trace=True, sizes=inputs.TOY, out=tmp_path)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert traced["metrics"]["cli.run_s"]["value"] > 0
    assert (tmp_path / "traces" / f"{workload}-seed4.json").is_file()
    assert not list(tmp_path.glob("work-*"))


def test_without_a_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "builtin-cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_failed_check_names_workload_and_check_and_prints_no_result(monkeypatch, capsys):
    def failing_run(*args, **kwargs):
        raise run.CheckFailed("closed-form", "builtin/synth: counts.matched is 1, expected 2")

    monkeypatch.setattr(run, "run", failing_run)
    code = run.main(["--workload", "builtin-cold", "--seed", "1", "--seconds", "1", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "builtin-cold" in err and "closed-form" in err
