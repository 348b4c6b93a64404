"""The benchmark's own tests: a tiny-geometry pass of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SUITE, LAYERS = run._import_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics that are host timings or call counts, not simulated
#: statistics, and so may differ between two runs of one seed
HOST_METRICS = ("self_s", "calls", "ns_per_event", "overhead_s",
                "replay_ms_per_point")


def _run(capsys, workload: str, trace: int, seed: int = 3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)], tiny=True)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_benchmark_names_its_workloads():
    assert sorted(WORKLOADS) == sorted(SUITE.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    record, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert record["seed"] == 3
    assert record["geometry"]
    assert set(record["provenance"]) >= {"code_version", "cpu_count", "python"}


def test_end_to_end_metrics_are_never_zero(capsys):
    _record, result = _run(capsys, "chip64-ocean", 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_doctored_result_fails_the_check():
    request = SUITE.WORKLOADS["chip64-ocean"].requests(0, tiny=True)[0]
    outcome = SUITE.invoke(request).outcome
    assert SUITE.check_outcome(outcome) == []
    bad = _doctored(outcome, cores_done=outcome.result.cores_done - 1)
    assert any("cores finished" in p for p in SUITE.check_outcome(bad))
    bad = _doctored(outcome, instructions=outcome.result.instructions + 1)
    assert any("instructions" in p for p in SUITE.check_outcome(bad))


def test_doctored_run_is_counted_as_failed(capsys, monkeypatch):
    real_invoke = SUITE.invoke

    def doctored_invoke(request):
        inv = real_invoke(request)
        inv.outcome = _doctored(inv.outcome,
                                cores_done=inv.outcome.result.cores_done - 1)
        return inv

    monkeypatch.setattr(SUITE, "invoke", doctored_invoke)
    record, result = _run(capsys, "chip256-wordcount", 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert record["failed_frac"] == result["failed"] / result["attempted"]
    assert any("cores finished" in p for p in record["problems"])


@pytest.mark.parametrize("workload", ["chip256-wordcount", "sweep-kmp-ladder"])
def test_simulated_counts_repeat_for_a_seed(capsys, workload):
    first = _run(capsys, workload, 1, seed=5)[1]["metrics"]
    second = _run(capsys, workload, 1, seed=5)[1]["metrics"]
    counts = [n for n in first if not n.endswith(HOST_METRICS)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_profile_accounts_for_all_time(capsys):
    metrics = _run(capsys, "sweep-kmp-ladder", 1)[1]["metrics"]
    layers = [f"{layer}.self_s" for layer in LAYERS.LAYERS] + ["other.self_s"]
    assert all(metrics[name]["value"] >= 0 for name in layers)
    assert metrics["stats.self_s"]["value"] <= metrics["sim.self_s"]["value"]
    assert metrics["mem.self_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _doctored(outcome, **changes):
    import dataclasses

    return dataclasses.replace(
        outcome, result=dataclasses.replace(outcome.result, **changes))
