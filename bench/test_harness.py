"""Smoke-scale checks of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest bench -q``; the repository's
own test suite does not collect this directory.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = run.declared()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_records():
    """Both passes of every workload at smoke scale, run once."""
    return {
        (name, trace): run.run_pass(
            name, seed=3, seconds=run.SMOKE_SECONDS, trace=trace, smoke=True
        )
        for name in WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(
    smoke_records, name, trace
):
    record = smoke_records[(name, trace)]
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1
    declared = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    emitted = {k: e["unit"] for k, e in record["metrics"].items()}
    # Both directions: nothing declared is missing, nothing undeclared
    # appears, and every unit matches its declaration.
    assert emitted == declared
    for metric, entry in record["metrics"].items():
        # A number, or an honest skip on a host with too few CPUs.
        assert isinstance(entry["value"], (int, float)) or (
            entry["value"] is None and entry["skipped"]
        ), metric


def test_wrong_score_fails_the_run(monkeypatch, capsys):
    from repro.app import cudasw

    real = cudasw.CudaSW.search

    def one_wrong_score(self, *args, **kwargs):
        result, report = real(self, *args, **kwargs)
        scores = result.scores.copy()
        scores[0] += 1
        return dataclasses.replace(result, scores=scores), report

    monkeypatch.setattr(cudasw.CudaSW, "search", one_wrong_score)
    status = run.main([
        "--workload", "cli_small", "--seed", "5", "--trace", "0", "--smoke",
    ])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert not last["correct"]
    assert last["failed"] / last["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero
    and print no result."""
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
