"""Smoke test of the benchmark itself: tiny sizes, no timing assertions.

Run from the root of a checkout with ``python3 -m pytest phibench/test_smoke.py``.
It checks that every workload runs, that each run emits exactly the metrics
``BENCHMARK.json`` declares with their units, and that the correctness gates
fire when an oracle value is wrong.
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
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    # 120 trials reach slot 104, the first neighbor-mode shannon slot, so
    # all ten bounds are exercised.
    "scan-default": wl.ScanWorkload(trials=120, seeds=2),
    "custom-quadrature": wl.CustomWorkload(n=2, specs=wl.CUSTOM_SPECS[:3]),
}


@pytest.fixture()
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "WORKLOADS", dict(TINY))
    return TINY


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_emits_declared_metrics_and_passes_gates(tiny, tmp_path, name, trace):
    result, lines = run.run(name, seed=7, seconds=0, trace=trace, out_dir=tmp_path)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert any(line.startswith("sha256 ") for line in lines)
    assert not any(line.startswith("GATE FAILED") for line in lines)


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_wrong_oracle_value_is_counted(tiny, tmp_path, monkeypatch):
    name = "custom-quadrature"
    workload = tiny[name]
    honest = type(workload).reference
    first = {}

    def wrong_once(self, ph, item):
        ref = honest(self, ph, item)
        return ref + 1.0 if first.setdefault("item", item) is item else ref

    monkeypatch.setattr(type(workload), "reference", wrong_once)
    result, lines = run.run(name, seed=7, seconds=0, trace=False, out_dir=tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert any(line.startswith("GATE FAILED") for line in lines)


def test_scan_gate_fires_and_exit_code_is_nonzero(tiny, monkeypatch, capsys):
    monkeypatch.setattr(wl, "BOUND_IDS", wl.BOUND_IDS + ("no_such_bound",))
    code = run.main(["--workload", "scan-default", "--seed", "7", "--seconds", "0"])
    out = capsys.readouterr()
    result = json.loads(out.out.strip().splitlines()[-1])
    assert code == 1
    assert result["failed"] == result["attempted"] > 0
    assert "no_such_bound" in out.err


def test_nondeterministic_output_fails(tiny, tmp_path, monkeypatch):
    workload = tiny["custom-quadrature"]
    honest = wl.CustomWorkload.run_item
    calls = {"n": 0}

    def drifting(self, ph, item):
        t, v = honest(self, ph, item)
        calls["n"] += 1
        return t, v + (1e-15 * abs(v) if calls["n"] == 1 else 0.0)

    monkeypatch.setattr(type(workload), "run_item", drifting)
    result, lines = run.run("custom-quadrature", seed=7, seconds=0, trace=False,
                           out_dir=tmp_path)
    assert not result["correct"]
    assert any("different outputs" in line for line in lines)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "phibench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "phibench/run.py", "--workload", "scan-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
