"""Smoke test of the benchmark harness at tiny input sizes (about a minute).

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _thread_env(monkeypatch):
    # run.main pins these in os.environ; monkeypatch restores them after
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


def _run(workload: str, trace: int) -> dict:
    return run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)], sizes=workloads.SMOKE)


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_reported(workload):
    result = _run(workload, 0)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_reported():
    result = _run("mc", 1)["result"]
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, SPEC["per_layer"])
    exact = {"regions.mask_evals_per_sample.ratios": 5.0,
             "regions.mask_evals_per_sample.volume": 1.0,
             "volumes.quad.calls.outer.T": 1.0}
    for name, value in exact.items():
        assert result["metrics"][name]["value"] == value


def test_failed_check_is_counted(monkeypatch):
    run.load_package()
    from bellvol import volumes

    real = volumes.mc_volume

    def off_by_one(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(est, value=est.value + 1.0)

    monkeypatch.setattr(volumes, "mc_volume", off_by_one)
    out = _run("mc", 0)
    result, detail = out["result"], out["report"]["metrics"]
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]  # ratios still pass
    frac = detail["ops_failed_frac"]["value"]
    assert frac == result["failed"] / result["attempted"]
    assert any("sigma" in f for f in out["report"]["failures"])
