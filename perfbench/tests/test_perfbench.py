"""Fast tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _run(capsys, *extra):
    code = bench.main(["--seed", "3", "--seconds", "0", "--toy", *extra])
    lines = capsys.readouterr().out.splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(_declared("per_layer")) == tracing.per_layer_names()
    assert all(tracing.metric_unit(n) == u for n, u in _declared("per_layer").items())


@pytest.mark.parametrize("name", NAMES)
def test_toy_run_passes_every_check(capsys, name):
    code, _, result = _run(capsys, "--workload", name)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_toy_run_prints_every_per_layer_metric(capsys, name):
    code, lines, result = _run(capsys, "--workload", name, "--trace", "1")
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("per_layer")
    assert any(line.startswith(f"crosscheck {name}:") for line in lines)
    trace = json.loads((bench.OUT / f"trace-{name}-seed3.json").read_text())
    assert trace["spans"] and trace["named_share"]
    assert all(share >= 0.9 for share in trace["named_share"].values())


@pytest.fixture(scope="module")
def outcomes():
    out = {}
    for name in NAMES:
        wl = workloads.get(name, toy=True)
        clock = workloads.SetupClock()
        patches = tracing.Patches()
        workloads.instrument(wl, clock, patches)
        try:
            out[name] = workloads.run_op(wl, 5, 0, clock)
        finally:
            patches.restore()
    return out


@pytest.mark.parametrize("name", NAMES)
def test_checks_reject_each_corruption(outcomes, name):
    out = outcomes[name]
    assert workloads.check(out) == []
    variants = workloads.corruptions(out)
    assert len(variants) >= 4
    for label, bad in variants:
        assert workloads.check(bad), f"check accepted: {label}"
    assert workloads.check(out) == []  # the real output is left untouched


def test_corrupted_operation_counts_as_failed(capsys, monkeypatch):
    real = workloads.run_op

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        return workloads.corruptions(out)[0][1]

    monkeypatch.setattr(workloads, "run_op", corrupted)
    code, _, result = _run(capsys, "--workload", "ds-select")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert code != 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ds-select",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
